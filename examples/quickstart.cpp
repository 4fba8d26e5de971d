// Quickstart: identify and recover from label errors with data importance.
//
// The C++ rendition of the paper's Figure 2 notebook:
//
//   train_df, valid_df, test_df = nde.load_recommendation_letters()
//   train_df_err = nde.inject_labelerrors(train_df, fraction=0.1)
//   acc_dirty = nde.evaluate_model(train_df_err)
//   importances = nde.knn_shapley_values(train_df_err, validation=valid_df)
//   lowest = np.argsort(importances)[:25]
//   train_df_err.loc[lowest] = train_df.loc[lowest]
//   acc_cleaned = nde.evaluate_model(train_df_err)
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "nde/nde.h"

int main() {
  using namespace nde;

  // Load the synthetic recommendation-letters dataset (train/valid/test).
  DatasetSplits splits = LoadRecommendationLetters(/*num_examples=*/600,
                                                   /*seed=*/42);
  auto evaluate_model = [&](const MlDataset& train) {
    return TrainAndScore([]() { return std::make_unique<KnnClassifier>(1); },
                         train, splits.test)
        .value();
  };

  // Inject synthetic label errors into 10% of the training data.
  MlDataset train_err = splits.train;
  Rng rng(7);
  std::vector<size_t> corrupted = InjectLabelErrors(&train_err, 0.1, &rng);
  double acc_dirty = evaluate_model(train_err);
  std::printf("Accuracy with data errors: %.2f.\n", acc_dirty);

  // Compute KNN-Shapley importance of every training tuple against the
  // validation set; the most negative tuples are the prime suspects.
  std::vector<double> importances =
      KnnShapleyValues(train_err, splits.valid, /*k=*/5).value().values;
  std::vector<size_t> lowest = AscendingOrder(importances);
  lowest.resize(25);

  std::printf("\nmost suspicious tuples (importance | was injected?):\n");
  for (size_t i = 0; i < 5; ++i) {
    bool injected = std::find(corrupted.begin(), corrupted.end(), lowest[i]) !=
                    corrupted.end();
    std::printf("  tuple %4zu  %+.5f  %s\n", lowest[i], importances[lowest[i]],
                injected ? "yes" : "no");
  }

  // Replace the suspects with clean ground truth (the "oracle" repair).
  OracleCleaner oracle(splits.train);
  Status repaired = oracle.Repair(&train_err, lowest);
  if (!repaired.ok()) {
    std::printf("repair failed: %s\n", repaired.ToString().c_str());
    return 1;
  }
  double acc_cleaned = evaluate_model(train_err);
  std::printf("\nCleaning some records improved accuracy from %.2f to %.2f.\n",
              acc_dirty, acc_cleaned);
  return 0;
}
