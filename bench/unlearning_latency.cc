// Experiment E9 (survey Section 2.4): the data-debugging <-> machine
// unlearning connection.
//
// Debugging identifies harmful tuples by (conceptually) removing them over
// and over; regulation wants those removals to *actually happen* fast. This
// bench measures exact decremental removal (sufficient-statistics updates)
// against full retraining for Gaussian naive Bayes, across training-set
// sizes, and then plays the combined workflow: debug with KNN-Shapley,
// forget the flagged tuples, measure the accuracy recovery without a single
// retrain.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "cleaning/strategies.h"
#include "datagen/synthetic.h"
#include "importance/knn_shapley.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/unlearning.h"

namespace nde {
namespace {

void LatencySweep() {
  bench::Banner("E9a: unlearning latency vs full retraining (Gaussian NB)");
  std::printf("%8s %10s %22s %22s %10s\n", "n", "removals",
              "forget total (ms)", "retrain total (ms)", "speedup");
  for (size_t n : {500u, 2000u, 8000u}) {
    BlobsOptions options;
    options.num_examples = n;
    options.num_features = 16;
    MlDataset data = MakeBlobs(options);
    size_t removals = 50;

    DecrementalGaussianNb decremental;
    Status fit = decremental.Fit(data);
    NDE_CHECK(fit.ok());
    bench::Stopwatch forget_watch;
    for (size_t i = 0; i < removals; ++i) {
      Status forgotten = decremental.Forget(i);
      NDE_CHECK(forgotten.ok());
    }
    // Force the derived-state refresh into the measured time.
    Matrix probe(1, options.num_features);
    (void)decremental.Predict(probe);
    double forget_ms = forget_watch.ElapsedMs();

    bench::Stopwatch retrain_watch;
    std::vector<size_t> removed;
    for (size_t i = 0; i < removals; ++i) {
      removed.push_back(i);
      GaussianNaiveBayes fresh;
      Status refit = fresh.FitWithClasses(data.Without(removed),
                                          data.NumClasses());
      NDE_CHECK(refit.ok());
    }
    double retrain_ms = retrain_watch.ElapsedMs();

    std::printf("%8zu %10zu %22.2f %22.2f %9.1fx\n", n, removals, forget_ms,
                retrain_ms, retrain_ms / std::max(forget_ms, 1e-6));
    bench::ReportJson("unlearning.forget", forget_ms,
                      {{"n", std::to_string(n)},
                       {"removals", std::to_string(removals)}});
    bench::ReportJson("unlearning.retrain", retrain_ms,
                      {{"n", std::to_string(n)},
                       {"removals", std::to_string(removals)}});
  }
  std::printf("expected shape: speedup grows with n (O(d) vs O(n d) work).\n");
}

void DebugThenForget() {
  bench::Banner("E9b: debug with importance, then *forget* instead of retrain");
  DatasetSplits splits = LoadRecommendationLetters(500, 42);
  MlDataset dirty = splits.train;
  Rng rng(7);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.12, &rng);

  DecrementalKnn model(1);
  Status fit = model.Fit(dirty);
  NDE_CHECK(fit.ok());
  double dirty_accuracy =
      Accuracy(splits.test.labels, model.Predict(splits.test.features));
  std::printf("dirty accuracy: %.4f (%zu hidden label flips)\n",
              dirty_accuracy, corrupted.size());

  std::vector<double> importance =
      KnnShapleyValues(dirty, splits.valid, 5).value().values;
  std::vector<size_t> ranking = AscendingOrder(importance);
  std::printf("%16s %14s %16s\n", "tuples forgotten", "accuracy",
              "forget time (ms)");
  bench::Stopwatch watch;
  size_t forgotten = 0;
  for (size_t batch_end : {10u, 20u, 30u, 40u, 60u}) {
    while (forgotten < batch_end) {
      Status s = model.Forget(ranking[forgotten]);
      NDE_CHECK(s.ok());
      ++forgotten;
    }
    double batch_ms = watch.LapMs();
    double accuracy =
        Accuracy(splits.test.labels, model.Predict(splits.test.features));
    std::printf("%16zu %14.4f %16.2f\n", forgotten, accuracy,
                watch.ElapsedMs());
    char accuracy_text[32];
    std::snprintf(accuracy_text, sizeof(accuracy_text), "%.4f", accuracy);
    bench::ReportJson("unlearning.debug_then_forget", batch_ms,
                      {{"forgotten", std::to_string(forgotten)},
                       {"accuracy", accuracy_text}});
  }
  std::printf(
      "expected shape: forgetting the flagged tuples recovers accuracy with\n"
      "zero retraining — the GDPR-style deletion path doubles as a repair.\n");
}

}  // namespace
}  // namespace nde

int main() {
  nde::LatencySweep();
  nde::DebugThenForget();
  return 0;
}
