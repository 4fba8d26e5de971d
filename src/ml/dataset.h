#ifndef NDE_ML_DATASET_H_
#define NDE_ML_DATASET_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "linalg/matrix.h"

namespace nde {

/// A supervised classification dataset: numeric feature matrix plus integer
/// class labels (0-based, contiguous). This is what models consume after
/// pipeline preprocessing.
struct MlDataset {
  Matrix features;          ///< n x d feature matrix.
  std::vector<int> labels;  ///< n class labels in {0, ..., num_classes-1}.

  size_t size() const { return labels.size(); }
  size_t num_features() const { return features.cols(); }

  /// Largest label + 1 (0 for an empty dataset).
  int NumClasses() const;

  /// Rows at `indices`, in order (indices may repeat).
  MlDataset Subset(const std::vector<size_t>& indices) const;

  /// All rows except those in `excluded` (order preserved). Indices out of
  /// range are ignored.
  MlDataset Without(const std::vector<size_t>& excluded) const;

  /// Consistency check: feature rows == label count, labels non-negative.
  Status Validate() const;
};

/// Zero-copy view of selected rows of a parent MlDataset. The utility fast
/// path threads this through training (`Classifier::FitView`) so evaluating a
/// coalition never materializes its feature rows.
///
/// Lifetime: the view borrows both the parent dataset and the index vector;
/// they must outlive the view. Indices may repeat and appear in any order;
/// row i of the view is parent row indices[i], exactly as in
/// MlDataset::Subset.
class MlDatasetView {
 public:
  MlDatasetView(const MlDataset& parent, const std::vector<size_t>& indices)
      : parent_(&parent), indices_(indices.data(), indices.size()) {}

  size_t size() const { return indices_.size(); }
  size_t num_features() const { return parent_->features.cols(); }

  /// Parent-row index backing view row `i`.
  size_t parent_index(size_t i) const { return indices_[i]; }
  std::span<const size_t> indices() const { return indices_; }

  const double* RowPtr(size_t i) const {
    return parent_->features.RowPtr(indices_[i]);
  }
  std::span<const double> RowSpan(size_t i) const {
    return parent_->features.RowSpan(indices_[i]);
  }
  int label(size_t i) const { return parent_->labels[indices_[i]]; }

  const MlDataset& parent() const { return *parent_; }

  /// Largest label in the view + 1 (0 for an empty view).
  int NumClasses() const;

  /// Copies the view into an owning dataset; equal to parent.Subset(indices).
  MlDataset Materialize() const;

  /// Copies just the labels (cheap next to the feature rows).
  std::vector<int> CopyLabels() const;

 private:
  const MlDataset* parent_;
  std::span<const size_t> indices_;
};

/// A regression dataset: numeric features plus real-valued targets.
struct RegressionDataset {
  Matrix features;             ///< n x d feature matrix.
  std::vector<double> targets; ///< n real targets.

  size_t size() const { return targets.size(); }
  MlDataset ToClassification(double threshold) const;
  RegressionDataset Subset(const std::vector<size_t>& indices) const;
};

/// Result of a random train/test split.
struct SplitResult {
  MlDataset train;
  MlDataset test;
  std::vector<size_t> train_indices;  ///< original indices of train rows
  std::vector<size_t> test_indices;   ///< original indices of test rows
};

/// Randomly splits `data` with `test_fraction` of rows going to the test
/// side. Precondition: 0 < test_fraction < 1 and data non-empty.
SplitResult TrainTestSplit(const MlDataset& data, double test_fraction,
                           Rng* rng);

/// Standardization statistics (per-feature mean and standard deviation).
struct FeatureScaler {
  std::vector<double> mean;
  std::vector<double> stddev;  ///< zero-variance features get stddev 1.

  /// Computes statistics from `features`.
  static FeatureScaler Fit(const Matrix& features);

  /// Same statistics computed over the rows of a view, without materializing
  /// them. Bit-identical to Fit(view.Materialize().features): rows are
  /// accumulated in view order with the same arithmetic.
  static FeatureScaler Fit(const MlDatasetView& view);

  /// Returns (x - mean) / stddev applied per column.
  Matrix Transform(const Matrix& features) const;
};

}  // namespace nde

#endif  // NDE_ML_DATASET_H_
