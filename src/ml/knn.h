#ifndef NDE_ML_KNN_H_
#define NDE_ML_KNN_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/model.h"

namespace nde {

/// The one total order every KNN component ranks training rows by: distance
/// ascending, a NaN distance after +inf, ties (two NaNs included) by index.
/// True when row `a` at `dist_a` comes before row `b` at `dist_b`. On finite
/// distances this is the plain (distance, index) order.
inline bool NearerThan(double dist_a, size_t a, double dist_b, size_t b) {
  if (dist_a < dist_b) return true;
  if (dist_a == dist_b) return a < b;
  // dist_a > dist_b, or at least one side is NaN.
  return std::isnan(dist_b) && (!std::isnan(dist_a) || a < b);
}

/// Squared Euclidean distance from training row `row` to `query` over `d`
/// features: diff*diff summed in feature order. Every KNN component computes
/// distances with this one chain, so their rankings agree bit for bit. The
/// library builds with FMA contraction off (ml/CMakeLists.txt), so that no
/// copy of the chain fuses diff*diff into the sum and rounds differently.
inline double SquaredDistance(const double* row, const double* query,
                              size_t d) {
  double acc = 0.0;
  for (size_t c = 0; c < d; ++c) {
    const double diff = row[c] - query[c];
    acc += diff * diff;
  }
  return acc;
}

/// Queries whose distances one pass of NearestOrder computes together,
/// reading each training row once for all of them.
constexpr size_t kPassQueries = 4;

/// The O(n) buffers of NearestOrder over an n-row training set, allocated
/// once and reused by every pass a task runs. One per task.
struct RankScratch {
  explicit RankScratch(size_t n);

  std::vector<double> dist;       ///< kPassQueries columns of n distances.
  std::vector<uint64_t> entries;  ///< (sort key << 32) | training index.
  std::vector<uint64_t> spare;    ///< The radix passes' other buffer.
};

/// One query's training rows, nearest first, as NearestOrder left them in
/// its RankScratch: valid until that scratch orders the next query.
struct NearestRows {
  const uint64_t* entries;  ///< Training row index in the low 32 bits.
  size_t count;
  const double* dist;  ///< The query's SquaredDistance, by training row.

  size_t size() const { return count; }
  size_t operator[](size_t pos) const {
    return static_cast<uint32_t>(entries[pos]);
  }
};

/// The exact full order, one of the two orders every KNN consumer ranks
/// training rows by: every row of `train` (the one `scratch` was sized for)
/// in NearerThan order of its SquaredDistance to `query`, which must have
/// one value per column. Equal to a std::sort under NearerThan, by an exact
/// radix argsort. The poisoning radii call it.
NearestRows NearestOrder(const Matrix& train, std::span<const double> query,
                         RankScratch* scratch);

/// The same order for each of rows [first, first + count) of `queries`
/// (one value per column of `train`), kPassQueries queries per distance
/// pass: calls visit(q, rows) once per query, in order, with q the row of
/// `queries` and `rows` valid during that call only. Each distance is
/// SquaredDistance's, bit for bit (a NaN only as NaN: which operand's sign
/// and payload a sum keeps is the compiler's choice). The rank build,
/// KNN-Shapley (and through it datascope) and SoftKnnUtility call it.
void NearestOrder(const Matrix& train, const Matrix& queries, size_t first,
                  size_t count, RankScratch* scratch,
                  const std::function<void(size_t, NearestRows)>& visit);

/// The top-k order: reorders `rows`, distinct indices into `dist`, to their
/// min(k, rows->size()) nearest in NearerThan order, nearest first, and
/// drops the rest. KnnClassifier::Neighbors, DecrementalKnn, the certain-KNN
/// vote and the KNN imputer call it on a distance column they filled.
void KeepNearest(std::span<const double> dist, size_t k,
                 std::vector<size_t>* rows);

/// K-nearest-neighbors classifier with Euclidean distance and majority vote
/// (ties broken toward the smaller class id, which keeps behavior
/// deterministic).
///
/// KNN plays a double role in this library: it is both a baseline model and
/// the proxy model that makes Shapley-based data importance tractable
/// (`KnnShapley` in the importance module uses the same distance ordering).
class KnnClassifier : public Classifier {
 public:
  /// `k` must be >= 1.
  explicit KnnClassifier(size_t k = 5);

  Status Fit(const MlDataset& data) override;
  Status FitWithClasses(const MlDataset& data, int num_classes) override;

  /// Zero-copy fit: borrows the parent dataset and the coalition indices
  /// instead of copying the rows. Predictions are bit-identical to a fit on
  /// view.Materialize() (distances, tie-breaks and labels all follow the view
  /// order). The parent dataset must outlive this model's use.
  Status FitView(const MlDatasetView& view, int num_classes) override;

  /// KNN supports exact incremental coalition scoring. The context holds a
  /// train-major matrix of ranks: entry (i, e) is training row i's position
  /// in evaluation point e's NearerThan order, as `uint16_t` when there are
  /// at most 65,535 training rows and `uint32_t` above, and each point's
  /// k + 1 nearest rows, from which NumCorrectWithout scores the full
  /// training set and every coalition one row short of it. From
  /// 64 (k + 1) training rows up it also keeps each point's first n / 64
  /// rows, inverted into one near list per training row. It is built once,
  /// in blocks of evaluation points through `parallel` when given, from
  /// NearestOrder's passes. Scorers keep per-evaluation-point k-nearest
  /// windows keyed by rank in flat structure-of-arrays buffers with a
  /// vectorizable candidate-mask pass, which gives way to a walk of the
  /// added row's near list once no window's k-th rank exceeds n / 64, and
  /// count correct predictions as they flip. Bit-identical to the
  /// cold FitWithClasses + Predict path, so the context ReplacesColdFit.
  Result<std::shared_ptr<const CoalitionScorerContext>>
  NewCoalitionScorerContext(const MlDataset& train, const MlDataset& eval,
                            int num_classes,
                            const ParallelRunner& parallel = {}) const override;

  std::vector<int> Predict(const Matrix& features) const override;
  Matrix PredictProba(const Matrix& features) const override;
  int num_classes() const override { return num_classes_; }
  std::unique_ptr<Classifier> Clone() const override;
  std::string name() const override;

  size_t k() const { return k_; }

  /// Indices of the (up to) `k` nearest training rows to `query`, in
  /// NearerThan order (KeepNearest over every row). Predictions vote over
  /// them, and CheckLabelErrors compares each row with its neighbors.
  /// Precondition: fitted, and `query` has one value per feature.
  std::vector<size_t> Neighbors(std::span<const double> query, size_t k) const;
  std::vector<size_t> Neighbors(const std::vector<double>& query,
                                size_t k) const {
    return Neighbors(std::span<const double>(query), k);
  }

 private:
  // Training-row accessors that hide whether the model owns its rows (train_)
  // or borrows them from a view parent (view_parent_ + view_indices_).
  size_t TrainSize() const {
    return view_parent_ ? view_indices_.size() : train_.size();
  }
  size_t TrainCols() const {
    return view_parent_ ? view_parent_->features.cols()
                        : train_.features.cols();
  }
  const double* TrainRowPtr(size_t i) const {
    return view_parent_ ? view_parent_->features.RowPtr(view_indices_[i])
                        : train_.features.RowPtr(i);
  }
  int TrainLabel(size_t i) const {
    return view_parent_ ? view_parent_->labels[view_indices_[i]]
                        : train_.labels[i];
  }

  size_t k_;
  MlDataset train_;
  const MlDataset* view_parent_ = nullptr;  ///< Borrowed parent when FitView.
  std::vector<size_t> view_indices_;
  int num_classes_ = 0;
  bool fitted_ = false;
};

}  // namespace nde

#endif  // NDE_ML_KNN_H_
