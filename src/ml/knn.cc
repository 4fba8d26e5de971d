#include "ml/knn.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "common/string_util.h"

namespace nde {

KnnClassifier::KnnClassifier(size_t k) : k_(k) { NDE_CHECK_GE(k, 1u); }

Status KnnClassifier::Fit(const MlDataset& data) {
  return FitWithClasses(data, data.NumClasses());
}

Status KnnClassifier::FitWithClasses(const MlDataset& data, int num_classes) {
  NDE_RETURN_IF_ERROR(data.Validate());
  if (data.size() == 0) {
    return Status::InvalidArgument("cannot fit KNN on an empty dataset");
  }
  if (num_classes < data.NumClasses()) {
    return Status::InvalidArgument("num_classes below max label");
  }
  train_ = data;
  view_parent_ = nullptr;
  view_indices_.clear();
  num_classes_ = std::max(num_classes, 1);
  fitted_ = true;
  return Status::OK();
}

Status KnnClassifier::FitView(const MlDatasetView& view, int num_classes) {
  if (view.size() == 0) {
    return Status::InvalidArgument("cannot fit KNN on an empty dataset");
  }
  if (num_classes < view.NumClasses()) {
    return Status::InvalidArgument("num_classes below max label");
  }
  train_ = MlDataset{};  // Drop any previously owned rows.
  view_parent_ = &view.parent();
  view_indices_.assign(view.indices().begin(), view.indices().end());
  num_classes_ = std::max(num_classes, 1);
  fitted_ = true;
  return Status::OK();
}

std::vector<size_t> KnnClassifier::Neighbors(std::span<const double> query,
                                             size_t k) const {
  NDE_CHECK(fitted_) << "KNN not fitted";
  size_t n = TrainSize();
  size_t d = TrainCols();
  std::vector<double> dist(n);
  for (size_t i = 0; i < n; ++i) {
    const double* row = TrainRowPtr(i);
    double acc = 0.0;
    for (size_t c = 0; c < d; ++c) {
      double diff = row[c] - query[c];
      acc += diff * diff;
    }
    dist[i] = acc;
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  size_t take = std::min(k, n);
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(take),
                    order.end(), [&dist](size_t a, size_t b) {
                      if (dist[a] != dist[b]) return dist[a] < dist[b];
                      return a < b;  // Stable tie-break for determinism.
                    });
  order.resize(take);
  return order;
}

std::vector<int> KnnClassifier::Predict(const Matrix& features) const {
  std::vector<int> out(features.rows());
  Matrix proba = PredictProba(features);
  for (size_t r = 0; r < features.rows(); ++r) {
    int best = 0;
    for (int c = 1; c < num_classes_; ++c) {
      if (proba(r, static_cast<size_t>(c)) >
          proba(r, static_cast<size_t>(best))) {
        best = c;
      }
    }
    out[r] = best;
  }
  return out;
}

Matrix KnnClassifier::PredictProba(const Matrix& features) const {
  NDE_CHECK(fitted_) << "KNN not fitted";
  NDE_CHECK_EQ(features.cols(), TrainCols());
  Matrix proba(features.rows(), static_cast<size_t>(num_classes_));
  for (size_t r = 0; r < features.rows(); ++r) {
    std::vector<size_t> neighbors = Neighbors(features.RowSpan(r), k_);
    double weight = 1.0 / static_cast<double>(neighbors.size());
    for (size_t idx : neighbors) {
      proba(r, static_cast<size_t>(TrainLabel(idx))) += weight;
    }
  }
  return proba;
}

namespace {

// ---------------------------------------------------------------------------
// The exact coalition-scoring kernel, laid out as flat structure-of-arrays
// buffers so the hot loops stay contiguous and branch-light.
//
//   - Distances live in one train-major array; Add(i) streams exactly one
//     cache-resident row.
//   - A per-eval-point cutoff array (the current k-th distance, +inf while
//     the window is underfull) turns the common no-op case into a
//     vectorizable compare over the distance row; only evaluation points
//     whose window actually changes take the scalar insertion path.
//   - Class counts and the argmax prediction are maintained incrementally on
//     insertion instead of being recounted for every window on every
//     Predict(), so Predict() is a pointer return.
//
// Each evaluation point keeps a sorted window of the (up to) k nearest
// coalition rows keyed by (distance, parent index). Distances accumulate
// diff*diff over features in index order, exactly as KnnClassifier::Neighbors
// does, and inserting in any order yields the same window as the fitted
// classifier's partial_sort over the sorted coalition. The class-count argmax
// (strict `>` keeping the smaller class id) matches PredictProba's weighted
// argmax under a constant positive weight — so Predict() is bit-identical to
// the cold path, as CoalitionScorer requires.
// ---------------------------------------------------------------------------

class KnnSoaContext;

class KnnSoaScorer final : public CoalitionScorer {
 public:
  explicit KnnSoaScorer(const KnnSoaContext* context);

  void Add(size_t train_index) override;
  const std::vector<int>& Predict() override { return predictions_; }

 private:
  void Insert(size_t e, uint32_t train_index, double dist);

  const KnnSoaContext* context_;
  size_t num_eval_;
  size_t k_;
  int num_classes_;
  // Flat SoA state:
  std::vector<double> cutoff_;          ///< num_eval; +inf while underfull.
  std::vector<double> window_dist_;     ///< num_eval x k, row-major.
  std::vector<uint32_t> window_idx_;    ///< num_eval x k parent indices.
  std::vector<uint32_t> counts_;        ///< Occupied slots per eval point.
  std::vector<uint32_t> class_counts_;  ///< num_eval x num_classes.
  std::vector<uint8_t> mask_;           ///< Per-Add candidate mask scratch.
  std::vector<int> predictions_;        ///< Maintained incrementally on Insert.
};

class KnnSoaContext final : public CoalitionScorerContext {
 public:
  /// Transposes the evaluation features and allocates the distance matrix
  /// uninitialized, so its pages are first touched by FillRows — on the
  /// build's worker threads when it fans out.
  KnnSoaContext(const MlDataset& train, const Matrix& eval_features, size_t k,
                int num_classes)
      : labels_(train.labels),
        k_(k),
        num_classes_(num_classes),
        num_eval_(eval_features.rows()),
        eval_t_(train.features.cols() * eval_features.rows()),
        distances_(std::make_unique_for_overwrite<double[]>(
            train.size() * eval_features.rows())) {
    NDE_CHECK_LT(train.size(), std::numeric_limits<uint32_t>::max());
    size_t m = num_eval_;
    size_t d = train.features.cols();
    // Transposed (feature-major) evaluation features: the accumulation loop
    // in FillRows then runs contiguously over evaluation points.
    // Interchanging the (e, c) loops does not touch any per-element
    // accumulation chain — each distance still sums diff*diff over features
    // in index order — so the matrix stays bit-identical to the distances
    // KnnClassifier::Neighbors computes.
    for (size_t e = 0; e < m; ++e) {
      const double* query = eval_features.RowPtr(e);
      for (size_t c = 0; c < d; ++c) eval_t_[c * m + e] = query[c];
    }
  }

  /// Computes distance rows [begin, end). Each row depends only on its own
  /// training row, so any block split yields the same matrix.
  void FillRows(const Matrix& train_features, size_t begin, size_t end) {
    size_t m = num_eval_;
    size_t d = train_features.cols();
    for (size_t i = begin; i < end; ++i) {
      const double* row = train_features.RowPtr(i);
      double* out = distances_.get() + i * m;
      std::fill(out, out + m, 0.0);
      for (size_t c = 0; c < d; ++c) {
        const double value = row[c];
        const double* queries = eval_t_.data() + c * m;
        for (size_t e = 0; e < m; ++e) {
          double diff = value - queries[e];
          out[e] += diff * diff;
        }
      }
    }
  }

  std::unique_ptr<CoalitionScorer> NewScorer() const override {
    return std::make_unique<KnnSoaScorer>(this);
  }

  bool ReplacesColdFit() const override { return true; }

  /// Contiguous distances from training row `i` to every evaluation row.
  const double* DistanceRow(size_t i) const {
    return distances_.get() + i * num_eval_;
  }
  int label(size_t i) const { return labels_[i]; }
  size_t num_eval() const { return num_eval_; }
  size_t k() const { return k_; }
  int num_classes() const { return num_classes_; }

 private:
  std::vector<int> labels_;  ///< Owned copy: one indirection less in Insert.
  size_t k_;
  int num_classes_;
  size_t num_eval_;
  std::vector<double> eval_t_;  ///< d x num_eval, feature-major; FillRows only.
  std::unique_ptr<double[]> distances_;  ///< n x num_eval, train-major.
};

KnnSoaScorer::KnnSoaScorer(const KnnSoaContext* context)
    : context_(context),
      num_eval_(context->num_eval()),
      k_(context->k()),
      num_classes_(context->num_classes()),
      cutoff_(num_eval_, std::numeric_limits<double>::infinity()),
      window_dist_(num_eval_ * k_),
      window_idx_(num_eval_ * k_),
      counts_(num_eval_),
      class_counts_(num_eval_ * static_cast<size_t>(num_classes_)),
      mask_(num_eval_),
      predictions_(num_eval_, 0) {}

void KnnSoaScorer::Add(size_t train_index) {
  const double* dist_row = context_->DistanceRow(train_index);
  const double* cutoff = cutoff_.data();
  uint8_t* mask = mask_.data();
  const size_t m = num_eval_;
  // Pass 1, branch-light and auto-vectorizable: a row entering the window
  // must satisfy dist <= cutoff (underfull windows keep cutoff at +inf, and
  // dist == cutoff can still displace a larger parent index). Once windows
  // are warm this filters out nearly every evaluation point.
  for (size_t e = 0; e < m; ++e) mask[e] = dist_row[e] <= cutoff[e];
  // Pass 2: scalar insertion only where the mask fired, in evaluation-point
  // order. Warm windows leave nearly every mask byte 0, so all-zero 8-byte
  // words are skipped with one test. A byte-per-branch loop here ran 10-20%
  // slower whenever the linker happened to place it across a 32-byte fetch
  // boundary (DESIGN.md §14).
  const uint32_t index32 = static_cast<uint32_t>(train_index);
  size_t e = 0;
  for (; e + 8 <= m; e += 8) {
    uint64_t word;
    std::memcpy(&word, mask + e, sizeof(word));
    if (word == 0) continue;
    for (size_t j = e; j < e + 8; ++j) {
      if (mask[j]) Insert(j, index32, dist_row[j]);
    }
  }
  for (; e < m; ++e) {
    if (mask[e]) Insert(e, index32, dist_row[e]);
  }
}

void KnnSoaScorer::Insert(size_t e, uint32_t train_index, double dist) {
  double* wd = window_dist_.data() + e * k_;
  uint32_t* wi = window_idx_.data() + e * k_;
  const size_t count = counts_[e];
  // Insertion position under the (distance, parent index) order. Parent
  // indices are unique, so the key is a strict total order.
  size_t pos = count;
  while (pos > 0 && (dist < wd[pos - 1] ||
                     (dist == wd[pos - 1] && train_index < wi[pos - 1]))) {
    --pos;
  }
  if (pos >= k_) return;  // Equal-distance, larger-index: not admitted.
  const size_t new_count = std::min(count + 1, k_);
  uint32_t* class_counts =
      class_counts_.data() + e * static_cast<size_t>(num_classes_);
  if (count == k_) {
    // Window full: the (distance, index)-largest entry falls out.
    --class_counts[static_cast<size_t>(context_->label(wi[k_ - 1]))];
  }
  for (size_t j = new_count; j-- > pos + 1;) {
    wd[j] = wd[j - 1];
    wi[j] = wi[j - 1];
  }
  wd[pos] = dist;
  wi[pos] = train_index;
  counts_[e] = static_cast<uint32_t>(new_count);
  if (new_count == k_) cutoff_[e] = wd[k_ - 1];
  ++class_counts[static_cast<size_t>(context_->label(train_index))];
  // Re-arg-max the counts — the same strict `>` keeping the smaller class id
  // as the cold PredictProba argmax.
  int best = 0;
  for (int c = 1; c < num_classes_; ++c) {
    if (class_counts[static_cast<size_t>(c)] >
        class_counts[static_cast<size_t>(best)]) {
      best = c;
    }
  }
  predictions_[e] = best;
}

/// The distance precompute fans out as this many row blocks (fewer when
/// there are fewer training rows): enough to balance any realistic worker
/// count, few enough that claiming a block costs nothing next to filling it.
constexpr size_t kDistanceBlocks = 64;

}  // namespace

Result<std::shared_ptr<const CoalitionScorerContext>>
KnnClassifier::NewCoalitionScorerContext(const MlDataset& train,
                                         const Matrix& eval_features,
                                         int num_classes,
                                         const ParallelRunner& parallel) const {
  if (train.size() == 0 || eval_features.rows() == 0) {
    return std::shared_ptr<const CoalitionScorerContext>();
  }
  if (num_classes < train.NumClasses()) num_classes = train.NumClasses();
  auto context = std::make_shared<KnnSoaContext>(train, eval_features, k_,
                                                 std::max(num_classes, 1));
  // Fill the distance matrix in row blocks through `parallel` (inline when
  // empty) and hand the context out once every row is written.
  const size_t rows = train.size();
  const size_t blocks = std::min(rows, kDistanceBlocks);
  auto fill_block = [&](size_t b) {
    context->FillRows(train.features, b * rows / blocks,
                      (b + 1) * rows / blocks);
  };
  if (parallel) {
    NDE_RETURN_IF_ERROR(parallel(blocks, fill_block));
  } else {
    for (size_t b = 0; b < blocks; ++b) fill_block(b);
  }
  return std::shared_ptr<const CoalitionScorerContext>(std::move(context));
}

std::unique_ptr<Classifier> KnnClassifier::Clone() const {
  return std::make_unique<KnnClassifier>(k_);
}

std::string KnnClassifier::name() const {
  return StrFormat("knn(k=%zu)", k_);
}

}  // namespace nde
