#include "ml/knn.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <type_traits>

#include "common/arena.h"
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

class KnnCoalitionContext;

/// The reference row-wise kernel (PR 3), kept as the comparison point for
/// BM_KnnKernel and the bit-identity sweep in determinism_test: the SoA
/// kernel below must produce byte-identical windows and predictions.
///
/// Maintains, per evaluation point, a sorted window of the (up to) k nearest
/// coalition rows keyed by (distance, parent index). Inserting in any order
/// yields the same window as the fitted classifier's partial_sort over the
/// sorted coalition, and the integer class-count argmax below matches
/// PredictProba's weighted argmax (constant positive weight, strict `>`
/// keeping the smaller class id) — so Predict() is bit-identical to the cold
/// path, as CoalitionScorer requires.
class KnnCoalitionScorer : public CoalitionScorer {
 public:
  explicit KnnCoalitionScorer(const KnnCoalitionContext* context);

  void Add(size_t train_index) override;
  const std::vector<int>& Predict() override;

 private:
  const KnnCoalitionContext* context_;
  size_t num_eval_;
  size_t k_;
  std::vector<double> top_dist_;  ///< num_eval x k windows, row-major.
  std::vector<size_t> top_idx_;
  std::vector<size_t> counts_;  ///< Occupied window slots per eval point.
  std::vector<size_t> class_counts_;
  std::vector<int> predictions_;
};

class KnnCoalitionContext : public CoalitionScorerContext {
 public:
  /// Allocates the distance matrix; FillRows computes it.
  KnnCoalitionContext(const MlDataset& train, const Matrix& eval_features,
                      size_t k, int num_classes)
      : labels_(&train.labels),
        eval_features_(&eval_features),
        k_(k),
        num_classes_(num_classes),
        distances_(train.size(), eval_features.rows()) {}

  /// Computes distance rows [begin, end). Each row depends only on its own
  /// training row, so any block split yields the same matrix.
  void FillRows(const Matrix& train_features, size_t begin, size_t end) {
    const Matrix& eval_features = *eval_features_;
    size_t d = train_features.cols();
    for (size_t i = begin; i < end; ++i) {
      const double* row = train_features.RowPtr(i);
      for (size_t e = 0; e < eval_features.rows(); ++e) {
        const double* query = eval_features.RowPtr(e);
        double acc = 0.0;
        for (size_t c = 0; c < d; ++c) {
          double diff = row[c] - query[c];
          acc += diff * diff;
        }
        distances_(i, e) = acc;
      }
    }
  }

  std::unique_ptr<CoalitionScorer> NewScorer(Arena* arena) const override {
    (void)arena;  // The reference kernel keeps plain vector storage.
    return std::make_unique<KnnCoalitionScorer>(this);
  }

  bool ReplacesColdFit() const override { return true; }

  /// Squared distance from training row `i` to evaluation row `e`; row-major
  /// in `i`, so a scorer's Add(i) streams one contiguous row.
  double distance(size_t i, size_t e) const { return distances_(i, e); }
  int label(size_t i) const { return (*labels_)[i]; }
  size_t num_eval() const { return distances_.cols(); }
  size_t k() const { return k_; }
  int num_classes() const { return num_classes_; }

 private:
  const std::vector<int>* labels_;
  const Matrix* eval_features_;  ///< Borrowed; read by FillRows only.
  size_t k_;
  int num_classes_;
  Matrix distances_;
};

KnnCoalitionScorer::KnnCoalitionScorer(const KnnCoalitionContext* context)
    : context_(context),
      num_eval_(context->num_eval()),
      k_(context->k()),
      top_dist_(num_eval_ * k_, 0.0),
      top_idx_(num_eval_ * k_, 0),
      counts_(num_eval_, 0),
      class_counts_(static_cast<size_t>(context->num_classes()), 0),
      predictions_(num_eval_, 0) {}

void KnnCoalitionScorer::Add(size_t train_index) {
  for (size_t e = 0; e < num_eval_; ++e) {
    double dist = context_->distance(train_index, e);
    double* window_dist = &top_dist_[e * k_];
    size_t* window_idx = &top_idx_[e * k_];
    size_t count = counts_[e];
    // Insertion position under the (distance, parent index) order. Parent
    // indices are unique, so the key is a strict total order.
    size_t pos = count;
    while (pos > 0 && (dist < window_dist[pos - 1] ||
                       (dist == window_dist[pos - 1] &&
                        train_index < window_idx[pos - 1]))) {
      --pos;
    }
    if (pos >= k_) continue;  // Farther than every kept neighbor.
    size_t new_count = std::min(count + 1, k_);
    for (size_t j = new_count; j-- > pos + 1;) {
      window_dist[j] = window_dist[j - 1];
      window_idx[j] = window_idx[j - 1];
    }
    window_dist[pos] = dist;
    window_idx[pos] = train_index;
    counts_[e] = new_count;
  }
}

const std::vector<int>& KnnCoalitionScorer::Predict() {
  int num_classes = context_->num_classes();
  for (size_t e = 0; e < num_eval_; ++e) {
    std::fill(class_counts_.begin(), class_counts_.end(), size_t{0});
    const size_t* window_idx = &top_idx_[e * k_];
    for (size_t j = 0; j < counts_[e]; ++j) {
      ++class_counts_[static_cast<size_t>(context_->label(window_idx[j]))];
    }
    int best = 0;
    for (int c = 1; c < num_classes; ++c) {
      if (class_counts_[static_cast<size_t>(c)] >
          class_counts_[static_cast<size_t>(best)]) {
        best = c;
      }
    }
    predictions_[e] = best;
  }
  return predictions_;
}

// ---------------------------------------------------------------------------
// SoA kernel: the same window algebra restructured around flat
// structure-of-arrays buffers so the hot loops stay contiguous and
// branch-light.
//
//   - Distances live in one train-major Dist array; Add(i) streams exactly
//     one cache-resident row.
//   - A per-eval-point cutoff array (the current k-th distance, +inf while
//     the window is underfull) turns the common no-op case into a
//     vectorizable compare over the distance row; only evaluation points
//     whose window actually changes take the scalar insertion path.
//   - Class counts and the argmax prediction are maintained incrementally on
//     insertion instead of being recounted for every window on every
//     Predict(), so Predict() is a pointer return.
//
// For Dist = double the arithmetic is identical to the reference kernel
// operation for operation (same distance accumulation order, same
// (distance, parent index) window order, same strict-`>` argmax), so results
// are bit-identical. Dist = float is the opt-in approximate float32 path:
// half the memory traffic, twice the SIMD lanes, different bits.
// ---------------------------------------------------------------------------

template <typename Dist>
class KnnSoaContext;

template <typename Dist>
class KnnSoaScorer final : public CoalitionScorer {
 public:
  KnnSoaScorer(const KnnSoaContext<Dist>* context, Arena* arena);

  void Add(size_t train_index) override;
  const std::vector<int>& Predict() override { return predictions_; }

 private:
  void Insert(size_t e, uint32_t train_index, Dist dist);

  const KnnSoaContext<Dist>* context_;
  size_t num_eval_;
  size_t k_;
  int num_classes_;
  // Flat SoA state, carved out of one block (arena or owned_):
  Dist* cutoff_;           ///< num_eval; +inf while the window is underfull.
  Dist* window_dist_;      ///< num_eval x k, row-major.
  uint32_t* window_idx_;   ///< num_eval x k parent indices.
  uint32_t* counts_;       ///< Occupied slots per eval point.
  uint32_t* class_counts_; ///< num_eval x num_classes.
  uint8_t* mask_;          ///< Per-Add candidate mask scratch.
  std::vector<int> predictions_;  ///< Maintained incrementally on Insert.
  std::vector<char> owned_;       ///< Backing block when no arena is given.
};

template <typename Dist>
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
        distances_(std::make_unique_for_overwrite<Dist[]>(
            train.size() * eval_features.rows())) {
    NDE_CHECK_LT(train.size(), std::numeric_limits<uint32_t>::max());
    size_t m = num_eval_;
    size_t d = train.features.cols();
    // Transposed (feature-major) evaluation features: the accumulation loop
    // in FillRows then runs contiguously over evaluation points.
    // Interchanging the (e, c) loops does not touch any per-element
    // accumulation chain — each distance still sums diff*diff over features
    // in index order — so the double path stays bit-identical to the
    // reference kernel and to KnnClassifier::Neighbors.
    for (size_t e = 0; e < m; ++e) {
      const double* query = eval_features.RowPtr(e);
      for (size_t c = 0; c < d; ++c) {
        eval_t_[c * m + e] = static_cast<Dist>(query[c]);
      }
    }
  }

  /// Computes distance rows [begin, end). Each row depends only on its own
  /// training row, so any block split yields the same matrix.
  void FillRows(const Matrix& train_features, size_t begin, size_t end) {
    size_t m = num_eval_;
    size_t d = train_features.cols();
    for (size_t i = begin; i < end; ++i) {
      const double* row = train_features.RowPtr(i);
      Dist* out = distances_.get() + i * m;
      std::fill(out, out + m, Dist{0});
      for (size_t c = 0; c < d; ++c) {
        const Dist value = static_cast<Dist>(row[c]);
        const Dist* queries = eval_t_.data() + c * m;
        for (size_t e = 0; e < m; ++e) {
          Dist diff = value - queries[e];
          out[e] += diff * diff;
        }
      }
    }
  }

  std::unique_ptr<CoalitionScorer> NewScorer(Arena* arena) const override {
    return std::make_unique<KnnSoaScorer<Dist>>(this, arena);
  }

  /// float32 distances are approximate, so only the double kernel may
  /// answer for the cold fit.
  bool ReplacesColdFit() const override {
    return std::is_same_v<Dist, double>;
  }

  /// Contiguous distances from training row `i` to every evaluation row.
  const Dist* DistanceRow(size_t i) const {
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
  std::vector<Dist> eval_t_;  ///< d x num_eval, feature-major; FillRows only.
  std::unique_ptr<Dist[]> distances_;  ///< n x num_eval, train-major.
};

template <typename Dist>
KnnSoaScorer<Dist>::KnnSoaScorer(const KnnSoaContext<Dist>* context,
                                 Arena* arena)
    : context_(context),
      num_eval_(context->num_eval()),
      k_(context->k()),
      num_classes_(context->num_classes()),
      predictions_(num_eval_, 0) {
  const size_t classes = static_cast<size_t>(num_classes_);
  // One block for all SoA arrays, widest-aligned field first.
  const size_t cutoff_bytes = num_eval_ * sizeof(Dist);
  const size_t window_dist_bytes = num_eval_ * k_ * sizeof(Dist);
  const size_t window_idx_bytes = num_eval_ * k_ * sizeof(uint32_t);
  const size_t counts_bytes = num_eval_ * sizeof(uint32_t);
  const size_t class_counts_bytes = num_eval_ * classes * sizeof(uint32_t);
  const size_t mask_bytes = num_eval_ * sizeof(uint8_t);
  const size_t total = cutoff_bytes + window_dist_bytes + window_idx_bytes +
                       counts_bytes + class_counts_bytes + mask_bytes;
  char* block;
  if (arena != nullptr) {
    block = static_cast<char*>(arena->Allocate(total, alignof(double)));
  } else {
    owned_.resize(total);
    block = owned_.data();
  }
  cutoff_ = reinterpret_cast<Dist*>(block);
  window_dist_ = reinterpret_cast<Dist*>(block + cutoff_bytes);
  window_idx_ =
      reinterpret_cast<uint32_t*>(block + cutoff_bytes + window_dist_bytes);
  counts_ = reinterpret_cast<uint32_t*>(block + cutoff_bytes +
                                        window_dist_bytes + window_idx_bytes);
  class_counts_ = counts_ + num_eval_;
  mask_ = reinterpret_cast<uint8_t*>(block + total - mask_bytes);
  std::fill(cutoff_, cutoff_ + num_eval_,
            std::numeric_limits<Dist>::infinity());
  std::fill(counts_, counts_ + num_eval_, uint32_t{0});
  std::fill(class_counts_, class_counts_ + num_eval_ * classes, uint32_t{0});
}

template <typename Dist>
void KnnSoaScorer<Dist>::Add(size_t train_index) {
  const Dist* dist_row = context_->DistanceRow(train_index);
  const Dist* cutoff = cutoff_;
  uint8_t* mask = mask_;
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

template <typename Dist>
void KnnSoaScorer<Dist>::Insert(size_t e, uint32_t train_index, Dist dist) {
  Dist* wd = window_dist_ + e * k_;
  uint32_t* wi = window_idx_ + e * k_;
  const size_t count = counts_[e];
  // Insertion position under the strict (distance, parent index) total
  // order — identical to the reference kernel's walk.
  size_t pos = count;
  while (pos > 0 && (dist < wd[pos - 1] ||
                     (dist == wd[pos - 1] && train_index < wi[pos - 1]))) {
    --pos;
  }
  if (pos >= k_) return;  // Equal-distance, larger-index: not admitted.
  const size_t new_count = std::min(count + 1, k_);
  uint32_t* class_counts = class_counts_ + e * static_cast<size_t>(num_classes_);
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
  // Re-arg-max the counts — same strict `>` keeping the smaller class id as
  // the reference kernel and the cold PredictProba argmax.
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

/// Fills `context`'s distance matrix in row blocks through `parallel`
/// (inline when empty) and hands the context out once every row is written.
template <typename Context>
Result<std::shared_ptr<const CoalitionScorerContext>> FillDistances(
    std::shared_ptr<Context> context, const Matrix& train_features,
    const ParallelRunner& parallel) {
  const size_t rows = train_features.rows();
  const size_t blocks = std::min(rows, kDistanceBlocks);
  auto fill_block = [&](size_t b) {
    context->FillRows(train_features, b * rows / blocks,
                      (b + 1) * rows / blocks);
  };
  if (parallel) {
    NDE_RETURN_IF_ERROR(parallel(blocks, fill_block));
  } else {
    for (size_t b = 0; b < blocks; ++b) fill_block(b);
  }
  return std::shared_ptr<const CoalitionScorerContext>(std::move(context));
}

}  // namespace

Result<std::shared_ptr<const CoalitionScorerContext>>
KnnClassifier::NewCoalitionScorerContext(
    const MlDataset& train, const Matrix& eval_features, int num_classes,
    const CoalitionScorerOptions& options) const {
  if (train.size() == 0 || eval_features.rows() == 0) {
    return std::shared_ptr<const CoalitionScorerContext>();
  }
  if (num_classes < train.NumClasses()) num_classes = train.NumClasses();
  num_classes = std::max(num_classes, 1);
  if (options.float32) {
    return FillDistances(std::make_shared<KnnSoaContext<float>>(
                             train, eval_features, k_, num_classes),
                         train.features, options.parallel);
  }
  if (options.soa_kernels) {
    return FillDistances(std::make_shared<KnnSoaContext<double>>(
                             train, eval_features, k_, num_classes),
                         train.features, options.parallel);
  }
  return FillDistances(std::make_shared<KnnCoalitionContext>(
                           train, eval_features, k_, num_classes),
                       train.features, options.parallel);
}

std::unique_ptr<Classifier> KnnClassifier::Clone() const {
  return std::make_unique<KnnClassifier>(k_);
}

std::string KnnClassifier::name() const {
  return StrFormat("knn(k=%zu)", k_);
}

}  // namespace nde
