#include "ml/knn.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "common/string_util.h"

namespace nde {

namespace {

/// Radix key of a distance: the bits of its float rounding. Rounding is
/// monotone and a distance is a sum of squares (never negative, never -0.0),
/// so keys never invert two distances, though distinct distances may share
/// one. Every NaN gets the key one above +inf's.
constexpr uint32_t kNanKey = 0x7F800001u;

uint32_t RadixKey(double dist) {
  if (std::isnan(dist)) return kNanKey;
  return std::bit_cast<uint32_t>(static_cast<float>(dist));
}

}  // namespace

// Radix digits have 11 bits from 2,048 training rows up; below that, clearing
// and summing 2,048 buckets a pass would cost more than moving the rows, so
// they have 8. Entries keep the row index in their low 32 bits.
RankScratch::RankScratch(size_t n)
    : digit_bits(n < 2048 ? 8 : 11),
      dist(n),
      entries(n),
      spare(n),
      counts(size_t{2} << digit_bits) {
  NDE_CHECK_LE(n, size_t{std::numeric_limits<uint32_t>::max()});
}

// The distance pass fills the scratch's column; then an exact argsort. The
// sort key is RadixKey minus this query's smallest RadixKey, shifted right
// until it fits two radix digits: still monotone in the distance. A stable
// two-pass LSD radix sort from index order orders the entries by (key,
// index); then each run of equal keys is sorted exactly.
NearestRows NearestOrder(const Matrix& train, std::span<const double> query,
                         RankScratch* scratch) {
  const size_t n = train.rows();
  const size_t d = train.cols();
  NDE_CHECK_EQ(query.size(), d);
  NDE_CHECK_EQ(scratch->dist.size(), n);
  uint64_t* src = scratch->entries.data();
  if (n == 0) return {src, 0};
  double* dist = scratch->dist.data();
  for (size_t i = 0; i < n; ++i) {
    dist[i] = SquaredDistance(train.RowPtr(i), query.data(), d);
  }
  const int bits = scratch->digit_bits;
  const size_t buckets = size_t{1} << bits;
  uint32_t lo = std::numeric_limits<uint32_t>::max();
  uint32_t hi = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = RadixKey(dist[i]);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
    src[i] = (uint64_t{key} << 32) | i;
  }
  const int shift =
      std::max(0, static_cast<int>(std::bit_width(hi - lo)) - 2 * bits);
  uint32_t* counts = scratch->counts.data();
  std::fill(scratch->counts.begin(), scratch->counts.end(), 0u);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key =
        (static_cast<uint32_t>(src[i] >> 32) - lo) >> shift;
    src[i] = (uint64_t{key} << 32) | static_cast<uint32_t>(src[i]);
    ++counts[key & (buckets - 1)];
    ++counts[buckets + (key >> bits)];
  }
  uint64_t* dst = scratch->spare.data();
  for (int pass = 0; pass < 2; ++pass) {
    uint32_t* offsets = counts + static_cast<size_t>(pass) * buckets;
    const int digit_shift = 32 + pass * bits;
    // A digit every key shares would leave the order as it is.
    if (offsets[(src[0] >> digit_shift) & (buckets - 1)] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const uint32_t count = offsets[b];
      offsets[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i] >> digit_shift) & (buckets - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
  // Equal keys hold distances the key cannot tell apart (equal ones, ones
  // closer than its resolution, NaNs): order each run by NearerThan itself.
  auto nearer = [dist](uint64_t a, uint64_t b) {
    const uint32_t ia = static_cast<uint32_t>(a);
    const uint32_t ib = static_cast<uint32_t>(b);
    return NearerThan(dist[ia], ia, dist[ib], ib);
  };
  for (size_t begin = 0; begin < n;) {
    const uint64_t key = src[begin] >> 32;
    size_t end = begin + 1;
    while (end < n && (src[end] >> 32) == key) ++end;
    if (end - begin > 1) std::sort(src + begin, src + end, nearer);
    begin = end;
  }
  return {src, n};
}

void KeepNearest(std::span<const double> dist, size_t k,
                 std::vector<size_t>* rows) {
  const size_t take = std::min(k, rows->size());
  std::partial_sort(rows->begin(), rows->begin() + static_cast<ptrdiff_t>(take),
                    rows->end(), [dist](size_t a, size_t b) {
                      return NearerThan(dist[a], a, dist[b], b);
                    });
  rows->resize(take);
}

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
  NDE_CHECK_EQ(query.size(), d);
  std::vector<double> dist(n);
  for (size_t i = 0; i < n; ++i) {
    dist[i] = SquaredDistance(TrainRowPtr(i), query.data(), d);
  }
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), size_t{0});
  KeepNearest(dist, k, &rows);
  return rows;
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
//   - The context ranks every training row for every evaluation point and
//     stores the ranks train-major, 2 bytes an entry up to 65,535 training
//     rows: Add(i) streams exactly one contiguous row of ranks.
//   - A per-eval-point cutoff array (the window's k-th rank, the rank type's
//     maximum while the window is underfull) turns the common no-op case into
//     a vectorizable compare over the rank row; only evaluation points whose
//     window actually changes take the scalar insertion path.
//   - Class counts, the argmax prediction and the number of correct
//     predictions are maintained incrementally on insertion instead of being
//     recounted for every window on every Push, so Predict() is a pointer
//     return and NumCorrect() a field read.
//
// Each evaluation point keeps a sorted window of the (up to) k nearest
// coalition rows keyed by rank. Ranks are positions in NearestOrder, which
// follows NearerThan over SquaredDistance exactly as KnnClassifier::Neighbors'
// KeepNearest does, so inserting in any order yields the same window as the
// fitted classifier's top-k order over the coalition. The class-count
// argmax (strict `>` keeping the smaller class id) matches PredictProba's
// weighted argmax under a constant positive weight — so Predict() is
// bit-identical to the cold path, as CoalitionScorer requires.
// ---------------------------------------------------------------------------

/// Evaluation points whose ranks the build writes out together: one
/// contiguous write of 32 bytes per matrix row at 16-bit ranks, instead of
/// one scattered write per point.
constexpr size_t kGroupPoints = 16;

template <typename Rank>
class KnnSoaContext;

template <typename Rank>
class KnnSoaScorer final : public CoalitionScorer {
 public:
  explicit KnnSoaScorer(const KnnSoaContext<Rank>* context);

  void Add(size_t train_index) override;
  const std::vector<int>& Predict() override { return predictions_; }
  size_t NumCorrect() override { return num_correct_; }

 private:
  void Insert(size_t e, uint32_t train_index, Rank rank);

  const KnnSoaContext<Rank>* context_;
  size_t num_eval_;
  size_t k_;
  int num_classes_;
  // Flat SoA state:
  std::vector<Rank> cutoff_;            ///< num_eval; max() while underfull.
  std::vector<Rank> window_rank_;       ///< num_eval x k, ascending.
  std::vector<uint32_t> window_idx_;    ///< num_eval x k parent indices.
  std::vector<uint32_t> counts_;        ///< Occupied slots per eval point.
  std::vector<uint32_t> class_counts_;  ///< num_eval x num_classes.
  std::vector<uint8_t> mask_;           ///< Per-Add candidate mask scratch.
  std::vector<int> predictions_;        ///< Maintained incrementally on Insert.
  size_t num_correct_;                  ///< predictions_ matching the labels.
};

template <typename Rank>
class KnnSoaContext final : public CoalitionScorerContext {
 public:
  /// Allocates the rank matrix uninitialized, so its pages are first touched
  /// by RankPoints — on the build's worker threads when it fans out.
  KnnSoaContext(const MlDataset& train, const MlDataset& eval, size_t k,
                int num_classes)
      : labels_(train.labels),
        eval_labels_(eval.labels),
        k_(k),
        num_classes_(num_classes),
        num_eval_(eval.size()),
        ranks_(std::make_unique_for_overwrite<Rank[]>(train.size() *
                                                      eval.size())) {
    // Every rank, n - 1 at most, stays below the underfull cutoff.
    NDE_CHECK_LE(train.size(), size_t{std::numeric_limits<Rank>::max()});
  }

  /// Ranks every training row for evaluation points [begin, end) and writes
  /// their entries of the matrix. Each point's ranks depend only on that
  /// point, so any block split yields the same matrix.
  void RankPoints(const Matrix& train_features, const Matrix& eval_features,
                  size_t begin, size_t end) {
    const size_t n = train_features.rows();
    RankScratch scratch(n);
    // Point-major: each point of a group ranks into its own n entries.
    std::vector<Rank> group(std::min(kGroupPoints, end - begin) * n);
    for (size_t first = begin; first < end; first += kGroupPoints) {
      const size_t width = std::min(kGroupPoints, end - first);
      for (size_t g = 0; g < width; ++g) {
        NearestRows sorted = NearestOrder(
            train_features, eval_features.RowSpan(first + g), &scratch);
        Rank* point_ranks = group.data() + g * n;
        for (size_t pos = 0; pos < n; ++pos) {
          point_ranks[sorted[pos]] = static_cast<Rank>(pos);
        }
      }
      Rank* out = ranks_.get() + first;
      for (size_t i = 0; i < n; ++i) {
        for (size_t g = 0; g < width; ++g) {
          out[i * num_eval_ + g] = group[g * n + i];
        }
      }
    }
  }

  std::unique_ptr<CoalitionScorer> NewScorer() const override {
    return std::make_unique<KnnSoaScorer<Rank>>(this);
  }

  bool ReplacesColdFit() const override { return true; }

  /// Contiguous ranks of training row `i` for every evaluation point.
  const Rank* RankRow(size_t i) const { return ranks_.get() + i * num_eval_; }
  int label(size_t i) const { return labels_[i]; }
  const std::vector<int>& eval_labels() const { return eval_labels_; }
  size_t num_eval() const { return num_eval_; }
  size_t k() const { return k_; }
  int num_classes() const { return num_classes_; }

 private:
  std::vector<int> labels_;  ///< Owned copy: one indirection less in Insert.
  std::vector<int> eval_labels_;  ///< What NumCorrect counts against.
  size_t k_;
  int num_classes_;
  size_t num_eval_;
  std::unique_ptr<Rank[]> ranks_;  ///< n x num_eval, train-major.
};

template <typename Rank>
KnnSoaScorer<Rank>::KnnSoaScorer(const KnnSoaContext<Rank>* context)
    : context_(context),
      num_eval_(context->num_eval()),
      k_(context->k()),
      num_classes_(context->num_classes()),
      cutoff_(num_eval_, std::numeric_limits<Rank>::max()),
      window_rank_(num_eval_ * k_),
      window_idx_(num_eval_ * k_),
      counts_(num_eval_),
      class_counts_(num_eval_ * static_cast<size_t>(num_classes_)),
      mask_(num_eval_),
      predictions_(num_eval_, 0),
      num_correct_(static_cast<size_t>(std::count(
          context->eval_labels().begin(), context->eval_labels().end(), 0))) {}

template <typename Rank>
void KnnSoaScorer<Rank>::Add(size_t train_index) {
  const Rank* rank_row = context_->RankRow(train_index);
  const Rank* cutoff = cutoff_.data();
  uint8_t* mask = mask_.data();
  const size_t m = num_eval_;
  // Pass 1, branch-light and auto-vectorizable: a row enters a window iff
  // it ranks before the window's k-th row (every rank passes the underfull
  // cutoff). Once windows are warm this filters out nearly every evaluation
  // point.
  for (size_t e = 0; e < m; ++e) mask[e] = rank_row[e] < cutoff[e];
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
      if (mask[j]) Insert(j, index32, rank_row[j]);
    }
  }
  for (; e < m; ++e) {
    if (mask[e]) Insert(e, index32, rank_row[e]);
  }
}

template <typename Rank>
void KnnSoaScorer<Rank>::Insert(size_t e, uint32_t train_index, Rank rank) {
  Rank* wr = window_rank_.data() + e * k_;
  uint32_t* wi = window_idx_.data() + e * k_;
  const size_t count = counts_[e];
  // Insertion position: ranks are unique per evaluation point, and `rank`
  // passed the cutoff, so it lands inside the window.
  size_t pos = count;
  while (pos > 0 && rank < wr[pos - 1]) --pos;
  const size_t new_count = std::min(count + 1, k_);
  uint32_t* class_counts =
      class_counts_.data() + e * static_cast<size_t>(num_classes_);
  if (count == k_) {
    // Window full: the highest-ranked entry falls out.
    --class_counts[static_cast<size_t>(context_->label(wi[k_ - 1]))];
  }
  for (size_t j = new_count; j-- > pos + 1;) {
    wr[j] = wr[j - 1];
    wi[j] = wi[j - 1];
  }
  wr[pos] = rank;
  wi[pos] = train_index;
  counts_[e] = static_cast<uint32_t>(new_count);
  if (new_count == k_) cutoff_[e] = wr[k_ - 1];
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
  const int before = predictions_[e];
  if (best != before) {
    const int truth = context_->eval_labels()[e];
    if (before == truth) {
      --num_correct_;
    } else if (best == truth) {
      ++num_correct_;
    }
    predictions_[e] = best;
  }
}

/// The rank build fans out as this many blocks of evaluation points (fewer
/// when there are fewer points, down to one point a block): enough to balance
/// any realistic worker count, few enough that claiming a block costs nothing
/// next to ranking its points.
constexpr size_t kRankBlocks = 64;

template <typename Rank>
Result<std::shared_ptr<const CoalitionScorerContext>> BuildRankContext(
    const MlDataset& train, const MlDataset& eval, size_t k, int num_classes,
    const ParallelRunner& parallel) {
  auto context =
      std::make_shared<KnnSoaContext<Rank>>(train, eval, k, num_classes);
  // Rank the points block by block through `parallel` (inline when empty)
  // and hand the context out once every entry is written.
  const size_t points = eval.size();
  const size_t blocks = std::min(points, kRankBlocks);
  auto rank_block = [&](size_t b) {
    context->RankPoints(train.features, eval.features, b * points / blocks,
                        (b + 1) * points / blocks);
  };
  if (parallel) {
    NDE_RETURN_IF_ERROR(parallel(blocks, rank_block));
  } else {
    for (size_t b = 0; b < blocks; ++b) rank_block(b);
  }
  return std::shared_ptr<const CoalitionScorerContext>(std::move(context));
}

}  // namespace

Result<std::shared_ptr<const CoalitionScorerContext>>
KnnClassifier::NewCoalitionScorerContext(const MlDataset& train,
                                         const MlDataset& eval,
                                         int num_classes,
                                         const ParallelRunner& parallel) const {
  if (train.size() == 0 || eval.size() == 0) {
    return std::shared_ptr<const CoalitionScorerContext>();
  }
  NDE_CHECK_EQ(eval.features.rows(), eval.size());
  NDE_CHECK_EQ(eval.features.cols(), train.features.cols());
  if (num_classes < train.NumClasses()) num_classes = train.NumClasses();
  num_classes = std::max(num_classes, 1);
  // The narrowest rank type that holds every rank below its own maximum.
  if (train.size() <= std::numeric_limits<uint16_t>::max()) {
    return BuildRankContext<uint16_t>(train, eval, k_, num_classes, parallel);
  }
  return BuildRankContext<uint32_t>(train, eval, k_, num_classes, parallel);
}

std::unique_ptr<Classifier> KnnClassifier::Clone() const {
  return std::make_unique<KnnClassifier>(k_);
}

std::string KnnClassifier::name() const {
  return StrFormat("knn(k=%zu)", k_);
}

}  // namespace nde
