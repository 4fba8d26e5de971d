#include "ml/knn.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <numeric>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#include "common/string_util.h"

namespace nde {

namespace {

/// Radix key of a distance: the bits of its float rounding. Rounding is
/// monotone and a distance is a sum of squares (never negative, never -0.0),
/// so keys never invert two distances, though distinct distances may share
/// one. Every NaN gets the key one above +inf's: whatever its sign and
/// payload, a NaN's float bits are at least that key, and a number's at most
/// +inf's.
constexpr uint32_t kNanKey = 0x7F800001u;

uint32_t RadixKey(double dist) {
  return std::min(std::bit_cast<uint32_t>(static_cast<float>(dist)), kNanKey);
}

/// The radix argsort's digits: three passes of 8 bits over a 24-bit key, for
/// every row count. A digit's 256 buckets keep a pass's open write positions
/// within 16 KB of cache lines; 24 bits leave few distinct distances sharing
/// a key.
constexpr int kDigitBits = 8;
constexpr int kDigits = 3;
constexpr size_t kBuckets = size_t{1} << kDigitBits;

/// Two doubles, one per query, that the distance pass adds, subtracts and
/// multiplies lane by lane (SSE2 on x86-64). Each lane runs exactly
/// SquaredDistance's chain for its query; ml/CMakeLists.txt turns FMA
/// contraction off, so `acc + diff * diff` rounds the product first on
/// every target.
typedef double Lanes __attribute__((vector_size(16)));

/// Distances of training rows [first, first + kRows) to the interleaved
/// queries of `block` into `dist`'s columns. The rows' accumulator chains are
/// independent, so a step of several rows keeps the adder busy while each
/// lane's own chain still runs in feature order.
template <size_t kRows>
void DistanceRows(const Matrix& train, size_t first, const double* block,
                  double* dist) {
  const size_t n = train.rows();
  const size_t d = train.cols();
  const double* rows = train.RowPtr(first);
  Lanes acc[kRows][2] = {};
  for (size_t c = 0; c < d; ++c) {
    Lanes q01;
    Lanes q23;
    std::memcpy(&q01, block + c * kPassQueries, sizeof(Lanes));
    std::memcpy(&q23, block + c * kPassQueries + 2, sizeof(Lanes));
    for (size_t r = 0; r < kRows; ++r) {
      const double value = rows[r * d + c];
      const Lanes x = {value, value};
      const Lanes diff01 = x - q01;
      const Lanes diff23 = x - q23;
      acc[r][0] += diff01 * diff01;
      acc[r][1] += diff23 * diff23;
    }
  }
  for (size_t r = 0; r < kRows; ++r) {
    dist[first + r] = acc[r][0][0];
    dist[n + first + r] = acc[r][0][1];
    dist[2 * n + first + r] = acc[r][1][0];
    dist[3 * n + first + r] = acc[r][1][1];
  }
}

/// The distance pass: `dist` column j (n entries) gets every training row's
/// SquaredDistance to queries[j], j < count <= kPassQueries. The queries are
/// interleaved into one d x 4 block, a spare lane repeating the last query,
/// and every training row is read once, in place, for all four.
void DistancePass(const Matrix& train, const double* const* queries,
                  size_t count, double* dist) {
  constexpr size_t kStepRows = 4;
  const size_t n = train.rows();
  const size_t d = train.cols();
  std::vector<double> block(kPassQueries * d);
  for (size_t c = 0; c < d; ++c) {
    for (size_t j = 0; j < kPassQueries; ++j) {
      block[c * kPassQueries + j] = queries[std::min(j, count - 1)][c];
    }
  }
  size_t i = 0;
  for (; i + kStepRows <= n; i += kStepRows) {
    DistanceRows<kStepRows>(train, i, block.data(), dist);
  }
  for (; i < n; ++i) DistanceRows<1>(train, i, block.data(), dist);
}

/// The exact argsort of one distance column into the scratch's entries. The
/// sort key is RadixKey minus the column's smallest RadixKey, shifted right
/// until it fits kDigits radix digits: still monotone in the distance. A
/// stable LSD radix sort from index order orders the entries by (key,
/// index); then each run of equal keys is sorted exactly.
NearestRows SortByDistance(const double* dist, RankScratch* scratch) {
  const size_t n = scratch->entries.size();
  uint64_t* src = scratch->entries.data();
  if (n == 0) return {src, 0, dist};
  uint32_t lo = std::numeric_limits<uint32_t>::max();
  uint32_t hi = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = RadixKey(dist[i]);
    lo = std::min(lo, key);
    hi = std::max(hi, key);
    src[i] = (uint64_t{key} << 32) | i;
  }
  const int shift = std::max(
      0, static_cast<int>(std::bit_width(hi - lo)) - kDigits * kDigitBits);
  uint32_t counts[kDigits][kBuckets] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key =
        (static_cast<uint32_t>(src[i] >> 32) - lo) >> shift;
    src[i] = (uint64_t{key} << 32) | static_cast<uint32_t>(src[i]);
    for (int digit = 0; digit < kDigits; ++digit) {
      ++counts[digit][(key >> (digit * kDigitBits)) & (kBuckets - 1)];
    }
  }
  uint64_t* dst = scratch->spare.data();
  for (int digit = 0; digit < kDigits; ++digit) {
    uint32_t* offsets = counts[digit];
    const int digit_shift = 32 + digit * kDigitBits;
    // A digit every key shares would leave the order as it is.
    if (offsets[(src[0] >> digit_shift) & (kBuckets - 1)] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t count = offsets[b];
      offsets[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[offsets[(src[i] >> digit_shift) & (kBuckets - 1)]++] = src[i];
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
  for (size_t i = 1; i < n; ++i) {
    if ((src[i] >> 32) != (src[i - 1] >> 32)) continue;
    const size_t begin = i - 1;
    while (i + 1 < n && (src[i + 1] >> 32) == (src[begin] >> 32)) ++i;
    std::sort(src + begin, src + i + 1, nearer);
  }
  return {src, n, dist};
}

}  // namespace

// Entries keep the row index in their low 32 bits.
RankScratch::RankScratch(size_t n)
    : dist(kPassQueries * n), entries(n), spare(n) {
  NDE_CHECK_LE(n, size_t{std::numeric_limits<uint32_t>::max()});
}

NearestRows NearestOrder(const Matrix& train, std::span<const double> query,
                         RankScratch* scratch) {
  NDE_CHECK_EQ(query.size(), train.cols());
  NDE_CHECK_EQ(scratch->entries.size(), train.rows());
  const double* queries[] = {query.data()};
  DistancePass(train, queries, 1, scratch->dist.data());
  return SortByDistance(scratch->dist.data(), scratch);
}

void NearestOrder(const Matrix& train, const Matrix& queries, size_t first,
                  size_t count, RankScratch* scratch,
                  const std::function<void(size_t, NearestRows)>& visit) {
  NDE_CHECK_EQ(queries.cols(), train.cols());
  NDE_CHECK_LE(first + count, queries.rows());
  NDE_CHECK_EQ(scratch->entries.size(), train.rows());
  const size_t n = train.rows();
  for (size_t pass = first; pass < first + count; pass += kPassQueries) {
    const size_t width = std::min(kPassQueries, first + count - pass);
    const double* rows[kPassQueries];
    for (size_t j = 0; j < width; ++j) rows[j] = queries.RowPtr(pass + j);
    DistancePass(train, rows, width, scratch->dist.data());
    for (size_t j = 0; j < width; ++j) {
      visit(pass + j, SortByDistance(scratch->dist.data() + j * n, scratch));
    }
  }
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
  num_classes_ = std::max(num_classes, 1);
  fitted_ = true;
  return Status::OK();
}

std::vector<size_t> KnnClassifier::Neighbors(std::span<const double> query,
                                             size_t k) const {
  NDE_CHECK(fitted_) << "KNN not fitted";
  size_t n = train_.size();
  size_t d = train_.features.cols();
  NDE_CHECK_EQ(query.size(), d);
  std::vector<double> dist(n);
  for (size_t i = 0; i < n; ++i) {
    dist[i] = SquaredDistance(train_.features.RowPtr(i), query.data(), d);
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
  NDE_CHECK_EQ(features.cols(), train_.features.cols());
  Matrix proba(features.rows(), static_cast<size_t>(num_classes_));
  for (size_t r = 0; r < features.rows(); ++r) {
    std::vector<size_t> neighbors = Neighbors(features.RowSpan(r), k_);
    double weight = 1.0 / static_cast<double>(neighbors.size());
    for (size_t idx : neighbors) {
      proba(r, static_cast<size_t>(train_.labels[idx])) += weight;
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
//   - The context also keeps each evaluation point's nearest rows, at least
//     k + 1 of them, so the full training set and every coalition one row
//     short of it (v(N), leave-one-out) are scored without a scorer:
//     dropping row i changes only the points whose k nearest hold i.
//   - From n >= 64 (k + 1) training rows it keeps each point's first
//     R = n / 64 rows and inverts them into near lists: for each training
//     row, the (point, rank) pairs of the points that rank it below R, in
//     point order. A row enters a window only below the window's cutoff, so
//     once a scorer's every cutoff is at most R, only the points on row i's
//     list can take it, and Add(i) walks that list instead of comparing all
//     m ranks. Windows are kept per point and the correct count is an
//     integer sum, so the results are the mask pass's, bit for bit.
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

/// How many matrix rows ahead of its writes the build asks for the cache
/// line it will write. Consecutive rows' writes lie a whole rank row apart,
/// further than the hardware prefetchers follow, so each would otherwise
/// wait for its line.
constexpr size_t kPrefetchRows = 16;

/// Near lists hold each point's first n / kNearShare rows. On a tmc-10k
/// request (8,000 rows, 2,000 points, k = 5) 73% of the pushes come after
/// every window's cutoff has fallen that far, and a list holds ~31 entries
/// against the 2,000 ranks the mask pass compares.
constexpr size_t kNearShare = 64;

/// Transparent huge page size on x86-64 (and AArch64 with 4 KiB pages).
constexpr size_t kHugePage = size_t{2} << 20;

struct FreeRanks {
  void operator()(void* ranks) const { std::free(ranks); }
};

/// Uninitialized storage for `count` ranks. From kHugePage bytes up it is
/// kHugePage-aligned, its size rounded up to whole huge pages, and its
/// whole huge pages of ranks are hinted MADV_HUGEPAGE where the platform
/// has that hint, so the build's first touch takes one fault per 2 MiB
/// instead of one per 4 KiB; the rest keeps 4 KiB pages, so no unused
/// tail becomes resident. A tmc-10k-sized request (~34 MiB with alignment
/// slack) exceeds glibc's largest dynamic mmap threshold, so a freed matrix
/// is unmapped instead of staying in an idle server's heap (DESIGN.md §14).
template <typename Rank>
std::unique_ptr<Rank[], FreeRanks> AllocateRanks(size_t count) {
  const size_t bytes = std::max(count, size_t{1}) * sizeof(Rank);
  void* ranks;
  if (bytes < kHugePage) {
    ranks = std::malloc(bytes);
  } else {
    ranks = std::aligned_alloc(
        kHugePage, (bytes + kHugePage - 1) / kHugePage * kHugePage);
#ifdef MADV_HUGEPAGE
    if (ranks != nullptr) {
      madvise(ranks, bytes / kHugePage * kHugePage, MADV_HUGEPAGE);
    }
#endif
  }
  if (ranks == nullptr) throw std::bad_alloc();
  return std::unique_ptr<Rank[], FreeRanks>(static_cast<Rank*>(ranks));
}

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
  Rank near_width_;  ///< The context's R: near lists hold ranks below it.
  size_t wide_;      ///< Windows whose cutoff is still above near_width_.
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
        ranks_(AllocateRanks<Rank>(train.size() * eval.size())),
        // No near lists when R <= k: scans would switch to them too late.
        near_width_(train.size() / kNearShare > k ? train.size() / kNearShare
                                                  : 0),
        nearest_width_(std::min(std::max(k + 1, near_width_), train.size())),
        nearest_(num_eval_ * nearest_width_) {
    // Every rank, n - 1 at most, stays below the underfull cutoff.
    NDE_CHECK_LE(train.size(), size_t{std::numeric_limits<Rank>::max()});
    NDE_CHECK_LE(num_eval_ * near_width_,
                 size_t{std::numeric_limits<uint32_t>::max()});
  }

  /// Ranks every training row for evaluation points [begin, end) and writes
  /// their entries of the matrix and their nearest rows. Each point's ranks
  /// depend only on that point, so any block split yields the same matrix.
  void RankPoints(const Matrix& train_features, const Matrix& eval_features,
                  size_t begin, size_t end) {
    const size_t n = train_features.rows();
    RankScratch scratch(n);
    // Point-major: each point of a group ranks into its own n entries.
    std::vector<Rank> group(std::min(kGroupPoints, end - begin) * n);
    for (size_t first = begin; first < end; first += kGroupPoints) {
      const size_t width = std::min(kGroupPoints, end - first);
      NearestOrder(train_features, eval_features, first, width, &scratch,
                   [&](size_t e, NearestRows sorted) {
                     Rank* point_ranks = group.data() + (e - first) * n;
                     for (size_t pos = 0; pos < n; ++pos) {
                       point_ranks[sorted[pos]] = static_cast<Rank>(pos);
                     }
                     uint32_t* nearest = NearestRowsOf(e);
                     for (size_t pos = 0; pos < nearest_width_; ++pos) {
                       nearest[pos] = static_cast<uint32_t>(sorted[pos]);
                     }
                   });
      Rank* out = ranks_.get() + first;
      for (size_t i = 0; i < n; ++i) {
        if (i + kPrefetchRows < n) {
          __builtin_prefetch(out + (i + kPrefetchRows) * num_eval_, 1);
        }
        for (size_t g = 0; g < width; ++g) {
          out[i * num_eval_ + g] = group[g * n + i];
        }
      }
    }
  }

  /// Once every point is ranked: counts the full training set's correct
  /// predictions, and inverts each point's first near_width_ rows into the
  /// training rows' near lists, points ascending within each list.
  void Finish() {
    std::vector<uint32_t> votes(static_cast<size_t>(num_classes_));
    full_correct_ = 0;
    for (size_t e = 0; e < num_eval_; ++e) {
      full_correct_ += Vote(e, kNoRow, &votes) == eval_labels_[e];
    }
    near_begin_.assign(labels_.size() + 1, 0);
    for (size_t e = 0; e < num_eval_; ++e) {
      const uint32_t* nearest = NearestRowsOf(e);
      for (size_t pos = 0; pos < near_width_; ++pos) {
        ++near_begin_[nearest[pos] + 1];
      }
    }
    std::partial_sum(near_begin_.begin(), near_begin_.end(),
                     near_begin_.begin());
    std::vector<uint32_t> next(near_begin_.begin(), near_begin_.end() - 1);
    near_points_.resize(near_begin_.back());
    near_ranks_.resize(near_begin_.back());
    for (size_t e = 0; e < num_eval_; ++e) {
      const uint32_t* nearest = NearestRowsOf(e);
      for (size_t pos = 0; pos < near_width_; ++pos) {
        const uint32_t slot = next[nearest[pos]]++;
        near_points_[slot] = static_cast<uint32_t>(e);
        near_ranks_[slot] = static_cast<Rank>(pos);
      }
    }
  }

  std::unique_ptr<CoalitionScorer> NewScorer() const override {
    return std::make_unique<KnnSoaScorer<Rank>>(this);
  }

  bool ReplacesColdFit() const override { return true; }

  /// Dropping row i changes only the votes of the points whose k nearest
  /// rows hold it; their window becomes their k + 1 nearest minus i.
  std::optional<size_t> NumCorrectWithout(
      std::optional<size_t> missing) const override {
    if (!missing.has_value()) return full_correct_;
    const size_t window = std::min(k_, nearest_width_);
    std::vector<uint32_t> votes(static_cast<size_t>(num_classes_));
    size_t correct = full_correct_;
    for (size_t e = 0; e < num_eval_; ++e) {
      const uint32_t* nearest = NearestRowsOf(e);
      if (std::find(nearest, nearest + window, *missing) == nearest + window) {
        continue;
      }
      const bool was_correct = Vote(e, kNoRow, &votes) == eval_labels_[e];
      const bool is_correct = Vote(e, *missing, &votes) == eval_labels_[e];
      correct = correct - was_correct + is_correct;
    }
    return correct;
  }

  /// Contiguous ranks of training row `i` for every evaluation point.
  const Rank* RankRow(size_t i) const { return ranks_.get() + i * num_eval_; }
  /// Training row `i`'s near list: entries [NearBegin(i), NearBegin(i + 1))
  /// of NearPoints() and NearRanks().
  uint32_t NearBegin(size_t i) const { return near_begin_[i]; }
  const uint32_t* NearPoints() const { return near_points_.data(); }
  const Rank* NearRanks() const { return near_ranks_.data(); }
  /// R: the near lists hold exactly the ranks below it (0: no lists).
  size_t near_width() const { return near_width_; }
  int label(size_t i) const { return labels_[i]; }
  const std::vector<int>& eval_labels() const { return eval_labels_; }
  size_t num_eval() const { return num_eval_; }
  size_t k() const { return k_; }
  int num_classes() const { return num_classes_; }

 private:
  static constexpr size_t kNoRow = std::numeric_limits<size_t>::max();

  uint32_t* NearestRowsOf(size_t e) {
    return nearest_.data() + e * nearest_width_;
  }
  const uint32_t* NearestRowsOf(size_t e) const {
    return nearest_.data() + e * nearest_width_;
  }

  /// Point e's prediction under every training row but `skip` (kNoRow: every
  /// row): the majority label of the first k of its stored nearest rows
  /// other than `skip` (all of them when fewer), ties toward the smaller
  /// class id, as Insert votes. `votes` has one slot per class.
  int Vote(size_t e, size_t skip, std::vector<uint32_t>* votes) const {
    std::fill(votes->begin(), votes->end(), 0u);
    const uint32_t* nearest = NearestRowsOf(e);
    size_t taken = 0;
    for (size_t pos = 0; pos < nearest_width_ && taken < k_; ++pos) {
      if (nearest[pos] == skip) continue;
      ++(*votes)[static_cast<size_t>(labels_[nearest[pos]])];
      ++taken;
    }
    int best = 0;
    for (int c = 1; c < num_classes_; ++c) {
      if ((*votes)[static_cast<size_t>(c)] >
          (*votes)[static_cast<size_t>(best)]) {
        best = c;
      }
    }
    return best;
  }

  std::vector<int> labels_;  ///< Owned copy: one indirection less in Insert.
  std::vector<int> eval_labels_;  ///< What NumCorrect counts against.
  size_t k_;
  int num_classes_;
  size_t num_eval_;
  std::unique_ptr<Rank[], FreeRanks> ranks_;  ///< n x num_eval, train-major.
  size_t near_width_;     ///< R = n / kNearShare when above k, else 0.
  size_t nearest_width_;  ///< min(max(k + 1, R), n).
  /// num_eval x nearest_width_: each point's nearest rows, nearest first.
  std::vector<uint32_t> nearest_;
  size_t full_correct_ = 0;  ///< NumCorrect of the full training set.
  /// The near lists, one per training row (n + 1 offsets), of num_eval x R
  /// (point, rank) entries in all.
  std::vector<uint32_t> near_begin_;
  std::vector<uint32_t> near_points_;
  std::vector<Rank> near_ranks_;
};

template <typename Rank>
KnnSoaScorer<Rank>::KnnSoaScorer(const KnnSoaContext<Rank>* context)
    : context_(context),
      num_eval_(context->num_eval()),
      k_(context->k()),
      num_classes_(context->num_classes()),
      near_width_(static_cast<Rank>(context->near_width())),
      wide_(num_eval_),
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
  const uint32_t index32 = static_cast<uint32_t>(train_index);
  if (wide_ == 0) {
    // Every cutoff is at most R, so every point that can take this row ranks
    // it below R and is on its near list, in the mask pass's point order.
    const uint32_t end = context_->NearBegin(train_index + 1);
    const uint32_t* points = context_->NearPoints();
    const Rank* ranks = context_->NearRanks();
    for (uint32_t j = context_->NearBegin(train_index); j < end; ++j) {
      if (ranks[j] < cutoff_[points[j]]) Insert(points[j], index32, ranks[j]);
    }
    return;
  }
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
  if (new_count == k_) {
    // Cutoffs only fall, so a window turns tight once.
    wide_ -= cutoff_[e] > near_width_ && wr[k_ - 1] <= near_width_;
    cutoff_[e] = wr[k_ - 1];
  }
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
  context->Finish();
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
