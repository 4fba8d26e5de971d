#include "importance/knn_shapley.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "importance/waves.h"
#include "ml/knn.h"

namespace nde {

Result<ImportanceEstimate> KnnShapleyValues(const MlDataset& train,
                                            const MlDataset& validation,
                                            size_t k,
                                            const EstimatorOptions& options) {
  NDE_CHECK_GE(k, 1u);
  NDE_CHECK_GT(train.size(), 0u);
  NDE_CHECK_GT(validation.size(), 0u);
  NDE_CHECK_EQ(train.features.cols(), validation.features.cols());
  size_t n = train.size();
  double kd = static_cast<double>(k);

  // Validation points are independent; process them as fixed 8-point chunks
  // with one partial sum per chunk, folded in chunk order, so the result is
  // bit-identical for any thread count. Chunks run in fixed 8-chunk waves so
  // progress and cancellation land on deterministic boundaries; the
  // per-chunk work is unchanged.
  constexpr size_t kChunkPoints = 8;
  constexpr size_t kWaveChunks = 8;
  size_t num_chunks = (validation.size() + kChunkPoints - 1) / kChunkPoints;
  std::vector<std::vector<double>> wave(std::min(kWaveChunks, num_chunks),
                                        std::vector<double>(n, 0.0));
  std::vector<double> values(n, 0.0);
  auto run_chunk = [&](size_t chunk) -> Status {
    std::vector<double>& partial = wave[chunk % kWaveChunks];
    std::fill(partial.begin(), partial.end(), 0.0);
    std::vector<double> s(n, 0.0);
    RankScratch scratch(n);
    size_t begin = chunk * kChunkPoints;
    size_t end = std::min(begin + kChunkPoints, validation.size());
    auto add_point = [&](size_t v, NearestRows order) {
      int y = validation.labels[v];
      // Recurrence from Jia et al. (2019), Theorem 1. Positions are
      // 1-indexed in the paper; `pos` below is 0-indexed.
      size_t farthest = order[n - 1];
      s[farthest] =
          (train.labels[farthest] == y ? 1.0 : 0.0) / static_cast<double>(n);
      for (size_t pos = n - 1; pos-- > 0;) {
        size_t i = order[pos];
        size_t next = order[pos + 1];
        double indicator_i = train.labels[i] == y ? 1.0 : 0.0;
        double indicator_next = train.labels[next] == y ? 1.0 : 0.0;
        double rank = static_cast<double>(pos + 1);  // 1-indexed position.
        s[i] = s[next] +
               (indicator_i - indicator_next) / kd * std::min(kd, rank) / rank;
      }
      for (size_t i = 0; i < n; ++i) partial[i] += s[i];
    };
    NearestOrder(train.features, validation.features, begin, end - begin,
                 &scratch, add_point);
    return Status::OK();
  };
  auto fold = [&](size_t begin, size_t end) {
    for (size_t chunk = begin; chunk < end; ++chunk) {
      const std::vector<double>& partial = wave[chunk % kWaveChunks];
      for (size_t i = 0; i < n; ++i) values[i] += partial[i];
    }
    // Closed-form estimator: no utility evaluations, no error estimate.
    return WaveTally{std::min(end * kChunkPoints, validation.size()),
                     validation.size()};
  };
  WaveOutcome run = RunWaves(options, "knn_shapley", "knn_shapley_wave",
                             num_chunks, kWaveChunks, run_chunk, fold);
  // A closed form has no smaller budget to fall back to: a cancelled or
  // faulted run returns its cause.
  if (!run.abort_cause.ok()) return run.abort_cause;
  double inv_m = 1.0 / static_cast<double>(validation.size());
  for (double& value : values) value *= inv_m;
  ImportanceEstimate estimate;
  estimate.values = std::move(values);
  estimate.num_threads_used = run.threads_used;
  return estimate;
}

SoftKnnUtility::SoftKnnUtility(MlDataset train, MlDataset validation, size_t k)
    : train_(std::move(train)), validation_(std::move(validation)), k_(k) {
  NDE_CHECK_GE(k, 1u);
  RankScratch scratch(train_.size());
  distance_order_.resize(validation_.size());
  NearestOrder(train_.features, validation_.features, 0, validation_.size(),
               &scratch, [this](size_t v, NearestRows order) {
                 distance_order_[v].resize(order.size());
                 for (size_t pos = 0; pos < order.size(); ++pos) {
                   distance_order_[v][pos] = order[pos];
                 }
               });
}

namespace {

/// Reusable membership marks: stamp[i] == epoch says i is in the current
/// subset, and bumping the epoch invalidates every mark from the previous
/// call without clearing (or reallocating) the vector. One instance per
/// thread keeps Evaluate allocation-free and safe under the parallel
/// estimators, which call it concurrently.
struct EpochMembership {
  std::vector<uint64_t> stamp;
  uint64_t epoch = 0;
};

}  // namespace

double SoftKnnUtility::Evaluate(const std::vector<size_t>& subset) const {
  if (subset.empty() || validation_.size() == 0) return 0.0;
  static thread_local EpochMembership members;
  if (members.stamp.size() < train_.size()) {
    members.stamp.assign(train_.size(), 0);
    members.epoch = 0;
  }
  uint64_t epoch = ++members.epoch;
  for (size_t i : subset) members.stamp[i] = epoch;
  double total = 0.0;
  for (size_t v = 0; v < validation_.size(); ++v) {
    int y = validation_.labels[v];
    size_t taken = 0;
    double hits = 0.0;
    for (size_t idx : distance_order_[v]) {
      if (members.stamp[idx] != epoch) continue;
      if (train_.labels[idx] == y) hits += 1.0;
      if (++taken >= k_) break;
    }
    total += hits / static_cast<double>(k_);
  }
  return total / static_cast<double>(validation_.size());
}

}  // namespace nde
