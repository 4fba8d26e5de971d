#include "uncertain/poisoning.h"

#include <algorithm>

#include "common/check.h"
#include "ml/knn.h"

namespace nde {

namespace {

/// Deterministic K-NN vote over the rows not deleted: the first k of them in
/// `order`, majority label (ties toward the smaller class id).
int Vote(const NearestRows& order, const std::vector<int>& labels,
         const std::vector<bool>& deleted, size_t k, int num_classes) {
  std::vector<size_t> votes(static_cast<size_t>(num_classes), 0);
  size_t taken = 0;
  for (size_t pos = 0; pos < order.size() && taken < k; ++pos) {
    const size_t i = order[pos];
    if (deleted[i]) continue;
    ++votes[static_cast<size_t>(labels[i])];
    ++taken;
  }
  int best = 0;
  for (int c = 1; c < num_classes; ++c) {
    if (votes[static_cast<size_t>(c)] > votes[static_cast<size_t>(best)]) {
      best = c;
    }
  }
  return best;
}

}  // namespace

size_t CertifiedRemovalRadius(const MlDataset& train,
                              const std::vector<double>& query, size_t k) {
  NDE_CHECK_GE(k, 1u);
  NDE_CHECK_GT(train.size(), 0u);
  int num_classes = std::max(train.NumClasses(), 1);
  RankScratch scratch(train.size());
  NearestRows order = NearestOrder(train.features, query, &scratch);
  std::vector<bool> deleted(train.size(), false);

  int winner = Vote(order, train.labels, deleted, k, num_classes);
  // Delete winner-class points in nearest-first order (the optimal deletion
  // order: deleting non-winner points never reduces the winner's top-K votes,
  // and among winner points the nearest ones occupy the top-K slots).
  size_t radius = 0;
  for (size_t pos = 0; pos < order.size(); ++pos) {
    const size_t i = order[pos];
    if (train.labels[i] != winner) continue;
    if (radius + 1 >= train.size()) break;  // Cannot delete everything.
    deleted[i] = true;
    if (Vote(order, train.labels, deleted, k, num_classes) != winner) {
      return radius;
    }
    ++radius;
  }
  // Deleting every winner point never flipped the vote (only possible when
  // all points share the winning label): the prediction survives any
  // meaningful budget.
  return train.size() - 1;
}

size_t CertifiedInsertionRadius(const MlDataset& train,
                                const std::vector<double>& query, size_t k) {
  NDE_CHECK_GE(k, 1u);
  NDE_CHECK_GT(train.size(), 0u);
  int num_classes = std::max(train.NumClasses(), 2);
  RankScratch scratch(train.size());
  NearestRows order = NearestOrder(train.features, query, &scratch);
  std::vector<bool> deleted(train.size(), false);
  int winner = Vote(order, train.labels, deleted, k, num_classes);

  // Optimal insertion adversary: m copies of one competitor label at
  // distance zero. They occupy the first m top-K slots; the remaining
  // k - m slots hold the nearest original points.
  size_t min_flip = train.size() + k + 1;
  for (int competitor = 0; competitor < num_classes; ++competitor) {
    if (competitor == winner) continue;
    for (size_t m = 1; m <= k; ++m) {
      std::vector<size_t> votes(static_cast<size_t>(num_classes), 0);
      votes[static_cast<size_t>(competitor)] += m;
      size_t native = std::min(k - m, train.size());
      for (size_t pos = 0; pos < native; ++pos) {
        ++votes[static_cast<size_t>(train.labels[order[pos]])];
      }
      int best = 0;
      for (int c = 1; c < num_classes; ++c) {
        if (votes[static_cast<size_t>(c)] > votes[static_cast<size_t>(best)]) {
          best = c;
        }
      }
      if (best != winner) {
        min_flip = std::min(min_flip, m);
        break;
      }
    }
  }
  if (min_flip > k) {
    // Even k adversarial points (the whole neighborhood) cannot flip it —
    // only possible via tie-breaking toward the winner; report k.
    return k;
  }
  return min_flip - 1;
}

double CertifiedRemovalRatio(const MlDataset& train, const Matrix& queries,
                             size_t k, size_t budget) {
  if (queries.rows() == 0) return 0.0;
  size_t certified = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    if (CertifiedRemovalRadius(train, queries.Row(q), k) >= budget) {
      ++certified;
    }
  }
  return static_cast<double>(certified) / static_cast<double>(queries.rows());
}

}  // namespace nde
