#include "uncertain/certain_knn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/knn.h"

namespace nde {

UncertainClassificationDataset UncertainClassificationDataset::FromConcrete(
    const MlDataset& data) {
  UncertainClassificationDataset out;
  out.features.reserve(data.size());
  for (size_t i = 0; i < data.features.rows(); ++i) {
    std::vector<Interval> row;
    row.reserve(data.features.cols());
    for (size_t j = 0; j < data.features.cols(); ++j) {
      row.emplace_back(data.features(i, j));
    }
    out.features.push_back(std::move(row));
  }
  out.labels = data.labels;
  return out;
}

void UncertainClassificationDataset::SetUncertain(size_t row, size_t col,
                                                  double lo, double hi) {
  NDE_CHECK_LT(row, features.size());
  NDE_CHECK_LT(col, features[row].size());
  features[row][col] = Interval(lo, hi);
}

MlDataset UncertainClassificationDataset::SampleWorld(Rng* rng) const {
  NDE_CHECK(rng != nullptr);
  MlDataset world;
  world.features = Matrix(features.size(), num_features());
  for (size_t i = 0; i < features.size(); ++i) {
    for (size_t j = 0; j < features[i].size(); ++j) {
      const Interval& cell = features[i][j];
      world.features(i, j) =
          cell.is_point() ? cell.lo() : rng->NextUniform(cell.lo(), cell.hi());
    }
  }
  world.labels = labels;
  return world;
}

double UncertainClassificationDataset::MinSquaredDistance(
    size_t i, const std::vector<double>& query) const {
  NDE_CHECK_LT(i, features.size());
  NDE_CHECK_EQ(query.size(), features[i].size());
  double acc = 0.0;
  for (size_t j = 0; j < query.size(); ++j) {
    const Interval& cell = features[i][j];
    double diff = 0.0;
    if (query[j] < cell.lo()) {
      diff = cell.lo() - query[j];
    } else if (query[j] > cell.hi()) {
      diff = query[j] - cell.hi();
    }  // else the cell can equal the query coordinate: contribution 0.
    acc += diff * diff;
  }
  return acc;
}

double UncertainClassificationDataset::MaxSquaredDistance(
    size_t i, const std::vector<double>& query) const {
  NDE_CHECK_LT(i, features.size());
  NDE_CHECK_EQ(query.size(), features[i].size());
  double acc = 0.0;
  for (size_t j = 0; j < query.size(); ++j) {
    const Interval& cell = features[i][j];
    double diff = std::max(std::fabs(query[j] - cell.lo()),
                           std::fabs(query[j] - cell.hi()));
    acc += diff * diff;
  }
  return acc;
}

namespace {

/// Deterministic K-NN majority vote given per-point distances: the k nearest
/// by KeepNearest over every row, then most votes (ties by class id).
int VoteWithDistances(const std::vector<double>& distances,
                      const std::vector<int>& labels, size_t k) {
  std::vector<size_t> nearest(distances.size());
  std::iota(nearest.begin(), nearest.end(), size_t{0});
  KeepNearest(distances, k, &nearest);
  int max_label = 0;
  for (int label : labels) max_label = std::max(max_label, label);
  std::vector<size_t> votes(static_cast<size_t>(max_label) + 1, 0);
  for (size_t i : nearest) ++votes[static_cast<size_t>(labels[i])];
  int best = 0;
  for (size_t c = 1; c < votes.size(); ++c) {
    if (votes[c] > votes[static_cast<size_t>(best)]) best = static_cast<int>(c);
  }
  return best;
}

}  // namespace

std::optional<int> CertainKnnPrediction(
    const UncertainClassificationDataset& train,
    const std::vector<double>& query, size_t k) {
  NDE_CHECK_GE(k, 1u);
  size_t n = train.size();
  NDE_CHECK_GT(n, 0u);

  std::vector<double> min_dist(n);
  std::vector<double> max_dist(n);
  for (size_t i = 0; i < n; ++i) {
    min_dist[i] = train.MinSquaredDistance(i, query);
    max_dist[i] = train.MaxSquaredDistance(i, query);
  }
  std::vector<int> classes;
  for (int label : train.labels) {
    if (std::find(classes.begin(), classes.end(), label) == classes.end()) {
      classes.push_back(label);
    }
  }
  std::sort(classes.begin(), classes.end());

  // Candidate: the prediction in the world most favorable to each class; the
  // certain label (if any) must be the winner of its own favorable world,
  // so iterate candidates and test them against all adversarial worlds.
  std::vector<double> distances(n);
  for (int candidate : classes) {
    // World favoring `candidate`: candidate points as close as possible,
    // everyone else as far as possible.
    for (size_t i = 0; i < n; ++i) {
      distances[i] =
          train.labels[i] == candidate ? min_dist[i] : max_dist[i];
    }
    if (VoteWithDistances(distances, train.labels, k) != candidate) {
      continue;  // Candidate cannot even win its best world.
    }
    // Adversarial worlds: each competitor class pulled fully toward the
    // query while everything else (candidate included) is pushed away.
    bool survives = true;
    for (int competitor : classes) {
      if (competitor == candidate) continue;
      for (size_t i = 0; i < n; ++i) {
        distances[i] =
            train.labels[i] == competitor ? min_dist[i] : max_dist[i];
      }
      if (VoteWithDistances(distances, train.labels, k) != candidate) {
        survives = false;
        break;
      }
    }
    if (survives) return candidate;
  }
  return std::nullopt;
}

double CertainPredictionRatio(const UncertainClassificationDataset& train,
                              const Matrix& queries, size_t k) {
  if (queries.rows() == 0) return 0.0;
  size_t certain = 0;
  for (size_t q = 0; q < queries.rows(); ++q) {
    if (CertainKnnPrediction(train, queries.Row(q), k).has_value()) ++certain;
  }
  return static_cast<double>(certain) / static_cast<double>(queries.rows());
}

}  // namespace nde
