#include "query/predictive_query.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"
#include "importance/knn_shapley.h"
#include "ml/knn.h"

namespace nde {

std::string LabelDictionary::Lookup(int label) const {
  if (label >= 0 && static_cast<size_t>(label) < names_.size()) {
    return names_[static_cast<size_t>(label)];
  }
  return StrFormat("class_%d", label);
}

std::string GroupAggregate::ToString() const {
  return StrFormat("group=%d count=%zu positive_rate=%.4f", group, count,
                   positive_rate);
}

Result<std::vector<GroupAggregate>> AggregatePositiveRate(
    const Classifier& model, const Matrix& query_features,
    const std::vector<int>& groups) {
  if (query_features.rows() != groups.size()) {
    return Status::InvalidArgument("query rows / groups size mismatch");
  }
  if (model.num_classes() < 2) {
    return Status::FailedPrecondition("model must have >= 2 classes");
  }
  Matrix proba = model.PredictProba(query_features);
  std::map<int, GroupAggregate> by_group;
  for (size_t i = 0; i < groups.size(); ++i) {
    GroupAggregate& agg = by_group[groups[i]];
    agg.group = groups[i];
    agg.positive_rate += proba(i, 1);
    ++agg.count;
  }
  std::vector<GroupAggregate> out;
  out.reserve(by_group.size());
  for (auto& [group, agg] : by_group) {
    (void)group;
    agg.positive_rate /= static_cast<double>(agg.count);
    out.push_back(agg);
  }
  return out;
}

namespace {

/// Query rows belonging to `group`.
Result<std::vector<size_t>> GroupQueryRows(const Matrix& query_features,
                                           const std::vector<int>& groups,
                                           int group) {
  if (query_features.rows() != groups.size()) {
    return Status::InvalidArgument("query rows / groups size mismatch");
  }
  std::vector<size_t> rows;
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i] == group) rows.push_back(i);
  }
  if (rows.empty()) {
    return Status::NotFound(StrFormat("no query rows in group %d", group));
  }
  return rows;
}

}  // namespace

Result<std::vector<double>> AggregateAttribution(
    const MlDataset& train, const Matrix& query_features,
    const std::vector<int>& groups, int group, size_t k) {
  NDE_RETURN_IF_ERROR(train.Validate());
  if (train.size() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  NDE_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                       GroupQueryRows(query_features, groups, group));
  // The aggregate "mean soft-KNN P(class 1)" is the KNN-Shapley payoff with
  // every query's target label forced to 1, so the closed-form recurrence
  // attributes it exactly.
  MlDataset pseudo_validation;
  pseudo_validation.features = query_features.SelectRows(rows);
  pseudo_validation.labels.assign(rows.size(), 1);
  NDE_ASSIGN_OR_RETURN(ImportanceEstimate estimate,
                       KnnShapleyValues(train, pseudo_validation, k));
  return std::move(estimate.values);
}

Result<std::vector<size_t>> ComplaintDrivenRanking(
    const MlDataset& train, const Matrix& query_features,
    const std::vector<int>& groups, const Complaint& complaint, size_t k) {
  NDE_ASSIGN_OR_RETURN(
      std::vector<double> attribution,
      AggregateAttribution(train, query_features, groups, complaint.group, k));
  std::vector<size_t> order(attribution.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (complaint.direction == ComplaintDirection::kTooHigh) {
    // Remove the tuples pushing the aggregate *up* first.
    std::sort(order.begin(), order.end(), [&attribution](size_t a, size_t b) {
      if (attribution[a] != attribution[b]) {
        return attribution[a] > attribution[b];
      }
      return a < b;
    });
  } else {
    std::sort(order.begin(), order.end(), [&attribution](size_t a, size_t b) {
      if (attribution[a] != attribution[b]) {
        return attribution[a] < attribution[b];
      }
      return a < b;
    });
  }
  return order;
}

Result<ComplaintFixResult> ApplyComplaintFix(
    const MlDataset& train, const Matrix& query_features,
    const std::vector<int>& groups, const Complaint& complaint, size_t k,
    size_t budget) {
  if (budget >= train.size()) {
    return Status::InvalidArgument("budget must leave training data behind");
  }
  NDE_ASSIGN_OR_RETURN(std::vector<size_t> rows,
                       GroupQueryRows(query_features, groups, complaint.group));
  Matrix group_queries = query_features.SelectRows(rows);

  auto aggregate = [&](const MlDataset& data) -> Result<double> {
    KnnClassifier knn(k);
    NDE_RETURN_IF_ERROR(knn.FitWithClasses(data, std::max(train.NumClasses(), 2)));
    Matrix proba = knn.PredictProba(group_queries);
    double total = 0.0;
    for (size_t i = 0; i < proba.rows(); ++i) total += proba(i, 1);
    return total / static_cast<double>(proba.rows());
  };

  ComplaintFixResult result;
  NDE_ASSIGN_OR_RETURN(result.aggregate_before, aggregate(train));
  NDE_ASSIGN_OR_RETURN(
      std::vector<size_t> ranking,
      ComplaintDrivenRanking(train, query_features, groups, complaint, k));
  result.removed.assign(ranking.begin(),
                        ranking.begin() + static_cast<ptrdiff_t>(budget));
  MlDataset reduced = train.Without(result.removed);
  NDE_ASSIGN_OR_RETURN(result.aggregate_after, aggregate(reduced));
  return result;
}

}  // namespace nde
