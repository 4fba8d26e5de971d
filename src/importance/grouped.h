#ifndef NDE_IMPORTANCE_GROUPED_H_
#define NDE_IMPORTANCE_GROUPED_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "importance/utility.h"

namespace nde {

/// Group-level data importance: the players of the cooperative game are
/// *groups* of training rows (data providers, ingestion batches, source
/// files) instead of individual tuples. Several debugging techniques assess
/// the impact of removing groups of points (Hammoudeh & Lowd 2024, §2.4 of
/// the tutorial), and group granularity is also what data markets price.
///
/// `GroupedUtility` adapts any row-level utility: a coalition of groups
/// evaluates the base utility on the union of their rows. Plug the result
/// into any estimator in game_values.h (exact Shapley for few groups,
/// TMC/Banzhaf for many).
class GroupedUtility : public UtilityFunction {
 public:
  /// `group_of[i]` is the group id of training row i; ids must be dense
  /// 0..num_groups-1. `base` must outlive this object.
  GroupedUtility(const UtilityFunction* base, std::vector<size_t> group_of);

  /// Factory validating the group assignment (size match, dense ids).
  static Result<GroupedUtility> Create(const UtilityFunction* base,
                                       std::vector<size_t> group_of);

  double Evaluate(const std::vector<size_t>& group_subset) const override;
  size_t num_units() const override { return num_groups_; }

  /// Prepares the base utility: a coalition of groups is the base's
  /// coalition of their rows, so a KNN base scores every one from the scorer
  /// context this builds instead of training a model per coalition.
  Status Prepare(size_t num_threads) const override {
    return base_->Prepare(num_threads);
  }

  /// Rows in group `g`.
  const std::vector<size_t>& GroupRows(size_t g) const {
    NDE_CHECK_LT(g, num_groups_);
    return rows_by_group_[g];
  }

 private:
  const UtilityFunction* base_;
  size_t num_groups_;
  std::vector<std::vector<size_t>> rows_by_group_;
};

/// Convenience: exact group Shapley values (for <= ~15 groups) of a model
/// accuracy game over `train`/`validation` with groups `group_of`.
Result<std::vector<double>> GroupShapleyValues(const ClassifierFactory& factory,
                                               const MlDataset& train,
                                               const MlDataset& validation,
                                               const std::vector<size_t>& group_of);

}  // namespace nde

#endif  // NDE_IMPORTANCE_GROUPED_H_
