#ifndef NDE_CLEANING_IMPUTATION_H_
#define NDE_CLEANING_IMPUTATION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"

namespace nde {

/// Best-guess repair of missing values in source tables — the "traditional
/// data cleaning" baseline the paper contrasts with uncertainty-aware
/// learning: imputation produces a single plausible world and discards the
/// information that it was ever uncertain.
///
/// Imputers follow the fit/transform protocol: `Fit` learns statistics from
/// a (possibly incomplete) column, `Impute` fills the nulls of a column of
/// the same type.
class Imputer {
 public:
  virtual ~Imputer() = default;

  /// Learns imputation statistics from the non-null cells of `column`.
  /// Fails when no usable cells exist or the column type is unsupported.
  virtual Status Fit(const std::vector<Value>& column) = 0;

  /// Returns the fill value for a null cell. Precondition: fitted.
  virtual Value FillValue() const = 0;

  virtual std::string name() const = 0;
};

/// Fills numeric nulls with the mean of the observed values.
class MeanImputer : public Imputer {
 public:
  Status Fit(const std::vector<Value>& column) override;
  Value FillValue() const override;
  std::string name() const override { return "mean"; }

 private:
  double mean_ = 0.0;
  bool is_int_ = false;
  bool fitted_ = false;
};

/// Fills numeric nulls with the median of the observed values (robust to the
/// outlier errors this library injects).
class MedianImputer : public Imputer {
 public:
  Status Fit(const std::vector<Value>& column) override;
  Value FillValue() const override;
  std::string name() const override { return "median"; }

 private:
  double median_ = 0.0;
  bool is_int_ = false;
  bool fitted_ = false;
};

/// Fills nulls of any column type with the most frequent observed value
/// (mode); ties break toward the smaller value for determinism.
class MostFrequentImputer : public Imputer {
 public:
  Status Fit(const std::vector<Value>& column) override;
  Value FillValue() const override;
  std::string name() const override { return "most_frequent"; }

 private:
  Value mode_;
  bool fitted_ = false;
};

/// Fills the nulls of `column` in `table` using `imputer` (fit on the same
/// column's observed values). Returns the repaired row indices.
Result<std::vector<size_t>> ImputeColumn(Table* table,
                                         const std::string& column,
                                         Imputer* imputer);

/// KNN imputation for a numeric column: each null cell is filled with the
/// mean of that column over the `k` nearest rows, where distance is computed
/// over the given fully-observed numeric `feature_columns`. Neighbors are
/// ranked by KeepNearest (ml/knn.h): a NaN distance, which a `nan` or `inf`
/// cell can make, comes last, and ties go to the smaller row. Falls back to
/// the column mean when no neighbors are usable. Returns repaired rows.
Result<std::vector<size_t>> KnnImputeColumn(
    Table* table, const std::string& column,
    const std::vector<std::string>& feature_columns, size_t k);

}  // namespace nde

#endif  // NDE_CLEANING_IMPUTATION_H_
