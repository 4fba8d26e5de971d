#include "cleaning/imputation.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/string_util.h"
#include "ml/knn.h"

namespace nde {

namespace {

/// Collects the non-null numeric values of a column; fails on strings.
Result<std::vector<double>> NumericValues(const std::vector<Value>& column,
                                          bool* is_int) {
  std::vector<double> values;
  *is_int = true;
  for (const Value& v : column) {
    if (v.is_null()) continue;
    if (v.is_string()) {
      return Status::InvalidArgument("numeric imputer on a string column");
    }
    if (!v.is_int64()) *is_int = false;
    values.push_back(v.AsNumeric());
  }
  if (values.empty()) {
    return Status::InvalidArgument("no observed values to fit on");
  }
  return values;
}

Value MakeNumericValue(double value, bool is_int) {
  if (is_int) return Value(static_cast<int64_t>(std::llround(value)));
  return Value(value);
}

}  // namespace

Status MeanImputer::Fit(const std::vector<Value>& column) {
  NDE_ASSIGN_OR_RETURN(std::vector<double> values,
                       NumericValues(column, &is_int_));
  double total = 0.0;
  for (double v : values) total += v;
  mean_ = total / static_cast<double>(values.size());
  fitted_ = true;
  return Status::OK();
}

Value MeanImputer::FillValue() const {
  NDE_CHECK(fitted_);
  return MakeNumericValue(mean_, is_int_);
}

Status MedianImputer::Fit(const std::vector<Value>& column) {
  NDE_ASSIGN_OR_RETURN(std::vector<double> values,
                       NumericValues(column, &is_int_));
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(mid),
                   values.end());
  median_ = values[mid];
  if (values.size() % 2 == 0) {
    double below = *std::max_element(
        values.begin(), values.begin() + static_cast<ptrdiff_t>(mid));
    median_ = 0.5 * (median_ + below);
  }
  fitted_ = true;
  return Status::OK();
}

Value MedianImputer::FillValue() const {
  NDE_CHECK(fitted_);
  return MakeNumericValue(median_, is_int_);
}

Status MostFrequentImputer::Fit(const std::vector<Value>& column) {
  std::map<Value, size_t> counts;  // Ordered: deterministic tie-break.
  for (const Value& v : column) {
    if (!v.is_null()) ++counts[v];
  }
  if (counts.empty()) {
    return Status::InvalidArgument("no observed values to fit on");
  }
  size_t best = 0;
  for (const auto& [value, count] : counts) {
    if (count > best) {
      best = count;
      mode_ = value;
    }
  }
  fitted_ = true;
  return Status::OK();
}

Value MostFrequentImputer::FillValue() const {
  NDE_CHECK(fitted_);
  return mode_;
}

Result<std::vector<size_t>> ImputeColumn(Table* table,
                                         const std::string& column,
                                         Imputer* imputer) {
  if (table == nullptr || imputer == nullptr) {
    return Status::InvalidArgument("table and imputer must be non-null");
  }
  NDE_ASSIGN_OR_RETURN(size_t col, table->schema().FieldIndex(column));
  NDE_RETURN_IF_ERROR(imputer->Fit(table->column(col)));
  Value fill = imputer->FillValue();
  std::vector<size_t> repaired;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    if (table->At(r, col).is_null()) {
      NDE_RETURN_IF_ERROR(table->SetCell(r, col, fill));
      repaired.push_back(r);
    }
  }
  return repaired;
}

Result<std::vector<size_t>> KnnImputeColumn(
    Table* table, const std::string& column,
    const std::vector<std::string>& feature_columns, size_t k) {
  if (table == nullptr) {
    return Status::InvalidArgument("table must be non-null");
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  NDE_ASSIGN_OR_RETURN(size_t target, table->schema().FieldIndex(column));
  if (table->schema().field(target).type == DataType::kString) {
    return Status::InvalidArgument("KNN imputation targets numeric columns");
  }
  std::vector<size_t> feature_idx;
  for (const std::string& name : feature_columns) {
    NDE_ASSIGN_OR_RETURN(size_t idx, table->schema().FieldIndex(name));
    if (table->schema().field(idx).type == DataType::kString) {
      return Status::InvalidArgument(
          StrFormat("feature column '%s' must be numeric", name.c_str()));
    }
    feature_idx.push_back(idx);
  }
  if (feature_idx.empty()) {
    return Status::InvalidArgument("KNN imputation needs feature columns");
  }

  size_t n = table->num_rows();
  // Observed donor rows: target non-null and all features non-null.
  std::vector<size_t> donors;
  for (size_t r = 0; r < n; ++r) {
    if (table->At(r, target).is_null()) continue;
    bool usable = true;
    for (size_t f : feature_idx) {
      if (table->At(r, f).is_null()) {
        usable = false;
        break;
      }
    }
    if (usable) donors.push_back(r);
  }
  if (donors.empty()) {
    return Status::FailedPrecondition("no complete donor rows available");
  }
  double donor_mean = 0.0;
  for (size_t r : donors) donor_mean += table->At(r, target).AsNumeric();
  donor_mean /= static_cast<double>(donors.size());
  bool is_int = table->schema().field(target).type == DataType::kInt64;

  std::vector<size_t> repaired;
  std::vector<double> dist(n);  // Distance to each donor row.
  std::vector<size_t> nearest;
  for (size_t r = 0; r < n; ++r) {
    if (!table->At(r, target).is_null()) continue;
    // A row with a null feature has no distance to any donor: it takes the
    // donor mean.
    bool comparable = true;
    for (size_t f : feature_idx) comparable &= !table->At(r, f).is_null();
    double fill = donor_mean;
    if (comparable) {
      for (size_t donor : donors) {
        double acc = 0.0;
        for (size_t f : feature_idx) {
          double diff =
              table->At(r, f).AsNumeric() - table->At(donor, f).AsNumeric();
          acc += diff * diff;
        }
        dist[donor] = acc;
      }
      nearest = donors;
      KeepNearest(dist, k, &nearest);
      double total = 0.0;
      for (size_t donor : nearest) {
        total += table->At(donor, target).AsNumeric();
      }
      fill = total / static_cast<double>(nearest.size());
    }
    Value cell = is_int ? Value(static_cast<int64_t>(std::llround(fill)))
                        : Value(fill);
    NDE_RETURN_IF_ERROR(table->SetCell(r, target, cell));
    repaired.push_back(r);
  }
  return repaired;
}

}  // namespace nde
