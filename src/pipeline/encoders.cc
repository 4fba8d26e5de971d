#include "pipeline/encoders.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "telemetry/telemetry.h"

namespace nde {

NumericEncoder::NumericEncoder(bool standardize) : standardize_(standardize) {}

Status NumericEncoder::Fit(const std::vector<Value>& column) {
  double total = 0.0;
  size_t count = 0;
  for (const Value& v : column) {
    if (v.is_null()) continue;
    if (v.is_string()) {
      return Status::InvalidArgument("NumericEncoder requires numeric cells");
    }
    total += v.AsNumeric();
    ++count;
  }
  if (count == 0) {
    // An all-null numeric column has no mean to impute with; fitting it
    // silently would make Transform emit a fabricated constant 0 feature.
    return Status::InvalidArgument(
        "NumericEncoder fitted on all-null column");
  }
  mean_ = count > 0 ? total / static_cast<double>(count) : 0.0;
  double var = 0.0;
  for (const Value& v : column) {
    if (v.is_null()) continue;
    double diff = v.AsNumeric() - mean_;
    var += diff * diff;
  }
  double sd = count > 0 ? std::sqrt(var / static_cast<double>(count)) : 1.0;
  stddev_ = sd > 1e-12 ? sd : 1.0;
  fitted_ = true;
  return Status::OK();
}

void NumericEncoder::Transform(const Value& cell, double* out) const {
  NDE_CHECK(fitted_);
  double v = cell.is_null() ? mean_ : cell.AsNumeric();
  out[0] = standardize_ ? (v - mean_) / stddev_ : v;
}

std::unique_ptr<FeatureEncoder> NumericEncoder::Clone() const {
  auto clone = std::make_unique<NumericEncoder>(standardize_);
  *clone = *this;
  return clone;
}

OneHotEncoder::OneHotEncoder(bool impute_most_frequent)
    : impute_most_frequent_(impute_most_frequent) {}

Status OneHotEncoder::Fit(const std::vector<Value>& column) {
  categories_.clear();
  index_.clear();
  std::unordered_map<Value, size_t, ValueHash> counts;
  for (const Value& v : column) {
    if (v.is_null()) continue;
    ++counts[v];
  }
  if (counts.empty()) {
    return Status::InvalidArgument("OneHotEncoder fitted on all-null column");
  }
  // Categories in sorted order: refitting on a subset that preserves the
  // category set yields an identical encoding, which keeps what-if removal
  // comparisons meaningful.
  for (const auto& [value, count] : counts) {
    (void)count;
    categories_.push_back(value);
  }
  std::sort(categories_.begin(), categories_.end());
  for (size_t c = 0; c < categories_.size(); ++c) index_[categories_[c]] = c;
  most_frequent_ = 0;
  size_t best_count = 0;
  for (size_t c = 0; c < categories_.size(); ++c) {
    size_t count = counts[categories_[c]];
    if (count > best_count) {
      best_count = count;
      most_frequent_ = c;
    }
  }
  fitted_ = true;
  return Status::OK();
}

void OneHotEncoder::Transform(const Value& cell, double* out) const {
  NDE_CHECK(fitted_);
  std::fill(out, out + categories_.size(), 0.0);
  if (cell.is_null()) {
    if (impute_most_frequent_) out[most_frequent_] = 1.0;
    return;
  }
  auto it = index_.find(cell);
  if (it != index_.end()) out[it->second] = 1.0;
}

std::unique_ptr<FeatureEncoder> OneHotEncoder::Clone() const {
  auto clone = std::make_unique<OneHotEncoder>(impute_most_frequent_);
  *clone = *this;
  return clone;
}

HashingVectorizer::HashingVectorizer(size_t num_buckets)
    : num_buckets_(num_buckets) {
  NDE_CHECK_GE(num_buckets, 1u);
}

Status HashingVectorizer::Fit(const std::vector<Value>& column) {
  (void)column;  // Stateless: hashing needs no statistics.
  return Status::OK();
}

void HashingVectorizer::Transform(const Value& cell, double* out) const {
  std::fill(out, out + num_buckets_, 0.0);
  if (cell.is_null()) return;
  NDE_CHECK(cell.is_string()) << "HashingVectorizer requires string cells";
  // Whitespace tokenization with FNV-1a token hashing; the hash's low bit
  // picks the sign (feature hashing trick) to reduce bucket-collision bias.
  const std::string& text = cell.as_string();
  size_t start = 0;
  while (start < text.size()) {
    while (start < text.size() && text[start] == ' ') ++start;
    size_t end = start;
    while (end < text.size() && text[end] != ' ') ++end;
    if (end > start) {
      uint64_t h = 1469598103934665603ULL;
      for (size_t i = start; i < end; ++i) {
        h ^= static_cast<unsigned char>(text[i]);
        h *= 1099511628211ULL;
      }
      double sign = (h & 1) ? 1.0 : -1.0;
      out[(h >> 1) % num_buckets_] += sign;
    }
    start = end;
  }
  double norm = 0.0;
  for (size_t i = 0; i < num_buckets_; ++i) norm += out[i] * out[i];
  if (norm > 0.0) {
    norm = std::sqrt(norm);
    for (size_t i = 0; i < num_buckets_; ++i) out[i] /= norm;
  }
}

std::unique_ptr<FeatureEncoder> HashingVectorizer::Clone() const {
  return std::make_unique<HashingVectorizer>(num_buckets_);
}

Status NotNullIndicatorEncoder::Fit(const std::vector<Value>& column) {
  (void)column;
  return Status::OK();
}

void NotNullIndicatorEncoder::Transform(const Value& cell, double* out) const {
  out[0] = cell.is_null() ? 0.0 : 1.0;
}

std::unique_ptr<FeatureEncoder> NotNullIndicatorEncoder::Clone() const {
  return std::make_unique<NotNullIndicatorEncoder>();
}

ColumnTransformer::ColumnTransformer(const ColumnTransformer& other) {
  *this = other;
}

ColumnTransformer& ColumnTransformer::operator=(const ColumnTransformer& other) {
  if (this == &other) return *this;
  entries_.clear();
  entries_.reserve(other.entries_.size());
  for (const Entry& e : other.entries_) {
    entries_.push_back(Entry{e.column, e.encoder->Clone(), e.weight});
  }
  fitted_ = other.fitted_;
  return *this;
}

void ColumnTransformer::Add(std::string column,
                            std::unique_ptr<FeatureEncoder> encoder,
                            double weight) {
  NDE_CHECK(encoder != nullptr);
  NDE_CHECK_GT(weight, 0.0);
  entries_.push_back(Entry{std::move(column), std::move(encoder), weight});
  fitted_ = false;
}

Status ColumnTransformer::Fit(const Table& table) {
  if (entries_.empty()) {
    return Status::FailedPrecondition("ColumnTransformer has no encoders");
  }
  NDE_FAILPOINT("encoder.fit");
  NDE_TRACE_SPAN_VAR(span, "ColumnTransformer::Fit", "encoder");
  NDE_SPAN_ARG(span, "rows", static_cast<int64_t>(table.num_rows()));
  for (Entry& e : entries_) {
    NDE_ASSIGN_OR_RETURN(const std::vector<Value>* column,
                         table.ColumnByName(e.column));
    NDE_TRACE_SPAN_VAR(fit_span,
                       telemetry::Enabled()
                           ? StrFormat("fit %s(%s)", e.encoder->name().c_str(),
                                       e.column.c_str())
                           : std::string(),
                       "encoder");
    NDE_RETURN_IF_ERROR(e.encoder->Fit(*column));
    NDE_METRIC_RECORD("encoder.fit_ms", fit_span.ElapsedMs());
  }
  NDE_METRIC_COUNT("encoder.fits", 1);
  fitted_ = true;
  return Status::OK();
}

Result<Matrix> ColumnTransformer::Transform(const Table& table) const {
  if (!fitted_) {
    return Status::FailedPrecondition("ColumnTransformer is not fitted");
  }
  NDE_FAILPOINT("encoder.transform");
  NDE_TRACE_SPAN_VAR(span, "ColumnTransformer::Transform", "encoder");
  NDE_SPAN_ARG(span, "rows", static_cast<int64_t>(table.num_rows()));
  std::vector<const std::vector<Value>*> columns;
  columns.reserve(entries_.size());
  for (const Entry& e : entries_) {
    NDE_ASSIGN_OR_RETURN(const std::vector<Value>* column,
                         table.ColumnByName(e.column));
    columns.push_back(column);
  }
  size_t rows = table.num_rows();
  Matrix out(rows, num_features());
  // One task per block of rows runs every encoder over its rows and writes
  // only those rows of `out`. Encoders are const and allocate nothing here,
  // so the workers allocate nothing either.
  auto transform_block = [&](size_t block) {
    size_t begin = block * kRowBlock;
    size_t end = std::min(rows, begin + kRowBlock);
    size_t offset = 0;
    for (size_t c = 0; c < entries_.size(); ++c) {
      const Entry& e = entries_[c];
      const std::vector<Value>& column = *columns[c];
      size_t block_width = e.encoder->num_features();
      for (size_t r = begin; r < end; ++r) {
        double* cells = out.RowPtr(r) + offset;
        e.encoder->Transform(column[r], cells);
        if (e.weight != 1.0) {
          for (size_t j = 0; j < block_width; ++j) cells[j] *= e.weight;
        }
      }
      offset += block_width;
    }
  };
  NDE_RETURN_IF_ERROR(TryParallelFor(0, NumRowBlocks(rows), transform_block,
                                     0, "encoder.transform_block")
                          .status());
  NDE_METRIC_RECORD("encoder.transform_ms", span.ElapsedMs());
  NDE_METRIC_COUNT("encoder.transforms", 1);
  NDE_METRIC_COUNT("encoder.transform_rows", rows);
  return out;
}

Result<Matrix> ColumnTransformer::FitTransform(const Table& table) {
  NDE_RETURN_IF_ERROR(Fit(table));
  return Transform(table);
}

size_t ColumnTransformer::num_features() const {
  NDE_CHECK(fitted_);
  size_t total = 0;
  for (const Entry& e : entries_) total += e.encoder->num_features();
  return total;
}

bool ColumnTransformer::is_row_local() const {
  for (const Entry& e : entries_) {
    if (!e.encoder->is_row_local()) return false;
  }
  return true;
}

Result<ColumnTransformer> MakeAutoTransformer(
    const Table& table, const std::vector<std::string>& exclude,
    size_t max_onehot_cardinality, size_t text_hash_buckets) {
  ColumnTransformer transformer;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& field = table.schema().field(c);
    if (std::find(exclude.begin(), exclude.end(), field.name) !=
        exclude.end()) {
      continue;
    }
    if (field.type == DataType::kDouble || field.type == DataType::kInt64) {
      if (table.CountNulls(c) == table.num_rows()) continue;  // All null.
      transformer.Add(field.name, std::make_unique<NumericEncoder>());
      continue;
    }
    // String column: one-hot when low-cardinality, hashed text otherwise.
    // Counting stops once the column is known to be past the one-hot limit.
    std::unordered_set<Value, ValueHash> distinct;
    for (const Value& v : table.column(c)) {
      if (v.is_null()) continue;
      distinct.insert(v);
      if (distinct.size() > max_onehot_cardinality) break;
    }
    if (distinct.empty()) continue;
    if (distinct.size() <= max_onehot_cardinality) {
      transformer.Add(field.name, std::make_unique<OneHotEncoder>());
    } else {
      transformer.Add(field.name,
                      std::make_unique<HashingVectorizer>(text_hash_buckets));
    }
  }
  // Fit eagerly: validates that at least one encodable column exists and
  // returns a ready-to-Transform transformer.
  NDE_RETURN_IF_ERROR(transformer.Fit(table));
  return transformer;
}

std::string ColumnTransformer::DebugString() const {
  std::vector<std::string> parts;
  parts.reserve(entries_.size());
  for (const Entry& e : entries_) {
    std::string part = e.column + " -> " + e.encoder->name();
    if (e.weight != 1.0) part += StrFormat(" (x%g)", e.weight);
    parts.push_back(std::move(part));
  }
  return JoinStrings(parts, "; ");
}

}  // namespace nde
