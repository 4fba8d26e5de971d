#ifndef NDE_PIPELINE_ENCODERS_H_
#define NDE_PIPELINE_ENCODERS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "linalg/matrix.h"

namespace nde {

/// One column-to-features encoder of the ColumnTransformer (the pipeline's
/// `feature_encoder` stage in Figure 3).
///
/// Lifecycle: `Fit` on the training column values, then `Transform` cell by
/// cell. `is_row_local()` reports whether Transform's output for a cell is
/// independent of the other rows *given the fitted state* is held fixed —
/// always true — and additionally whether the fitted state itself is
/// row-insensitive (e.g. a hashing vectorizer needs no statistics at all).
/// Row-local encoders make provenance-based what-if removal exact without
/// refitting.
class FeatureEncoder {
 public:
  virtual ~FeatureEncoder() = default;

  /// Learns encoding state from the training column.
  virtual Status Fit(const std::vector<Value>& column) = 0;

  /// Encodes one cell into `num_features()` doubles. Precondition: fitted.
  virtual void Transform(const Value& cell, double* out) const = 0;

  /// Width of the encoded block. Precondition: fitted.
  virtual size_t num_features() const = 0;

  /// True when the fitted state does not depend on the training data, so a
  /// fit on any subset yields identical transforms.
  virtual bool is_row_local() const = 0;

  virtual std::string name() const = 0;
  virtual std::unique_ptr<FeatureEncoder> Clone() const = 0;
};

/// Passes a numeric column through with optional standardization; nulls are
/// imputed with the fitted mean.
class NumericEncoder : public FeatureEncoder {
 public:
  explicit NumericEncoder(bool standardize = true);

  Status Fit(const std::vector<Value>& column) override;
  void Transform(const Value& cell, double* out) const override;
  size_t num_features() const override { return 1; }
  bool is_row_local() const override { return false; }
  std::string name() const override { return "numeric"; }
  std::unique_ptr<FeatureEncoder> Clone() const override;

 private:
  bool standardize_;
  double mean_ = 0.0;
  double stddev_ = 1.0;
  bool fitted_ = false;
};

/// One-hot encodes a categorical (string or int64) column. Categories are the
/// distinct non-null fitted values in sorted order; unknown categories at
/// transform time map to all zeros. Nulls are imputed with the most frequent
/// fitted category (the Imputer+OneHotEncoder sub-pipeline of Figure 3),
/// unless `impute_most_frequent` is false, in which case nulls also map to
/// all zeros.
class OneHotEncoder : public FeatureEncoder {
 public:
  explicit OneHotEncoder(bool impute_most_frequent = true);

  Status Fit(const std::vector<Value>& column) override;
  void Transform(const Value& cell, double* out) const override;
  size_t num_features() const override { return categories_.size(); }
  bool is_row_local() const override { return false; }
  std::string name() const override { return "onehot"; }
  std::unique_ptr<FeatureEncoder> Clone() const override;

  const std::vector<Value>& categories() const { return categories_; }

 private:
  bool impute_most_frequent_;
  std::vector<Value> categories_;
  std::unordered_map<Value, size_t, ValueHash> index_;
  size_t most_frequent_ = 0;
  bool fitted_ = false;
};

/// Hashed bag-of-words vectorizer for text columns: whitespace tokenization,
/// token counts hashed into `num_buckets` signed buckets, L2-normalized.
/// Our stand-in for the paper's SentenceBERT embedding: a costly, wide text
/// featurizer that is fully row-local (needs no fit statistics).
class HashingVectorizer : public FeatureEncoder {
 public:
  explicit HashingVectorizer(size_t num_buckets = 64);

  Status Fit(const std::vector<Value>& column) override;
  void Transform(const Value& cell, double* out) const override;
  size_t num_features() const override { return num_buckets_; }
  bool is_row_local() const override { return true; }
  std::string name() const override { return "hashing_vectorizer"; }
  std::unique_ptr<FeatureEncoder> Clone() const override;

 private:
  size_t num_buckets_;
};

/// Binary indicator: 1.0 when the cell is non-null, else 0.0 (e.g. the
/// `has_twitter` feature of Figure 3 as an encoder instead of a UDF).
class NotNullIndicatorEncoder : public FeatureEncoder {
 public:
  Status Fit(const std::vector<Value>& column) override;
  void Transform(const Value& cell, double* out) const override;
  size_t num_features() const override { return 1; }
  bool is_row_local() const override { return true; }
  std::string name() const override { return "notnull_indicator"; }
  std::unique_ptr<FeatureEncoder> Clone() const override;
};

/// Applies one encoder per configured column and concatenates the blocks —
/// the scikit-learn ColumnTransformer analogue.
class ColumnTransformer {
 public:
  ColumnTransformer() = default;
  ColumnTransformer(const ColumnTransformer& other);
  ColumnTransformer& operator=(const ColumnTransformer& other);
  ColumnTransformer(ColumnTransformer&&) noexcept = default;
  ColumnTransformer& operator=(ColumnTransformer&&) noexcept = default;

  /// Registers `encoder` for `column`. Order of registration defines feature
  /// block order. `weight` multiplies the encoded block (scikit-learn's
  /// `transformer_weights`): distance-based models need commensurate block
  /// scales, and a wide normalized text block would otherwise be drowned out
  /// by a handful of unit-variance numeric features.
  void Add(std::string column, std::unique_ptr<FeatureEncoder> encoder,
           double weight = 1.0);

  /// Fits every encoder on its column of `table`.
  Status Fit(const Table& table);

  /// Encodes every row of `table` into an n x num_features() matrix. Blocks
  /// of kRowBlock rows (common/parallel.h) fan out on the process-default
  /// thread count; the matrix does not depend on it. A lost pool task
  /// returns its typed Status.
  /// Precondition: fitted; table must contain all configured columns.
  Result<Matrix> Transform(const Table& table) const;

  /// Fit + Transform.
  Result<Matrix> FitTransform(const Table& table);

  /// Total encoded width. Precondition: fitted.
  size_t num_features() const;

  /// True when every registered encoder is row-local.
  bool is_row_local() const;

  bool fitted() const { return fitted_; }

  /// "column -> encoder" summary lines for plan rendering.
  std::string DebugString() const;

 private:
  struct Entry {
    std::string column;
    std::unique_ptr<FeatureEncoder> encoder;
    double weight = 1.0;
  };
  std::vector<Entry> entries_;
  bool fitted_ = false;
};

/// Builds a sensible default transformer for a table by inspecting its
/// schema: numeric columns get standardized NumericEncoders; string columns
/// with at most `max_onehot_cardinality` distinct values get one-hot
/// encoders; wider string columns are treated as text and hashed. Columns in
/// `exclude` (e.g. the label and id columns) are skipped. Fails when nothing
/// encodable remains.
Result<ColumnTransformer> MakeAutoTransformer(
    const Table& table, const std::vector<std::string>& exclude,
    size_t max_onehot_cardinality = 16, size_t text_hash_buckets = 32);

}  // namespace nde

#endif  // NDE_PIPELINE_ENCODERS_H_
