#ifndef NDE_DATA_TABLE_H_
#define NDE_DATA_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/value.h"

namespace nde {

/// A named, typed column descriptor.
struct Field {
  std::string name;
  DataType type;

  friend bool operator==(const Field& a, const Field& b) {
    return a.name == b.name && a.type == b.type;
  }
};

/// Ordered collection of fields describing a table's columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const {
    NDE_CHECK_LT(i, fields_.size());
    return fields_[i];
  }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the column named `name`, or NotFound.
  Result<size_t> FieldIndex(const std::string& name) const;

  /// True when a column named `name` exists.
  bool HasField(const std::string& name) const;

  /// Appends a field. Returns AlreadyExists on duplicate names.
  Status AddField(Field field);

  /// "name:type, name:type, ..." rendering.
  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.fields_ == b.fields_;
  }

 private:
  std::vector<Field> fields_;
};

/// Columnar in-memory table: a schema plus one `std::vector<Value>` per
/// column, all of equal length. The substrate that pipeline operators
/// consume and produce.
///
/// Tables are value types (copyable); pipeline operators produce new tables
/// rather than mutating inputs, which keeps provenance reasoning simple.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  /// Builds a table from a schema and row-major cells. Every row must have
  /// schema.num_fields() cells of matching (or null) type.
  static Result<Table> FromRows(Schema schema,
                                std::vector<std::vector<Value>> rows);

  /// Builds a table from a schema and one column of cells per field, taking
  /// the columns over. Every column must have the same length and cells of
  /// its field's type (or null), as Validate() checks; a table that fails it
  /// is InvalidArgument.
  static Result<Table> FromColumns(Schema schema,
                                   std::vector<std::vector<Value>> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_fields(); }

  /// Column access by index / name.
  const std::vector<Value>& column(size_t i) const {
    NDE_CHECK_LT(i, columns_.size());
    return columns_[i];
  }
  Result<const std::vector<Value>*> ColumnByName(const std::string& name) const;

  /// Cell access. Preconditions: indices in range.
  const Value& At(size_t row, size_t col) const {
    NDE_CHECK_LT(col, columns_.size());
    NDE_CHECK_LT(row, num_rows_);
    return columns_[col][row];
  }

  /// Overwrites one cell; the value must match the column type or be null.
  Status SetCell(size_t row, size_t col, Value value);

  /// Copy of row `row` as a vector of cells.
  std::vector<Value> Row(size_t row) const;

  /// Appends a row. The row must have one cell per column, type-compatible.
  Status AppendRow(std::vector<Value> row);

  /// Appends all rows of `other`; schemas must be equal.
  Status AppendTable(const Table& other);

  /// Adds a new column with the given values (must have num_rows() entries,
  /// each null or of type `field.type`). Fails on duplicate name.
  Status AddColumn(Field field, std::vector<Value> values);

  /// Removes the column named `name`.
  Status DropColumn(const std::string& name);

  /// New table with only the given columns, in the given order.
  Result<Table> SelectColumns(const std::vector<std::string>& names) const;

  /// New table with the given rows (indices may repeat / reorder).
  Table SelectRows(const std::vector<size_t>& row_indices) const;

  /// Rows for which `predicate(row_index)` is true, plus the surviving row
  /// indices in `*kept` when non-null.
  Table FilterRows(const std::function<bool(size_t)>& predicate,
                   std::vector<size_t>* kept = nullptr) const;

  /// Number of nulls in column `col`.
  size_t CountNulls(size_t col) const;

  /// Validates internal consistency: column lengths, value/type agreement.
  Status Validate() const;

  /// Pretty table rendering for debugging (truncated).
  std::string DebugString(size_t max_rows = 10) const;

 private:
  Schema schema_;
  std::vector<std::vector<Value>> columns_;
  size_t num_rows_ = 0;
};

/// Convenience builder for assembling tables column-by-column in tests,
/// generators and examples.
///
///     Table t = TableBuilder()
///                   .AddDoubleColumn("age", {34, 51})
///                   .AddStringColumn("sector", {"tech", "healthcare"})
///                   .Build();
class TableBuilder {
 public:
  TableBuilder& AddDoubleColumn(const std::string& name,
                                std::vector<double> values);
  TableBuilder& AddInt64Column(const std::string& name,
                               std::vector<int64_t> values);
  TableBuilder& AddStringColumn(const std::string& name,
                                std::vector<std::string> values);
  /// Adds a column of raw values (may contain nulls).
  TableBuilder& AddValueColumn(const std::string& name, DataType type,
                               std::vector<Value> values);

  /// Finalizes the table; aborts on inconsistent column lengths (builder
  /// misuse is a programming error, not an input error).
  Table Build();

 private:
  std::vector<Field> fields_;
  std::vector<std::vector<Value>> columns_;
};

}  // namespace nde

#endif  // NDE_DATA_TABLE_H_
