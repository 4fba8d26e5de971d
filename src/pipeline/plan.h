#ifndef NDE_PIPELINE_PLAN_H_
#define NDE_PIPELINE_PLAN_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "pipeline/provenance.h"

namespace nde {

/// A table whose rows carry why-provenance back to pipeline source tables.
struct AnnotatedTable {
  Table table;
  std::vector<RowProvenance> provenance;  ///< one entry per table row

  Status Validate() const;
};

/// The rows of `in` at `kept`, row indices in increasing order, with their
/// provenance moved out of `in`. When `kept` is every row, `in` itself is
/// returned: no column is gathered and no provenance entry is touched.
AnnotatedTable KeepRows(AnnotatedTable in, const std::vector<size_t>& kept);

/// Lightweight accessor for one row during predicate / UDF evaluation.
class RowView {
 public:
  RowView(const Table* table, size_t row) : table_(table), row_(row) {}

  /// Cell by column name; NotFound for unknown columns.
  Result<Value> Get(const std::string& column) const;

  /// Cell by column name; aborts on unknown columns (for trusted UDFs).
  const Value& GetOrDie(const std::string& column) const;

  size_t row_index() const { return row_; }
  const Table& table() const { return *table_; }

 private:
  const Table* table_;
  size_t row_;
};

/// Row predicate used by Filter.
using RowPredicate = std::function<bool(const RowView&)>;
/// Row-level UDF producing one cell, used by Project's computed columns.
using RowUdf = std::function<Value(const RowView&)>;

/// A node in the logical pipeline plan. Plans are immutable DAGs built from
/// shared_ptr edges; `Execute` evaluates the subtree bottom-up, threading
/// row-level provenance through every operator.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  /// Evaluates this subtree to an annotated table. Non-virtual: wraps the
  /// operator's ExecuteImpl with per-operator instrumentation — a telemetry
  /// span + operator metrics when telemetry is enabled, and rows/wall-time
  /// stats when a PlanProfiler is active on this thread. With neither, it is
  /// a plain virtual dispatch.
  Result<AnnotatedTable> Execute() const;

  /// Operator label, e.g. "Filter(sector == healthcare)".
  virtual std::string label() const = 0;

  /// Child nodes (inputs), empty for sources.
  virtual std::vector<const PlanNode*> children() const = 0;

 private:
  /// The operator's actual evaluation; implementations execute their inputs
  /// via the instrumented `child->Execute()`.
  virtual Result<AnnotatedTable> ExecuteImpl() const = 0;
};

using PlanNodePtr = std::shared_ptr<const PlanNode>;

/// Per-operator execution statistics collected by a PlanProfiler.
struct OperatorStats {
  size_t invocations = 0;
  size_t rows_out = 0;   ///< cumulative over invocations
  double wall_ms = 0.0;  ///< inclusive: children's execution time included
};

/// RAII collector of per-operator stats: while an instance is alive on the
/// current thread, every PlanNode::Execute on that thread reports into it
/// (profilers nest; the innermost wins). Keyed by node identity, so one
/// profiler can cover repeated executions of the same plan.
class PlanProfiler {
 public:
  PlanProfiler();
  ~PlanProfiler();

  PlanProfiler(const PlanProfiler&) = delete;
  PlanProfiler& operator=(const PlanProfiler&) = delete;

  /// The profiler currently active on this thread, or nullptr.
  static PlanProfiler* Active();

  void Record(const PlanNode* node, size_t rows_out, double wall_ms);

  /// Stats for `node`, or nullptr when it never executed under this profiler.
  const OperatorStats* StatsFor(const PlanNode& node) const;

  /// Indented plan rendering annotated with per-operator timings:
  ///   label  [rows_in -> rows_out, total ms, self ms]
  /// where self-time subtracts the children's inclusive time and rows_in is
  /// the sum of the children's rows_out.
  std::string AnnotatedPlan(const PlanNode& root) const;

 private:
  PlanProfiler* previous_;
  std::map<const PlanNode*, OperatorStats> stats_;
};

/// Leaf scanning a registered source table. Every row r is annotated with
/// provenance {(table_id, r)}.
PlanNodePtr MakeSource(int32_t table_id, std::string name, Table table);

/// Keeps rows satisfying `predicate`. `description` is used in plan labels.
PlanNodePtr MakeFilter(PlanNodePtr input, std::string description,
                       RowPredicate predicate);

/// Convenience filter: keeps rows where `column` equals `value`
/// (nulls never match).
PlanNodePtr MakeFilterEquals(PlanNodePtr input, const std::string& column,
                             Value value);

/// Projects to `columns` (in order), then appends computed columns, each
/// produced by a UDF over the *input* row.
struct ComputedColumn {
  Field field;
  RowUdf udf;
};
PlanNodePtr MakeProject(PlanNodePtr input, std::vector<std::string> columns,
                        std::vector<ComputedColumn> computed = {});

/// Inner hash equi-join on left_key == right_key (null keys never match).
/// Output schema: all left columns, then right columns except `right_key`;
/// right column names colliding with left ones get an "_r" suffix. Output
/// provenance is the merge (monomial product) of the matched rows'.
PlanNodePtr MakeHashJoin(PlanNodePtr left, PlanNodePtr right,
                         std::string left_key, std::string right_key);

/// Inner fuzzy join for string keys: rows match when the edit distance
/// between their keys is <= max_edit_distance. Each left row joins all
/// matching right rows. Same schema/provenance rules as the hash join.
PlanNodePtr MakeFuzzyJoin(PlanNodePtr left, PlanNodePtr right,
                          std::string left_key, std::string right_key,
                          size_t max_edit_distance);

/// --- Plan rendering ---------------------------------------------------------

/// Indented text rendering of the plan tree (Figure 3's "query plan" view).
std::string PlanToString(const PlanNode& root);

/// Graphviz DOT rendering of the plan DAG.
std::string PlanToDot(const PlanNode& root);

}  // namespace nde

#endif  // NDE_PIPELINE_PLAN_H_
