#ifndef MINERULE_SQL_PLANNER_H_
#define MINERULE_SQL_PLANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "sql/operators.h"

namespace minerule::sql {

struct TableStats;  // sql/statistics.h

/// A planned SELECT: an executable node tree plus its output schema.
struct PlannedSelect {
  ExecNodePtr node;
  Schema out_schema;

  /// Planned from statistics only: (fingerprint, node) pairs whose observed
  /// row counts the engine records into PlanFeedback after the plan ran to
  /// completion. Empty when the statement carries a LIMIT anywhere (early
  /// termination would record undercounts) or no FROM list was planned
  /// from statistics.
  std::vector<std::pair<std::string, const ExecNode*>> feedback;
};

/// Translates SELECT ASTs into executor trees.
///
/// Join planning is left-deep in FROM order: for each table joined in, the
/// planner harvests equality conjuncts from WHERE whose two sides bind
/// against the accumulated left side and the incoming table respectively and
/// uses them as hash-join keys; tables without usable keys fall back to a
/// nested-loop (cross) join. Every other conjunct is placed where it first
/// binds (DESIGN.md §14): one that binds in a single input filters that
/// input below the join, and one that spans inputs is the residual of the
/// join that completes it, checked on each candidate pair before the pair is
/// concatenated. This is what makes the preprocessor's multi-way encoding
/// joins (Q4) and the elementary-rule self-join (Q8) run in roughly linear
/// time.
///
/// One rule decides whether a FROM list is planned from statistics
/// (DESIGN.md §14): every entry must be a base table whose statistics
/// ANALYZE created on that same table object. Then the planner estimates
/// cardinalities from those statistics and plan feedback and uses them to
/// (a) push pure single-table conjuncts onto their scans, (b) reorder joins
/// when a cheaper left-deep order exists — restoring the canonical output
/// order afterwards through hidden per-table row numbers and a final sort,
/// and (c) size the spill fan-out; every hash join builds over its right
/// input either way. Every one of these choices is result-transparent. Any
/// other FROM list — generated queries over freshly created scratch tables,
/// views, subqueries — keeps the FROM-order plan above.
class Planner {
 public:
  Planner(Catalog* catalog, ExecContext* ctx)
      : catalog_(catalog), ctx_(ctx) {}

  /// Plans a select statement. The statement's expressions are bound in
  /// place, so a SelectStmt must be planned at most once.
  Result<PlannedSelect> Plan(SelectStmt* stmt);

  /// Deepest nesting of views and subqueries Plan expands.
  static constexpr int kMaxViewDepth = 16;

 private:
  Result<PlannedSelect> PlanImpl(SelectStmt* stmt, int depth);
  Result<std::pair<ExecNodePtr, BindScope>> PlanTableRef(TableRef* ref,
                                                         int depth);
  Result<std::pair<ExecNodePtr, BindScope>> PlanFromWhere(SelectStmt* stmt,
                                                          int depth);

  /// Per-step hooks through which PlanFromWhereCostBased annotates
  /// BuildLeftDeep's nodes; the FROM-order plan leaves them empty.
  struct JoinHooks {
    /// Before input `t` joins in.
    std::function<void(size_t t)> before_join;
    /// On each node placed: a join, or a filter over one input.
    std::function<void(ExecNode* node, bool join)> placed;
    /// After input `t` joined.
    std::function<void(const ExecNode* top)> after_join;
  };

  /// The one left-deep build: joins `inputs` in `order`, harvesting
  /// equi-join keys between the accumulated side and each incoming input
  /// (hash join; nested loop without keys). Every conjunct not yet
  /// `applied` goes where it first binds: a filter over the one input it
  /// references (unless any conjunct contains NEXTVAL), or the residual of
  /// the join that makes it bindable.
  Result<std::pair<ExecNodePtr, BindScope>> BuildLeftDeep(
      std::vector<ExecNodePtr> inputs, std::vector<BindScope> scopes,
      const std::vector<size_t>& order, std::vector<ExprPtr>* conjuncts,
      std::vector<bool> applied, const JoinHooks& hooks);

  /// True when every FROM entry is a base table with ANALYZE-created
  /// statistics (the planner's rule); fills the tables and their stats.
  bool AnalyzedFrom(const std::vector<TableRef>& from,
                    std::vector<std::shared_ptr<Table>>* tables,
                    std::vector<const TableStats*>* table_stats);

  /// FROM/WHERE planning from statistics; the caller checked the rule and
  /// that no conjunct contains NEXTVAL or an aggregate.
  Result<std::pair<ExecNodePtr, BindScope>> PlanFromWhereCostBased(
      std::vector<ExecNodePtr> nodes, std::vector<BindScope> scopes,
      std::vector<ExprPtr> conjuncts,
      const std::vector<std::shared_ptr<Table>>& tables,
      const std::vector<const TableStats*>& table_stats);

  /// Spill fan-out sizing, decided once per top-level statement when its
  /// FROM list is analyzed and a memory budget is set.
  void TuneExecution(SelectStmt* stmt);

  Catalog* catalog_;
  ExecContext* ctx_;
  std::vector<std::pair<std::string, const ExecNode*>> feedback_points_;
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_PLANNER_H_
