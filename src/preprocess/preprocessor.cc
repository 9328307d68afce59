#include "preprocess/preprocessor.h"

#include "common/stopwatch.h"
#include "common/trace.h"
#include "mining/simple_miner.h"

namespace minerule::mr {

Result<PreprocessResult> Preprocessor::Run(const MineRuleStatement& stmt,
                                           const Translation& translation) {
  MR_ASSIGN_OR_RETURN(PreprocessProgram program,
                      GeneratePreprocessProgram(stmt, translation));
  return RunProgram(std::move(program), stmt.min_support);
}

Result<PreprocessResult> Preprocessor::RunProgram(PreprocessProgram program,
                                                  double min_support) {
  PreprocessResult result;

  for (const GeneratedQuery& q : program.drops) {
    MR_RETURN_IF_ERROR(engine_->Execute(q.sql).status());
  }
  for (const GeneratedQuery& q : program.setup) {
    ScopedSpan span("preprocess." + q.id, "query");
    Stopwatch watch;
    MR_ASSIGN_OR_RETURN(sql::QueryResult setup_result,
                        engine_->Execute(q.sql));
    result.stats.push_back({q.id, "preprocess", q.sql, watch.ElapsedMicros(),
                            0, std::move(setup_result.profile)});
  }
  for (const GeneratedQuery& q : program.queries) {
    ScopedSpan span("preprocess." + q.id, "query");
    Stopwatch watch;
    MR_ASSIGN_OR_RETURN(sql::QueryResult query_result,
                        engine_->Execute(q.sql));
    const int64_t rows = query_result.affected_rows > 0
                             ? query_result.affected_rows
                             : static_cast<int64_t>(query_result.rows.size());
    result.stats.push_back({q.id, "preprocess", q.sql, watch.ElapsedMicros(),
                            rows, std::move(query_result.profile)});

    if (q.computes_group_total) {
      MR_ASSIGN_OR_RETURN(Value totg, engine_->GetHostVariable("totg"));
      if (totg.type() != DataType::kInteger) {
        return Status::Internal(":totg is not an integer");
      }
      result.total_groups = totg.AsInteger();
      result.min_group_count =
          mining::MinGroupCount(min_support, result.total_groups);
      engine_->SetHostVariable(
          "mingroups", Value::Integer(result.min_group_count));
    }
  }
  result.program = std::move(program);
  return result;
}

}  // namespace minerule::mr
