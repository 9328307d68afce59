#ifndef MINERULE_PREPROCESS_PREPROCESSOR_H_
#define MINERULE_PREPROCESS_PREPROCESSOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "preprocess/query_gen.h"
#include "sql/engine.h"

namespace minerule::mr {

/// The per-query record lives in the SQL layer next to OperatorProfile; the
/// mr:: name stays for callers that spell it that way.
using sql::QueryStat;

/// The outcome of the preprocessing phase: the encoded tables are in the
/// catalog; this struct carries the numbers and table names the core
/// operator and postprocessor need.
struct PreprocessResult {
  int64_t total_groups = 0;     // :totg (Q1)
  int64_t min_group_count = 0;  // :mingroups = ceil(min_support * totg)
  PreprocessProgram program;    // includes the encoded-table names
  std::vector<QueryStat> stats;
};

/// The preprocessor of §4.2: runs the generated SQL program through the
/// SQL engine (that is the whole point — every step up to the core operator
/// is plain SQL), maintaining the :totg / :mingroups host variables exactly
/// as Appendix A's queries expect.
class Preprocessor {
 public:
  explicit Preprocessor(sql::SqlEngine* engine) : engine_(engine) {}

  Result<PreprocessResult> Run(const MineRuleStatement& stmt,
                               const Translation& translation);

  /// Runs a previously generated program (used when replaying a cached
  /// program against fresh data).
  Result<PreprocessResult> RunProgram(PreprocessProgram program,
                                      double min_support);

 private:
  sql::SqlEngine* engine_;
};

}  // namespace minerule::mr

#endif  // MINERULE_PREPROCESS_PREPROCESSOR_H_
