#ifndef MINERULE_POSTPROCESS_POSTPROCESSOR_H_
#define MINERULE_POSTPROCESS_POSTPROCESSOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "mining/rule.h"
#include "preprocess/preprocessor.h"

namespace minerule::mr {

/// Where the output landed: three normalized tables as §4.4 prescribes
/// (the set-typed output of the conceptual operator is normalized because
/// SQL3 set constructors "are not standardized and not yet available").
struct PostprocessResult {
  std::string rules_table;   // <out>(BodyId, HeadId[, SUPPORT][, CONFIDENCE])
  std::string bodies_table;  // <out>_Bodies(BodyId, <body schema>)
  std::string heads_table;   // <out>_Heads(HeadId, <head schema>)
  int64_t num_rules = 0;
};

/// The postprocessor of §4.4. The encoded rules arrive as the core
/// operator's in-memory output; this component materializes the normalized
/// OutputBodies/OutputHeads relations and then decodes them into
/// user-readable tables via generated SQL joins against Bset/Hset —
/// exactly the postprocessing query shown at the end of Appendix A.
class Postprocessor {
 public:
  explicit Postprocessor(sql::SqlEngine* engine) : engine_(engine) {}

  /// Materializes and decodes `rules`; appends one QueryStat per decoding
  /// query (POST0..POST3) to `stats` when it is non-null.
  Result<PostprocessResult> Run(const MineRuleStatement& stmt,
                                const Translation& translation,
                                const std::vector<mining::MinedRule>& rules,
                                int64_t total_groups,
                                const PreprocessProgram& program,
                                std::vector<QueryStat>* stats = nullptr);

 private:
  sql::SqlEngine* engine_;
};

/// Renders the mined rules in the paper's Figure 2.b format — one row per
/// rule with "{item, item}" set notation — by joining the three output
/// tables back together. Intended for examples and golden tests.
Result<std::string> RenderRuleTable(sql::SqlEngine* engine,
                                    const MineRuleStatement& stmt);

}  // namespace minerule::mr

#endif  // MINERULE_POSTPROCESS_POSTPROCESSOR_H_
