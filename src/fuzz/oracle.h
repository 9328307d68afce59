#ifndef MINERULE_FUZZ_ORACLE_H_
#define MINERULE_FUZZ_ORACLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "fuzz/workload_gen.h"

namespace minerule::fuzz {

struct OracleOptions {
  /// The N of the {1, N} thread-count sweep.
  int threads = 4;
  bool run_decoupled = true;
  bool run_reference = true;
  bool run_metamorphic = true;
  bool run_alternate_algorithm = true;
  bool run_duplicate_invariance = true;
  /// Re-runs the pipeline with a tiny SQL memory budget (DESIGN.md §13) so
  /// every buffering operator spills to disk, at 1 and `threads` workers;
  /// the catalog dump must match the in-memory baseline byte for byte. The
  /// unbudgeted baseline runs batches over the scans' columnar images
  /// (DESIGN.md §12) while the serial budgeted run stays on rows, so this
  /// route is also the columnar-vs-row comparison.
  bool run_memory_budget = true;
  /// The budget the memory-budget route applies, in bytes.
  int64_t memory_budget_bytes = 1024;
  /// Replays the case through `concurrent_sessions` server sessions racing
  /// over one shared catalog (DESIGN.md §15): every session reads the
  /// source then runs the same MINE RULE; the final output tables must
  /// match the single-session baseline byte for byte, and each session
  /// statement must append exactly one mr_runs row.
  bool run_concurrent = true;
  int concurrent_sessions = 3;
  /// Observability invariant (DESIGN.md §16), checked after every case:
  /// mr_active_statements must be empty once all sessions are done, and
  /// each concurrent-route session's flight recorder must have recorded
  /// exactly the statements that session executed. Opt out with
  /// fuzz_minerule --no-oplog.
  bool run_oplog = true;
};

struct OracleFailure {
  std::string check;  // "thread-determinism", "reference-diff", ...
  std::string detail;
};

/// Everything the harness needs to know about one fuzz case after the
/// oracle ran it. A Status error from RunCase means the *harness* is broken
/// (e.g. the workload would not build); statement rejects are not errors —
/// they land in reject_stage/reject_reason.
struct CaseOutcome {
  bool executed = false;
  std::string reject_stage;   // "parse" | "translate" | "execute"
  std::string reject_reason;  // Status::ToString of the reject
  std::string directives;     // "HWMGCKFR" mask once translated
  int64_t num_rules = 0;
  int64_t total_groups = 0;
  /// Canonical byte dump of <out>, <out>_Bodies, <out>_Heads from the
  /// threads=1 baseline — the digest input, independent of which extra
  /// routes ran.
  std::string baseline_dump;
  std::vector<std::string> routes;  // which oracle routes actually ran
  std::vector<OracleFailure> failures;
};

/// Runs one (workload, statement) case through every applicable route:
///   pipeline@1 (baseline) vs pipeline@N vs pipeline with a rotated pool
///   algorithm vs a duplicate-row-perturbed workload; the decoupled miner
///   and the brute-force reference miner (simple class); metamorphic
///   variants (trivial mining condition, constant cluster, tautological /
///   trivially-true cluster conditions) that must not change the rules;
///   plus the per-run invariant checks.
Result<CaseOutcome> RunCase(const WorkloadSpec& spec,
                            const std::string& statement,
                            const OracleOptions& options);

}  // namespace minerule::fuzz

#endif  // MINERULE_FUZZ_ORACLE_H_
