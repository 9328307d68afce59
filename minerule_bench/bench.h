#ifndef MINERULE_BENCH_BENCH_H_
#define MINERULE_BENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/data_mining_system.h"
#include "relational/catalog.h"

namespace minerule::bench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline Clock::time_point DeadlineIn(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// One run as the command line asked for it.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool traced = false;
  std::string trace_out;  // traced runs: operator file, "" = none
};

/// SplitMix64: a small generator whose output is the same on every
/// platform (the standard distributions are not).
struct SplitMix64 {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

/// Host-speed calibration (README.md, "Host calibration"). A fixed kernel
/// (sort, then hash, 64Ki integers on every hardware thread at once) runs
/// in a separate process started from this program's own binary with
/// --calibrate, so it shares no heap, thread pool or cache state with the
/// code being measured. It is only run while no statement is executing:
/// between statements of a single client, and at barriers where every
/// server_mix client has stopped.
class HostCalibration {
 public:
  static constexpr double kReferenceSliceMs = 20.0;

  /// The binary to start with --calibrate (argv[0] of this process).
  static void SetProgram(std::string path);

  /// The body of `minerule_bench --calibrate`: times the kernel once and
  /// prints the milliseconds.
  static int RunKernel();

  /// Times the kernel once in a fresh process and keeps the time.
  Status Slice();

  /// Factor for the i-th interval of a loop that took one slice before its
  /// first interval and one after each: kReferenceSliceMs over the median
  /// of the two slices before and the two after it.
  double FactorAround(size_t i) const;

  /// Factor from the median of every slice.
  double Factor() const;
  double MedianSliceMs() const;

 private:
  std::vector<double> slices_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports: the statement counts, whether every output check
/// passed, and the metrics in the order they are printed. `raw` holds the
/// end-to-end metrics before host calibration.
struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<Metric> raw;

  /// Marks the run incorrect; the first few reasons are printed.
  void Fail(std::string why);
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

// --- the mining workloads ---------------------------------------------------

/// A workload whose load is a stream of MINE RULE statements from one
/// client. `statements` are issued round-robin; with `sweep` the
/// preprocessing cache is dropped at the start of each pass over them.
/// Options keep their defaults (num_threads = 0: every hardware thread)
/// except where a workload exists to change one.
struct MiningWorkload {
  std::string name;
  enum class Data { kRetail, kQuest } data = Data::kRetail;
  int64_t size = 0;  // customers (retail) or transactions (quest)
  std::vector<std::string> statements;
  mr::MiningOptions options;
  bool sweep = false;
  /// quest_budget: the reference result comes from one unbudgeted run.
  bool budget_reference = false;
};

/// The four single-client workloads by name; nullptr if `name` is not one.
const MiningWorkload* FindMiningWorkload(const std::string& name);

/// The retail data and general statement server_mix mines with.
MiningWorkload ServerMixMiningWorkload();

/// Rule count and a 64-bit FNV-1a digest of a decoded rules table.
struct RuleDigest {
  int64_t rules = 0;
  uint64_t hash = 0;
  bool operator==(const RuleDigest& other) const {
    return rules == other.rules && hash == other.hash;
  }
  bool operator!=(const RuleDigest& other) const { return !(*this == other); }
};

/// Digest of output table `out`'s rules: body items, head items, support
/// and confidence, sorted; the BodyId/HeadId numbering is not part of it.
Result<RuleDigest> DigestRules(const Catalog& catalog, const std::string& out);

/// The paper's Figure 1 table and §2 statement must give exactly the three
/// Figure 2.b rules.
Status CheckFigure2b();

/// One fresh single-client environment: the workload's data, a
/// DataMiningSystem over it, and the rules every statement must give.
struct MiningEnv {
  Catalog catalog;
  mr::DataMiningSystem system{&catalog};
  /// Expected result per statement index, from the first run of it (or,
  /// for quest_budget, from the unbudgeted run).
  std::vector<std::optional<RuleDigest>> expected;
};

/// Data, the quest_budget reference and the warm-up statements.
Result<std::unique_ptr<MiningEnv>> SetUpMining(const MiningWorkload& workload,
                                               uint64_t seed,
                                               RunReport* report);

/// Runs statement `index` through DataMiningSystem::ExecuteMineRule,
/// counts it in `report` and checks its rules against the expected digest
/// (recording it on first sight). Returns the wall time in ms; fills
/// `stats` when the statement succeeded and it is not null.
double ExecuteChecked(const MiningWorkload& workload, MiningEnv* env,
                      size_t index, RunReport* report,
                      mr::MiningRunStats* stats = nullptr);

/// Untraced runs: end-to-end metrics only.
RunReport RunMining(const MiningWorkload& workload, const RunConfig& config);
RunReport RunServerMix(const RunConfig& config);

/// Traced runs: per-layer metrics (traced.cc).
RunReport RunMiningTraced(const MiningWorkload& workload,
                          const RunConfig& config);
RunReport RunServerMixTraced(const RunConfig& config);

/// server_mix's traffic, shared by the untraced and traced runs: four
/// closed-loop clients over one server for `seconds`, stopped at a barrier
/// every kMixSegmentSeconds for a calibration slice.
struct ServerMixSample {
  enum class Kind { kCustomerRead, kRangeRead, kInsert, kMineRule } kind;
  double wall_ms = 0;
  double calibrated_ms = 0;  // scaled by the slices around its segment
  double queue_wait_ms = 0;
  bool queued = false;
};
struct ServerMixResult {
  std::vector<double> setup_s;  // raw
  std::vector<double> calibrated_setup_s;
  std::vector<ServerMixSample> samples;
  double elapsed_seconds = 0;  // the segments' wall time
  double calibrated_elapsed_seconds = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  double calibration_ms = 0;  // median slice
  double peak_rss_mb = 0;
};
ServerMixResult DriveServerMix(const RunConfig& config, double seconds,
                               RunReport* report);

/// ru_maxrss of this process in MiB.
double PeakRssMb();

}  // namespace minerule::bench

#endif  // MINERULE_BENCH_BENCH_H_
