// minerule_bench: one seeded run of one benchmark workload.
//
//   minerule_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-out FILE]
//
// Workloads: retail_general, quest_simple, quest_reuse_sweep, quest_budget,
// server_mix. --trace 0 measures the end-to-end metrics; --trace 1 drives
// the layers one by one and reports the per-layer metrics (and, with
// --trace-out, writes its spans and top operators per query as JSON).
// Prints "name value unit" per metric, a "meta {...}" line, and as the last
// line {"correct":...,"attempted":...,"failed":...,"metrics":{...}}.
// run.py in this directory builds this program and runs it.
//
//   minerule_bench --calibrate
//
// times the host-calibration kernel once and prints the milliseconds; runs
// start this program that way between statements.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "common/json.h"
#include "common/thread_pool.h"

namespace {

using namespace minerule;
using namespace minerule::bench;

const char* const kWorkloads[] = {"retail_general", "quest_simple",
                                  "quest_reuse_sweep", "quest_budget",
                                  "server_mix"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "minerule_bench: %s\nusage: minerule_bench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n",
               why);
  return 2;
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

bool Optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string MetaJson(const RunConfig& config) {
  JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(config.workload);
  w.Key("seed").Int(static_cast<int64_t>(config.seed));
  w.Key("seconds").Double(config.seconds);
  w.Key("trace").Int(config.traced ? 1 : 0);
  w.Key("build_type").String(MINERULE_BENCH_BUILD_TYPE);
  w.Key("optimized").Bool(Optimized());
  w.Key("sanitizer").String(Sanitizer());
  w.Key("nproc").Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
  // Every workload runs statements at the default thread count.
  w.Key("threads").Int(ResolveThreadCount(mr::MiningOptions{}.num_threads));
  w.EndObject();
  return w.str();
}

void WriteMetrics(const std::vector<Metric>& metrics, JsonWriter* w) {
  w->BeginObject();
  for (const Metric& metric : metrics) {
    w->Key(metric.name).BeginObject();
    w->Key("value").Double(metric.value);
    w->Key("unit").String(metric.unit);
    w->EndObject();
  }
  w->EndObject();
}

std::string ResultJson(const RunReport& report) {
  JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(report.correct);
  w.Key("attempted").Int(report.attempted);
  w.Key("failed").Int(report.failed);
  w.Key("metrics");
  WriteMetrics(report.metrics, &w);
  w.EndObject();
  return w.str();
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--calibrate") == 0) {
    return HostCalibration::RunKernel();
  }
  HostCalibration::SetProgram(argv[0]);
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0 || number > 1e15 ||
          number != static_cast<double>(static_cast<uint64_t>(number))) {
        return Usage("--seed takes a non-negative integer");
      }
      config.seed = static_cast<uint64_t>(number);
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0 || number > 3600) {
        return Usage("--seconds takes a number in (0, 3600]");
      }
      config.seconds = number;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      config.traced = value[0] == '1';
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || config.workload == name;
  if (!known) return Usage("unknown or missing --workload");

  const Status figure = CheckFigure2b();
  RunReport report;
  if (config.workload == "server_mix") {
    report = config.traced ? RunServerMixTraced(config) : RunServerMix(config);
  } else {
    const MiningWorkload* workload = FindMiningWorkload(config.workload);
    report = config.traced ? RunMiningTraced(*workload, config)
                           : RunMining(*workload, config);
  }
  if (!figure.ok()) report.Fail(figure.ToString());

  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "minerule_bench: no statement ran\n");
    return 1;
  }
  for (const Metric& metric : report.metrics) {
    std::printf("%-28s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const Metric& metric : report.raw) {
    std::printf("raw.%-24s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%-28s %14lld\n%-28s %14.4f ratio\n", "statements",
              static_cast<long long>(report.attempted), "error_rate",
              static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted));
  std::printf("meta %s\n", MetaJson(config).c_str());
  if (!report.raw.empty()) {
    JsonWriter raw;
    WriteMetrics(report.raw, &raw);
    std::printf("raw %s\n", raw.str().c_str());
  }
  std::printf("%s\n", ResultJson(report).c_str());
  return 0;
}
