// Experiment Fig.3: the kernel process flow — translator, preprocessor,
// core operator, postprocessor — measured per phase across data scales.
//
// The architectural claim: the relational server carries the data-heavy
// encoding (preprocessing) while the core operator carries the
// combinatorial part, and both stay small relative to a decoupled round
// trip (see bench_coupling for that comparison).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/json.h"
#include "common/trace.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"

namespace {

using namespace minerule;

const char* kGeneralStatement =
    "MINE RULE FollowUps AS SELECT DISTINCT 1..2 item AS BODY, 1..1 item AS "
    "HEAD, SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 "
    "FROM Purchase GROUP BY customer CLUSTER BY date HAVING BODY.date < "
    "HEAD.date EXTRACTING RULES WITH SUPPORT: 0.03, CONFIDENCE: 0.2";

const char* kSimpleStatement =
    "MINE RULE Basket AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
    "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY tr "
    "EXTRACTING RULES WITH SUPPORT: 0.01, CONFIDENCE: 0.4";

void RunPipeline(benchmark::State& state, const char* statement) {
  Catalog catalog;
  mr::DataMiningSystem system(&catalog);
  datagen::RetailParams params;
  params.num_customers = state.range(0);
  params.num_items = 50;
  if (!datagen::GenerateRetailTable(&catalog, "Purchase", params).ok()) {
    state.SkipWithError("generation failed");
    return;
  }
  double translate = 0, preprocess = 0, core = 0, postprocess = 0;
  int64_t rules = 0;
  int iterations = 0;
  for (auto _ : state) {
    auto stats = system.ExecuteMineRule(statement);
    if (!stats.ok()) {
      state.SkipWithError(stats.status().ToString().c_str());
      return;
    }
    translate += stats.value().translate_seconds;
    preprocess += stats.value().preprocess_seconds;
    core += stats.value().core_seconds;
    postprocess += stats.value().postprocess_seconds;
    rules = stats.value().output.num_rules;
    ++iterations;
  }
  state.counters["translate_ms"] = 1e3 * translate / iterations;
  state.counters["preprocess_ms"] = 1e3 * preprocess / iterations;
  state.counters["core_ms"] = 1e3 * core / iterations;
  state.counters["postprocess_ms"] = 1e3 * postprocess / iterations;
  state.counters["rules"] = static_cast<double>(rules);
}

void BM_PipelineGeneral(benchmark::State& state) {
  RunPipeline(state, kGeneralStatement);
}
BENCHMARK(BM_PipelineGeneral)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

void BM_PipelineSimple(benchmark::State& state) {
  RunPipeline(state, kSimpleStatement);
}
BENCHMARK(BM_PipelineSimple)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

// --smoke: one tiny run per statement class, print the run-stats JSON and
// check that it parses. CI runs this to validate the observability layer
// end to end without benchmark noise.
int RunSmoke() {
  struct Case {
    const char* label;
    const char* statement;
  };
  const Case cases[] = {{"general", kGeneralStatement},
                        {"simple", kSimpleStatement}};
  for (const Case& c : cases) {
    Catalog catalog;
    mr::DataMiningSystem system(&catalog);
    datagen::RetailParams params;
    params.num_customers = 60;
    params.num_items = 30;
    auto gen = datagen::GenerateRetailTable(&catalog, "Purchase", params);
    if (!gen.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   gen.status().ToString().c_str());
      return 1;
    }
    auto stats = system.ExecuteMineRule(c.statement);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s: %s\n", c.label,
                   stats.status().ToString().c_str());
      return 1;
    }
    const std::string json = stats.value().ToJson();
    auto valid = ValidateJson(json);
    if (!valid.ok()) {
      std::fprintf(stderr, "%s: stats JSON invalid: %s\n", c.label,
                   valid.ToString().c_str());
      return 1;
    }
    std::printf("%s\n", json.c_str());
  }
  std::printf("SMOKE OK\n");
  return 0;
}

// Writes the span tracer's Chrome trace to `path` and self-checks it: the
// JSON must parse and every pipeline stage must have recorded at least one
// span. Prints "TRACE OK" on success (CI greps for it).
int WriteAndCheckTrace(const std::string& path) {
  Status written = GlobalTracer().WriteChromeTraceFile(path);
  if (!written.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  Status valid = ValidateJson(GlobalTracer().ChromeTraceJson());
  if (!valid.ok()) {
    std::fprintf(stderr, "chrome trace invalid: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  const char* stages[] = {"translate", "preprocess", "core", "postprocess"};
  const std::vector<SpanEvent> spans = GlobalTracer().Snapshot();
  for (const char* stage : stages) {
    bool found = false;
    for (const SpanEvent& span : spans) {
      if (span.name.rfind(stage, 0) == 0) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "no span for stage %s\n", stage);
      return 1;
    }
  }
  std::printf("TRACE OK %s (%zu spans)\n", path.c_str(), spans.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string trace_out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!trace_out.empty()) GlobalTracer().Enable(true);
  if (smoke) {
    int rc = RunSmoke();
    if (rc == 0 && !trace_out.empty()) rc = WriteAndCheckTrace(trace_out);
    return rc;
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (!trace_out.empty()) return WriteAndCheckTrace(trace_out);
  return 0;
}
