// An interactive shell over the tightly-coupled system: type SQL or
// MINE RULE statements (terminated by ';') against one in-memory database.
// Dot-commands load demo datasets and inspect the catalog.
//
//   $ ./minerule_shell
//   minerule> .figure1
//   minerule> MINE RULE R AS SELECT DISTINCT 1..n item AS BODY, 1..1 item
//             AS HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer
//             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.5;
//   minerule> SELECT * FROM R;

#include <iostream>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "datagen/paper_example.h"
#include "datagen/quest_gen.h"
#include "datagen/retail_gen.h"
#include "relational/catalog_io.h"
#include "support/rule_browser.h"
#include "engine/data_mining_system.h"

namespace {

using namespace minerule;

void PrintHelp() {
  std::cout <<
      "Statements (terminate with ';'):\n"
      "  SELECT / INSERT / CREATE / DROP / DELETE   plain SQL\n"
      "  EXPLAIN [ANALYZE] SELECT ...               show (and time) the plan\n"
      "  MINE RULE ...                              the mining operator\n"
      "Dot commands:\n"
      "  .help              this text\n"
      "  \\trace             print the run stats JSON after MINE RULE\n"
      "  \\trace FILE        record spans; write Chrome trace JSON on exit\n"
      "  \\metrics           print the process-wide metrics registry\n"
      "  \\metrics prom      the same registry in Prometheus text format\n"
      "  .tables            list tables, views and sequences\n"
      "  .figure1           load the paper's Purchase table (Figure 1)\n"
      "  .quest N           load a Quest basket table 'Baskets' with N baskets\n"
      "  .retail N          load a retail 'Purchase' table with N customers\n"
      "  .algorithm NAME    simple-core algorithm: auto (default) gidlist\n"
      "                     apriori apriori_tid dhp partition sampling\n"
      "  .top TABLE [K]     browse a rule table: top-K by confidence\n"
      "  .item TABLE ITEM   rules mentioning ITEM in body or head\n"
      "  .save FILE         dump the whole database to a file\n"
      "  .open FILE         load a database dump\n"
      "  .quit              exit\n";
}

void HandleDotCommand(const std::string& line, Catalog* catalog,
                      mr::DataMiningSystem* system,
                      mr::MiningOptions* options, bool* trace,
                      std::string* trace_out, bool* done) {
  std::istringstream in(line);
  std::string command;
  in >> command;
  if (command == ".quit" || command == ".exit") {
    *done = true;
    return;
  }
  if (command == "\\trace" || command == ".trace") {
    std::string path;
    in >> path;
    if (!path.empty()) {
      // With an argument, turn on span recording and remember where to
      // write the Chrome trace when the shell exits.
      *trace_out = path;
      GlobalTracer().Enable(true);
      std::cout << "span recording on; will write " << path << " on exit\n";
      return;
    }
    *trace = !*trace;
    std::cout << "trace " << (*trace ? "on" : "off") << "\n";
    return;
  }
  if (command == "\\metrics" || command == ".metrics") {
    std::string format;
    in >> format;
    if (format == "prom") {
      std::cout << GlobalMetrics().FormatPrometheus();
    } else {
      std::cout << MetricsRegistry::Format(GlobalMetrics().Snapshot());
    }
    return;
  }
  if (command == ".help") {
    PrintHelp();
    return;
  }
  if (command == ".tables") {
    std::cout << "tables:   " << Join(catalog->TableNames(), ", ") << "\n";
    std::cout << "views:    " << Join(catalog->ViewNames(), ", ") << "\n";
    std::cout << "sequences: " << Join(catalog->SequenceNames(), ", ")
              << "\n";
    return;
  }
  if (command == ".figure1") {
    catalog->DropTableIfExists("Purchase");
    auto table = datagen::MakePaperPurchaseTable(catalog);
    if (!table.ok()) {
      std::cout << table.status() << "\n";
      return;
    }
    std::cout << table.value()->ToDisplayString();
    std::cout << "Try:\n" << datagen::PaperExampleStatement() << ";\n";
    return;
  }
  if (command == ".quest") {
    int64_t n = 1000;
    in >> n;
    catalog->DropTableIfExists("Baskets");
    datagen::QuestParams params;
    params.num_transactions = n;
    auto table = datagen::MaterializeQuestTable(catalog, "Baskets", params);
    if (!table.ok()) {
      std::cout << table.status() << "\n";
      return;
    }
    std::cout << "Baskets(tid, item): " << table.value()->num_rows()
              << " rows over " << n << " baskets\n";
    return;
  }
  if (command == ".retail") {
    int64_t n = 200;
    in >> n;
    catalog->DropTableIfExists("Purchase");
    datagen::RetailParams params;
    params.num_customers = n;
    auto table = datagen::GenerateRetailTable(catalog, "Purchase", params);
    if (!table.ok()) {
      std::cout << table.status() << "\n";
      return;
    }
    std::cout << "Purchase: " << table.value()->num_rows() << " rows over "
              << n << " customers\n";
    return;
  }
  if (command == ".algorithm") {
    std::string name;
    in >> name;
    auto algorithm = mining::SimpleAlgorithmFromName(name);
    if (!algorithm.ok()) {
      std::cout << algorithm.status() << "\n";
      return;
    }
    options->algorithm = algorithm.value();
    std::cout << "simple-core algorithm: "
              << mining::SimpleAlgorithmName(options->algorithm) << "\n";
    return;
  }
  if (command == ".top" || command == ".item") {
    std::string table;
    in >> table;
    if (table.empty()) {
      std::cout << "usage: " << command << " TABLE ...\n";
      return;
    }
    auto browser = support::RuleBrowser::Load(system->sql_engine(), table);
    if (!browser.ok()) {
      std::cout << browser.status() << "\n";
      return;
    }
    if (command == ".top") {
      size_t k = 10;
      in >> k;
      std::cout << support::RuleBrowser::Render(
          browser.value().TopByConfidence(k));
    } else {
      std::string item;
      in >> item;
      std::cout << support::RuleBrowser::Render(
          browser.value().ContainingItem(item));
    }
    return;
  }
  if (command == ".save") {
    std::string path;
    in >> path;
    if (path.empty()) {
      std::cout << "usage: .save FILE\n";
      return;
    }
    Status status = SaveCatalogToFile(*catalog, path);
    std::cout << (status.ok() ? "saved " + path : status.ToString()) << "\n";
    return;
  }
  if (command == ".open") {
    std::string path;
    in >> path;
    if (path.empty()) {
      std::cout << "usage: .open FILE\n";
      return;
    }
    Status status = LoadCatalogFromFile(path, catalog);
    std::cout << (status.ok() ? "loaded " + path : status.ToString()) << "\n";
    return;
  }
  (void)system;
  std::cout << "unknown command " << command << " (try .help)\n";
}

void ExecuteStatement(const std::string& text, mr::DataMiningSystem* system,
                      const mr::MiningOptions& options, bool trace) {
  if (mr::IsMineRuleStatement(text)) {
    auto stats = system->ExecuteMineRule(text, options);
    if (!stats.ok()) {
      std::cout << stats.status() << "\n";
      return;
    }
    std::printf(
        "directives %s | %lld groups | %lld rules | total %.2f ms "
        "(pre %.2f, core %.2f, post %.2f)\n",
        stats.value().directives.ToString().c_str(),
        static_cast<long long>(stats.value().total_groups),
        static_cast<long long>(stats.value().output.num_rules),
        stats.value().TotalSeconds() * 1e3,
        stats.value().preprocess_seconds * 1e3,
        stats.value().core_seconds * 1e3,
        stats.value().postprocess_seconds * 1e3);
    auto rendered = system->RenderRules(stats.value().output.rules_table);
    if (rendered.ok()) std::cout << rendered.value();
    if (trace) std::cout << stats.value().ToJson() << "\n";
    return;
  }
  auto result = system->ExecuteSql(text);
  if (!result.ok()) {
    std::cout << result.status() << "\n";
    return;
  }
  if (result.value().schema.num_columns() > 0) {
    std::cout << result.value().ToDisplayString(50);
    std::cout << "(" << result.value().rows.size() << " rows)\n";
  } else {
    std::cout << "ok";
    if (result.value().affected_rows > 0) {
      std::cout << " (" << result.value().affected_rows << " rows)";
    }
    std::cout << "\n";
  }
}

}  // namespace

int main() {
  Catalog catalog;
  mr::DataMiningSystem system(&catalog);
  mr::MiningOptions options;

  std::cout << "MineRule shell — a tightly-coupled data mining system\n"
               "(Meo, Psaila & Ceri, ICDE 1998). Type .help for help.\n";

  std::string buffer;
  bool trace = false;
  std::string trace_out;
  bool done = false;
  while (!done) {
    std::cout << (buffer.empty() ? "minerule> " : "     ...> ") << std::flush;
    std::string line;
    if (!std::getline(std::cin, line)) break;
    const std::string trimmed{StripWhitespace(line)};
    if (buffer.empty() && trimmed.empty()) continue;
    if (buffer.empty() && (trimmed[0] == '.' || trimmed[0] == '\\')) {
      HandleDotCommand(trimmed, &catalog, &system, &options, &trace,
                       &trace_out, &done);
      continue;
    }
    buffer += line;
    buffer += '\n';
    const size_t semi = buffer.rfind(';');
    if (semi == std::string::npos) continue;
    std::string statement{StripWhitespace(buffer.substr(0, semi))};
    buffer.clear();
    if (!statement.empty()) {
      ExecuteStatement(statement, &system, options, trace);
    }
  }
  if (!trace_out.empty()) {
    Status status = GlobalTracer().WriteChromeTraceFile(trace_out);
    std::cout << (status.ok() ? "wrote " + trace_out : status.ToString())
              << "\n";
  }
  return 0;
}
