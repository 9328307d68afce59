#include "postprocess/postprocessor.h"

#include <algorithm>
#include <compare>
#include <map>
#include <numeric>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace minerule::mr {

namespace {

/// Column definitions copied from the source schema for an attr list.
Result<std::string> ColumnDefs(const Schema& schema,
                               const std::vector<std::string>& attrs) {
  std::string out;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ", ";
    const int idx = schema.FindColumn(attrs[i]);
    if (idx < 0) {
      return Status::Internal("attribute vanished from source schema: " +
                              attrs[i]);
    }
    out += attrs[i];
    out += ' ';
    out += DataTypeName(schema.column(idx).type);
  }
  return out;
}

std::string AttrList(const std::vector<std::string>& attrs) {
  return Join(attrs, ", ");
}

/// The distinct sets one side of the rules takes (bodies or heads),
/// numbered by lexicographic rank from 1: `sets[id - 1]` is the set with id
/// `id`, and `id_of_rule[r]` is the id of rule r's set.
struct SideIds {
  std::vector<const mining::Itemset*> sets;
  std::vector<int64_t> id_of_rule;
};

/// Ranks one side by sorting the rule positions on its sets.
SideIds RankBySorting(const std::vector<mining::MinedRule>& rules,
                      mining::Itemset mining::MinedRule::*side) {
  std::vector<size_t> order(rules.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return rules[a].*side < rules[b].*side;
  });
  SideIds ids;
  ids.id_of_rule.resize(rules.size());
  for (size_t r : order) {
    if (ids.sets.empty() || *ids.sets.back() != rules[r].*side) {
      ids.sets.push_back(&(rules[r].*side));
    }
    ids.id_of_rule[r] = static_cast<int64_t>(ids.sets.size());
  }
  return ids;
}

/// Rules sorted by RuleLess, as the core returns them, list each body in
/// one run and the runs in lexicographic order, so one pass ranks the
/// bodies. Rules in any other order are ranked by sorting.
SideIds RankBodies(const std::vector<mining::MinedRule>& rules) {
  SideIds ids;
  ids.id_of_rule.reserve(rules.size());
  for (size_t r = 0; r < rules.size(); ++r) {
    if (r > 0) {
      const auto order = rules[r - 1].body <=> rules[r].body;
      if (order > 0) return RankBySorting(rules, &mining::MinedRule::body);
      if (order < 0) ids.sets.push_back(&rules[r].body);
    } else {
      ids.sets.push_back(&rules[r].body);
    }
    ids.id_of_rule.push_back(static_cast<int64_t>(ids.sets.size()));
  }
  return ids;
}

/// Creates the normalized table `name`(`id_column`, `item_column`) with
/// one row per item of each set in `ids`.
Status WriteSets(Catalog* catalog, const std::string& name,
                 const char* id_column, const char* item_column,
                 const SideIds& ids) {
  MR_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> table,
      catalog->CreateTable(name, Schema({{id_column, DataType::kInteger},
                                         {item_column, DataType::kInteger}})));
  size_t items = 0;
  for (const mining::Itemset* set : ids.sets) items += set->size();
  table->Reserve(items);
  for (size_t i = 0; i < ids.sets.size(); ++i) {
    for (mining::ItemId item : *ids.sets[i]) {
      table->AppendUnchecked({Value::Integer(static_cast<int64_t>(i) + 1),
                              Value::Integer(item)});
    }
  }
  return Status::OK();
}

}  // namespace

Result<PostprocessResult> Postprocessor::Run(
    const MineRuleStatement& stmt, const Translation& translation,
    const std::vector<mining::MinedRule>& rules, int64_t total_groups,
    const PreprocessProgram& program, std::vector<QueryStat>* stats) {
  PostprocessResult result;
  result.rules_table = stmt.output_table;
  result.bodies_table = stmt.output_table + "_Bodies";
  result.heads_table = stmt.output_table + "_Heads";
  result.num_rules = static_cast<int64_t>(rules.size());

  Catalog* catalog = engine_->catalog();
  for (const std::string& name :
       {result.rules_table, result.bodies_table, result.heads_table,
        std::string("OutputBodies"), std::string("OutputHeads")}) {
    catalog->DropTableIfExists(name);
    catalog->DropViewIfExists(name);
  }

  // --- the core operator's normalized output (§4.4) ----------------------
  // Identifiers for distinct bodies and heads: each set's rank in
  // lexicographic order, from 1.
  const SideIds body_ids = RankBodies(rules);
  const SideIds head_ids = RankBySorting(rules, &mining::MinedRule::head);
  MR_RETURN_IF_ERROR(
      WriteSets(catalog, "OutputBodies", "BodyId", "Bid", body_ids));
  MR_RETURN_IF_ERROR(
      WriteSets(catalog, "OutputHeads", "HeadId", "Hid", head_ids));
  {
    Schema schema;
    schema.AddColumn({"BodyId", DataType::kInteger});
    schema.AddColumn({"HeadId", DataType::kInteger});
    if (stmt.select_support) {
      schema.AddColumn({"SUPPORT", DataType::kDouble});
    }
    if (stmt.select_confidence) {
      schema.AddColumn({"CONFIDENCE", DataType::kDouble});
    }
    MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> out,
                        catalog->CreateTable(result.rules_table, schema));
    out->Reserve(rules.size());
    for (size_t r = 0; r < rules.size(); ++r) {
      const mining::MinedRule& rule = rules[r];
      Row row;
      row.reserve(schema.num_columns());
      row.push_back(Value::Integer(body_ids.id_of_rule[r]));
      row.push_back(Value::Integer(head_ids.id_of_rule[r]));
      if (stmt.select_support) {
        row.push_back(Value::Double(rule.Support(total_groups)));
      }
      if (stmt.select_confidence) {
        row.push_back(Value::Double(rule.Confidence()));
      }
      out->AppendUnchecked(std::move(row));
    }
  }

  // --- decoding (Appendix A's postprocessing query) -----------------------
  const Schema& source_schema = translation.source_schema;
  MR_ASSIGN_OR_RETURN(const std::string body_defs,
                      ColumnDefs(source_schema, stmt.body_schema));
  MR_ASSIGN_OR_RETURN(const std::string head_defs,
                      ColumnDefs(source_schema, stmt.head_schema));
  const std::string hset = program.hset.empty() ? program.bset : program.hset;
  const std::string hset_key = program.hset.empty() ? "Bid" : "Hid";

  std::vector<std::string> decode_sql = {
      "CREATE TABLE " + result.bodies_table + " (BodyId INTEGER, " +
          body_defs + ")",
      "INSERT INTO " + result.bodies_table + " (SELECT BodyId, " +
          AttrList(stmt.body_schema) + " FROM OutputBodies, " + program.bset +
          " WHERE OutputBodies.Bid = " + program.bset + ".Bid)",
      "CREATE TABLE " + result.heads_table + " (HeadId INTEGER, " +
          head_defs + ")",
      "INSERT INTO " + result.heads_table + " (SELECT HeadId, " +
          AttrList(stmt.head_schema) + " FROM OutputHeads, " + hset +
          " WHERE OutputHeads.Hid = " + hset + "." + hset_key + ")",
  };
  for (size_t i = 0; i < decode_sql.size(); ++i) {
    const std::string& sql = decode_sql[i];
    const std::string id = "POST" + std::to_string(i);
    ScopedSpan span("postprocess." + id, "query");
    Stopwatch watch;
    MR_ASSIGN_OR_RETURN(sql::QueryResult query_result, engine_->Execute(sql));
    if (stats != nullptr) {
      stats->push_back({id, "postprocess", sql, watch.ElapsedMicros(),
                        query_result.affected_rows,
                        std::move(query_result.profile)});
    }
  }
  return result;
}

Result<std::string> RenderRuleTable(sql::SqlEngine* engine,
                                    const MineRuleStatement& stmt) {
  Catalog* catalog = engine->catalog();
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> rules,
                      catalog->GetTable(stmt.output_table));
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> bodies,
                      catalog->GetTable(stmt.output_table + "_Bodies"));
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> heads,
                      catalog->GetTable(stmt.output_table + "_Heads"));

  // Render each body/head id as "{v, v, ...}"; multi-attribute schemas
  // render each item as "(a|b)".
  auto build_sets = [](const Table& table) {
    std::map<int64_t, std::vector<std::string>> sets;
    for (const Row& row : table.rows()) {
      std::string item;
      for (size_t c = 1; c < row.size(); ++c) {
        if (c > 1) item += "|";
        item += row[c].ToString();
      }
      if (table.schema().num_columns() > 2) item = "(" + item + ")";
      sets[row[0].AsInteger()].push_back(std::move(item));
    }
    std::map<int64_t, std::string> rendered;
    for (auto& [id, items] : sets) {
      std::sort(items.begin(), items.end());
      rendered[id] = "{" + Join(items, ", ") + "}";
    }
    return rendered;
  };
  std::map<int64_t, std::string> body_sets = build_sets(*bodies);
  std::map<int64_t, std::string> head_sets = build_sets(*heads);

  Schema display_schema;
  display_schema.AddColumn({"BODY", DataType::kString});
  display_schema.AddColumn({"HEAD", DataType::kString});
  if (stmt.select_support) {
    display_schema.AddColumn({"SUPPORT", DataType::kDouble});
  }
  if (stmt.select_confidence) {
    display_schema.AddColumn({"CONFIDENCE", DataType::kDouble});
  }
  Table display(stmt.output_table, display_schema);
  for (const Row& row : rules->rows()) {
    Row out{Value::String(body_sets[row[0].AsInteger()]),
            Value::String(head_sets[row[1].AsInteger()])};
    for (size_t c = 2; c < row.size(); ++c) out.push_back(row[c]);
    display.AppendUnchecked(std::move(out));
  }
  return display.ToDisplayString(1000);
}

}  // namespace minerule::mr
