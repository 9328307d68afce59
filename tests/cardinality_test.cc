// Property tests of the <card spec> semantics: mining with bounded
// cardinalities must equal mining unbounded and post-filtering — for both
// core variants. This exercises the lattice's early stopping (the bounds
// prune whole m×n sets) against the ground truth.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>
#include <set>

#include "common/random.h"
#include "engine/data_mining_system.h"

namespace minerule::mr {
namespace {

struct CardCase {
  int64_t body_min;
  int64_t body_max;  // -1 = n
  int64_t head_min;
  int64_t head_max;
  bool general;  // force the general core via a trivial mining condition
};

// gtest lists a case as its raw bytes, and the 7 padding bytes after
// `general` hold whatever the stack held, so two listings of one binary
// differ. Printing a copy whose padding is zeroed, in gtest's own format,
// keeps the listed names as they were and makes them stable.
void PrintTo(const CardCase& c, std::ostream* os) {
  unsigned char bytes[sizeof(CardCase)];
  std::memcpy(bytes, &c, sizeof bytes);
  constexpr size_t kEnd = offsetof(CardCase, general) + sizeof(bool);
  std::memset(bytes + kEnd, 0, sizeof bytes - kEnd);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

class CardinalityTest : public ::testing::TestWithParam<CardCase> {
 protected:
  CardinalityTest() : system_(&catalog_) {}

  void SetUp() override {
    Random rng(4242);
    Schema schema({{"tid", DataType::kInteger},
                   {"item", DataType::kInteger},
                   {"price", DataType::kDouble}});
    auto table = catalog_.CreateTable("T", schema);
    ASSERT_TRUE(table.ok());
    for (int g = 1; g <= 25; ++g) {
      for (int i = 1; i <= 7; ++i) {
        if (rng.NextBool(0.5)) {
          table.value()->AppendUnchecked({Value::Integer(g),
                                          Value::Integer(i),
                                          Value::Double(10.0 * i)});
        }
      }
    }
  }

  static std::string CardText(int64_t lo, int64_t hi) {
    return std::to_string(lo) + ".." + (hi < 0 ? "n" : std::to_string(hi));
  }

  /// Mines and returns (body size, head size, body text, head text) keys.
  std::set<std::string> Mine(const CardCase& c, bool bounded) {
    const std::string body_card =
        bounded ? CardText(c.body_min, c.body_max) : "1..n";
    const std::string head_card =
        bounded ? CardText(c.head_min, c.head_max) : "1..n";
    std::string stmt = "MINE RULE CardOut AS SELECT DISTINCT " + body_card +
                       " item AS BODY, " + head_card + " item AS HEAD";
    if (c.general) {
      stmt += ", SUPPORT, CONFIDENCE WHERE BODY.price >= 0 AND HEAD.price "
              ">= 0 ";
    } else {
      stmt += ", SUPPORT, CONFIDENCE ";
    }
    stmt += "FROM T GROUP BY tid EXTRACTING RULES WITH SUPPORT: 0.2, "
            "CONFIDENCE: 0.3";
    auto stats = system_.ExecuteMineRule(stmt);
    EXPECT_TRUE(stats.ok()) << stats.status();
    if (!stats.ok()) return {};
    EXPECT_EQ(stats.value().core.used_general, c.general);

    std::set<std::string> rules;
    auto ids = system_.ExecuteSql("SELECT BodyId, HeadId FROM CardOut");
    auto bodies = system_.ExecuteSql("SELECT BodyId, item FROM CardOut_Bodies");
    auto heads = system_.ExecuteSql("SELECT HeadId, item FROM CardOut_Heads");
    EXPECT_TRUE(ids.ok() && bodies.ok() && heads.ok());
    std::map<int64_t, std::vector<int64_t>> body_items, head_items;
    for (const Row& row : bodies.value().rows) {
      body_items[row[0].AsInteger()].push_back(row[1].AsInteger());
    }
    for (const Row& row : heads.value().rows) {
      head_items[row[0].AsInteger()].push_back(row[1].AsInteger());
    }
    for (const Row& row : ids.value().rows) {
      auto b = body_items[row[0].AsInteger()];
      auto h = head_items[row[1].AsInteger()];
      std::sort(b.begin(), b.end());
      std::sort(h.begin(), h.end());
      if (bounded) {
        // Record only; the bounds are already applied by the miner.
      } else {
        // Post-filter the unbounded run to the case's bounds.
        auto allows = [](int64_t lo, int64_t hi, size_t n) {
          return static_cast<int64_t>(n) >= lo &&
                 (hi < 0 || static_cast<int64_t>(n) <= hi);
        };
        if (!allows(c.body_min, c.body_max, b.size()) ||
            !allows(c.head_min, c.head_max, h.size())) {
          continue;
        }
      }
      std::string key;
      for (int64_t item : b) key += std::to_string(item) + ",";
      key += "=>";
      for (int64_t item : h) key += std::to_string(item) + ",";
      rules.insert(std::move(key));
    }
    return rules;
  }

  Catalog catalog_;
  DataMiningSystem system_;
};

TEST_P(CardinalityTest, BoundedEqualsUnboundedPostFiltered) {
  const CardCase& c = GetParam();
  std::set<std::string> bounded = Mine(c, /*bounded=*/true);
  std::set<std::string> filtered = Mine(c, /*bounded=*/false);
  EXPECT_EQ(bounded, filtered);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CardinalityTest,
    ::testing::Values(CardCase{1, 1, 1, 1, false},
                      CardCase{2, 2, 1, 1, false},
                      CardCase{1, 3, 1, 2, false},
                      CardCase{2, -1, 1, 1, false},
                      CardCase{1, 1, 1, 1, true},
                      CardCase{2, 2, 1, 1, true},
                      CardCase{1, 2, 1, 2, true},
                      CardCase{1, -1, 2, 3, true}),
    [](const ::testing::TestParamInfo<CardCase>& info) {
      const CardCase& c = info.param;
      auto part = [](int64_t v) {
        return v < 0 ? std::string("n") : std::to_string(v);
      };
      return "b" + part(c.body_min) + part(c.body_max) + "_h" +
             part(c.head_min) + part(c.head_max) +
             (c.general ? "_general" : "_simple");
    });

}  // namespace
}  // namespace minerule::mr
