// Byte-identity pin for the batch path users run: CSV text -> RelationFromCsv
// -> PTA-QL -> RelationToCsv, over golden files under tests/fixtures/batch.
//
//  * input.csv is a 5000-row, 20-group synthetic relation (G, A1, A2). It
//    must parse and write back to exactly its own bytes.
//  * Each query case runs one PTA-QL statement over it and compares the
//    written result with <case>.csv byte for byte: every aggregate, a WHERE
//    filter, a TIME window, the greedy and the indexed engine.
//  * writer_specials.csv holds the writer's bytes for the doubles whose
//    text is easiest to get wrong; the test also checks them against
//    printf's %.17g, the format the writer promises.
//
// Flags (before the gtest flags), mirroring index_golden_test:
//   --fixtures=DIR   fixture directory (default: "tests/fixtures/batch")
//   --bless          rewrite every fixture from the in-process bytes
//
// Regenerate after an intended output change, from the repository root:
//   ./build/tests/batch_golden_test --bless && git diff tests/fixtures/batch

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "datasets/csv.h"
#include "datasets/synthetic.h"
#include "ql/ql.h"

namespace pta {
namespace testing {
namespace {

std::string g_fixture_dir = "tests/fixtures/batch";
bool g_bless = false;

std::string FixturePath(const std::string& name) {
  return g_fixture_dir + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFixture(const std::string& name, const std::string& bytes) {
  std::ofstream out(FixturePath(name), std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << FixturePath(name);
}

// Blesses or compares one artifact.
void ExpectGolden(const std::string& name, const std::string& bytes) {
  if (g_bless) {
    WriteFixture(name, bytes);
    return;
  }
  const std::string golden = ReadFixture(name);
  ASSERT_FALSE(golden.empty()) << "missing fixture " << FixturePath(name);
  EXPECT_TRUE(bytes == golden) << name << " differs from its golden bytes";
}

Schema InputSchema() {
  return Schema({{"G", ValueType::kInt64},
                 {"A1", ValueType::kDouble},
                 {"A2", ValueType::kDouble}});
}

std::string InputCsv() {
  if (g_bless) {
    SyntheticOptions options;
    options.num_tuples = 5000;
    options.num_dims = 2;
    options.num_groups = 20;
    options.max_duration = 20;
    options.time_span = 5000;
    options.seed = 13;
    WriteFixture("input.csv",
                 RelationToCsv(GenerateSyntheticRelation(options)));
  }
  return ReadFixture("input.csv");
}

TEST(BatchGoldenTest, InputRoundTripsToItsOwnBytes) {
  const std::string csv = InputCsv();
  ASSERT_FALSE(csv.empty()) << "missing fixture " << FixturePath("input.csv");
  auto rel = RelationFromCsv(csv, InputSchema());
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), 5000u);
  EXPECT_TRUE(RelationToCsv(*rel) == csv);
}

struct QueryCase {
  const char* name;
  const char* query;
};

const QueryCase kQueries[] = {
    {"avg_greedy",
     "SELECT AVG(A1) AS avg_a1 FROM events GROUP BY G BUDGET SIZE 4000 "
     "USING ENGINE greedy"},
    {"avg_indexed",
     "SELECT AVG(A1) AS avg_a1 FROM events GROUP BY G BUDGET SIZE 4000 "
     "USING ENGINE indexed"},
    {"sum_count_greedy",
     "SELECT SUM(A1) AS s, COUNT(*) AS n FROM events GROUP BY G "
     "BUDGET SIZE 3500 USING ENGINE greedy"},
    {"min_max_indexed",
     "SELECT MIN(A1) AS lo, MAX(A2) AS hi FROM events GROUP BY G "
     "BUDGET SIZE 3500 USING ENGINE indexed"},
    {"where_greedy",
     "SELECT AVG(A2) AS a2 FROM events WHERE A1 > 500 AND G <> 3 "
     "GROUP BY G BUDGET SIZE 2200 USING ENGINE greedy"},
    {"time_window_indexed",
     "SELECT AVG(A1) AS a1, SUM(A2) AS s2 FROM events GROUP BY G "
     "WITH TIME(1000, 3000) BUDGET SIZE 1400 USING ENGINE indexed"},
    {"error_budget_greedy",
     "SELECT AVG(A1) AS avg_a1, MAX(A1) AS hi FROM events GROUP BY G "
     "BUDGET ERROR 0.05 USING ENGINE greedy"},
};

class BatchQueryGoldenTest : public ::testing::TestWithParam<QueryCase> {};

TEST_P(BatchQueryGoldenTest, MatchesGoldenCsv) {
  const QueryCase& c = GetParam();
  auto rel = RelationFromCsv(InputCsv(), InputSchema());
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  ql::Catalog catalog;
  catalog.Register("events", &*rel);
  auto result = ql::ParseAndExecute(c.query, catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->table.size(), 0u);
  // The budget must force merges, or the case would pin ITA alone.
  EXPECT_LT(result->stats.rows, result->stats.ita_size);
  ExpectGolden(std::string(c.name) + ".csv", RelationToCsv(result->table));
}

std::string CaseName(const ::testing::TestParamInfo<QueryCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Queries, BatchQueryGoldenTest,
                         ::testing::ValuesIn(kQueries), CaseName);

TEST(BatchGoldenTest, WriterSpecialsMatchPrintfG17) {
  const std::vector<double> specials = {
      -0.0,
      5e-324,
      1.7976931348623157e308,
      0.1,
      9007199254740993.0,  // 2^53 + 1, rounds to 2^53
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::infinity(),
  };
  TemporalRelation rel(Schema({{"X", ValueType::kDouble}}));
  std::string expected = "X,tb,te\n";
  char buf[64];
  for (size_t i = 0; i < specials.size(); ++i) {
    const auto t = static_cast<Chronon>(i);
    ASSERT_TRUE(rel.Insert({Value(specials[i])}, Interval(t, t)).ok());
    std::snprintf(buf, sizeof(buf), "%.17g,%lld,%lld\n", specials[i],
                  static_cast<long long>(t), static_cast<long long>(t));
    expected += buf;
  }
  const std::string csv = RelationToCsv(rel);
  EXPECT_EQ(csv, expected);
  ExpectGolden("writer_specials.csv", csv);
}

// A CSV with one null or non-finite aggregate input must fail with a
// Status naming the attribute and the row on every engine, never abort
// and never let engines disagree.
TEST(HostileCsvTest, NullOrNonFiniteAggregateInputFailsOnEveryEngine) {
  const Schema schema({{"G", ValueType::kInt64}, {"A1", ValueType::kDouble}});
  for (const char* bad : {"", "nan", "inf", "-inf"}) {
    std::string csv = "G,A1,tb,te\n";
    for (int i = 0; i < 50; ++i) {
      const std::string a1 = i == 17 ? bad : std::to_string(i * 1.5);
      csv += std::to_string(i % 3) + "," + a1 + "," + std::to_string(i) +
             "," + std::to_string(i + 2) + "\n";
    }
    auto rel = RelationFromCsv(csv, schema);
    ASSERT_TRUE(rel.ok()) << rel.status().ToString();
    ql::Catalog catalog;
    catalog.Register("events", &*rel);
    for (const char* engine :
         {"exact", "greedy", "parallel", "streaming", "indexed", "auto"}) {
      const std::string query =
          std::string("SELECT AVG(A1) AS a FROM events GROUP BY G "
                      "BUDGET SIZE 5 USING ENGINE ") +
          engine;
      auto result = ql::ParseAndExecute(query, catalog);
      ASSERT_FALSE(result.ok()) << "cell '" << bad << "', " << engine;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      const std::string message = result.status().ToString();
      EXPECT_NE(message.find("A1"), std::string::npos) << message;
      EXPECT_NE(message.find("row 17"), std::string::npos) << message;
    }
  }
}

}  // namespace
}  // namespace testing
}  // namespace pta

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fixtures=", 11) == 0) {
      pta::testing::g_fixture_dir = argv[i] + 11;
    } else if (std::strcmp(argv[i], "--bless") == 0) {
      pta::testing::g_bless = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);
  ::testing::InitGoogleTest(&filtered_argc, args.data());
  return RUN_ALL_TESTS();
}
