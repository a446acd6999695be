#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/ita.h"
#include "datasets/csv.h"
#include "datasets/etds.h"
#include "datasets/incumbents.h"
#include "datasets/synthetic.h"
#include "datasets/timeseries.h"
#include "test_util.h"

namespace pta {
namespace {

TEST(SyntheticTest, RelationMatchesRequestedShape) {
  SyntheticOptions options;
  options.num_tuples = 500;
  options.num_dims = 3;
  options.num_groups = 4;
  const TemporalRelation rel = GenerateSyntheticRelation(options);
  EXPECT_EQ(rel.size(), 500u);
  EXPECT_EQ(rel.schema().num_attributes(), 4u);  // G + 3 dims
  for (size_t i = 0; i < rel.size(); i += 37) {
    const int64_t g = rel.tuple(i).value(0).AsInt64();
    EXPECT_GE(g, 0);
    EXPECT_LT(g, 4);
  }
}

TEST(SyntheticTest, GeneratorsAreDeterministic) {
  SyntheticOptions options;
  options.num_tuples = 100;
  const TemporalRelation a = GenerateSyntheticRelation(options);
  const TemporalRelation b = GenerateSyntheticRelation(options);
  EXPECT_TRUE(a.SameTuples(b));
}

TEST(SyntheticTest, SequentialHasExpectedRuns) {
  // S1-shape: one group, no gaps -> cmin = 1.
  const SequentialRelation s1 = GenerateSyntheticSequential(1, 200, 10, 1);
  EXPECT_EQ(s1.size(), 200u);
  EXPECT_EQ(s1.num_aggregates(), 10u);
  EXPECT_EQ(s1.CMin(), 1u);
  EXPECT_TRUE(s1.Validate().ok());

  // S2-shape: 50 groups of 20 -> cmin = 50.
  const SequentialRelation s2 = GenerateSyntheticSequential(50, 20, 10, 2);
  EXPECT_EQ(s2.size(), 1000u);
  EXPECT_EQ(s2.CMin(), 50u);
  EXPECT_TRUE(s2.Validate().ok());
}

TEST(SyntheticTest, GapGeneratorControlsCMin) {
  const SequentialRelation rel = GenerateSyntheticWithGaps(300, 2, 29, 7);
  EXPECT_EQ(rel.size(), 300u);
  EXPECT_EQ(rel.CMin(), 30u);
  EXPECT_TRUE(rel.Validate().ok());
}

TEST(EtdsTest, QueriesReproduceTable1aStructure) {
  EtdsOptions options;
  options.num_employees = 60;
  options.num_months = 120;
  const TemporalRelation rel = GenerateEtds(options);
  ASSERT_GT(rel.size(), 100u);

  // E1-E3: ungrouped -> single group, typically no gaps -> cmin small.
  auto e1 = Ita(rel, EtdsQueryE1());
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1->group_keys().size(), 1u);
  EXPECT_LE(e1->CMin(), 3u);

  auto e2 = Ita(rel, EtdsQueryE2());
  auto e3 = Ita(rel, EtdsQueryE3());
  ASSERT_TRUE(e2.ok());
  ASSERT_TRUE(e3.ok());
  // Same grouping -> identical segmentation sizes driven by the data.
  EXPECT_EQ(e1->CMin(), e2->CMin());

  // E4: grouped by employee/department -> ITA result exceeds input size
  // divided by... at minimum it has many groups and gaps.
  auto e4 = Ita(rel, EtdsQueryE4());
  ASSERT_TRUE(e4.ok());
  EXPECT_GT(e4->group_keys().size(), options.num_employees / 2);
  EXPECT_GT(e4->CMin(), options.num_employees / 2);
}

TEST(IncumbentsTest, QueriesReproduceTable1bStructure) {
  IncumbentsOptions options;
  options.num_departments = 4;
  options.projects_per_department = 3;
  options.num_months = 120;
  const TemporalRelation rel = GenerateIncumbents(options);
  ASSERT_GT(rel.size(), 50u);

  auto i1 = Ita(rel, IncumbentsQueryI1());
  ASSERT_TRUE(i1.ok());
  // One aggregation group per (dept, project).
  EXPECT_EQ(i1->group_keys().size(), 12u);
  // Gaps exist: cmin exceeds the group count.
  EXPECT_GT(i1->CMin(), 12u);
  EXPECT_TRUE(i1->Validate().ok());

  auto i2 = Ita(rel, IncumbentsQueryI2());
  auto i3 = Ita(rel, IncumbentsQueryI3());
  ASSERT_TRUE(i2.ok());
  ASSERT_TRUE(i3.ok());
  // Result sizes differ across aggregates (coalescing is value-dependent:
  // max stays constant where avg changes), but the run structure — gaps in
  // coverage and group count — is value-independent, so cmin agrees.
  EXPECT_EQ(i1->CMin(), i2->CMin());
  EXPECT_EQ(i1->CMin(), i3->CMin());
}

TEST(TimeSeriesTest, MackeyGlassIsChaoticButBounded) {
  const std::vector<double> t1 = MackeyGlass(1800);
  EXPECT_EQ(t1.size(), 1800u);
  double lo = t1[0], hi = t1[0];
  for (double v : t1) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi, 3000.0);
  EXPECT_GT(hi - lo, 100.0);  // it moves
  // Deterministic.
  EXPECT_EQ(MackeyGlass(1800), t1);
}

TEST(TimeSeriesTest, TideHasTidalPeriodicity) {
  const std::vector<double> t2 = Tide(8746);
  EXPECT_EQ(t2.size(), 8746u);
  // Autocorrelation at the M2 lag (~12.42h -> lag 12) should beat lag 6
  // (half period, anti-phase).
  auto autocorr = [&t2](size_t lag) {
    double mean = 0;
    for (double v : t2) mean += v;
    mean /= static_cast<double>(t2.size());
    double num = 0, den = 0;
    for (size_t i = 0; i + lag < t2.size(); ++i) {
      num += (t2[i] - mean) * (t2[i + lag] - mean);
    }
    for (double v : t2) den += (v - mean) * (v - mean);
    return num / den;
  };
  EXPECT_GT(autocorr(12), autocorr(6));
}

TEST(TimeSeriesTest, WindHasRequestedDimensionsAndGaps) {
  const auto dims = Wind(500, 12, 3);
  EXPECT_EQ(dims.size(), 12u);
  EXPECT_EQ(dims[0].size(), 500u);

  const SequentialRelation rel = WindRelation(500, 12, 49, 3);
  EXPECT_EQ(rel.size(), 500u);
  EXPECT_EQ(rel.num_aggregates(), 12u);
  EXPECT_EQ(rel.CMin(), 50u);
  EXPECT_TRUE(rel.Validate().ok());
}

TEST(CsvTest, RoundTripsTheRunningExample) {
  const TemporalRelation proj = testing::MakeProjRelation();
  const std::string text = RelationToCsv(proj);
  auto parsed = RelationFromCsv(text, proj.schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->SameTuples(proj));
}

TEST(CsvTest, QuotingSurvivesSpecialCharacters) {
  TemporalRelation rel{Schema({{"Name", ValueType::kString}})};
  ASSERT_TRUE(rel.Insert({Value("a,b")}, Interval(0, 1)).ok());
  ASSERT_TRUE(rel.Insert({Value("say \"hi\"")}, Interval(2, 3)).ok());
  auto parsed = RelationFromCsv(RelationToCsv(rel), rel.schema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->SameTuples(rel));
}

TEST(CsvTest, QuotedNewlinesRoundTrip) {
  TemporalRelation rel{Schema({{"Name", ValueType::kString},
                               {"V", ValueType::kInt64}})};
  ASSERT_TRUE(rel.Insert({Value("line1\nline2"), Value(1)}, Interval(0, 1)).ok());
  ASSERT_TRUE(rel.Insert({Value("a,\"b\"\n"), Value(2)}, Interval(2, 3)).ok());
  ASSERT_TRUE(rel.Insert({Value("plain"), Value(3)}, Interval(4, 5)).ok());
  const std::string text = RelationToCsv(rel);
  EXPECT_NE(text.find("\"line1\nline2\""), std::string::npos);
  auto parsed = RelationFromCsv(text, rel.schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_TRUE(parsed->SameTuples(rel));
  EXPECT_EQ(parsed->tuple(0).value(0).AsString(), "line1\nline2");
  EXPECT_EQ(RelationToCsv(*parsed), text);

  // Row numbers in errors count physical lines, quoted newlines included.
  auto bad = RelationFromCsv("Name,V,tb,te\n\"a\nb\",1,0,1\nc,2,5,2\n",
                             rel.schema());
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("CSV row 4 has tb > te"),
            std::string::npos)
      << bad.status().ToString();
}

TEST(CsvTest, OutOfRangeIntegersAreRejected) {
  const Schema schema({{"V", ValueType::kInt64}});
  // Beyond int64 in a value cell, in tb and in te: an error, not INT64_MAX.
  for (const char* text : {"V,tb,te\n9223372036854775808,0,1\n",
                           "V,tb,te\n-9223372036854775809,0,1\n",
                           "V,tb,te\n1,99999999999999999999,99999999999999999999\n",
                           "V,tb,te\n1,0,9223372036854775808\n"}) {
    auto parsed = RelationFromCsv(text, schema);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.status().ToString().find("out of range"),
              std::string::npos)
        << parsed.status().ToString();
  }
  // The extremes themselves, and strtoll's leading blanks and '+' sign,
  // still parse.
  auto edge = RelationFromCsv(
      "V,tb,te\n-9223372036854775808,0,9223372036854775807\n +7,+1, 2\n",
      schema);
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge->tuple(0).value(0).AsInt64(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(edge->tuple(0).interval().end,
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(edge->tuple(1).value(0).AsInt64(), 7);
  EXPECT_EQ(edge->tuple(1).interval(), Interval(1, 2));
}

TEST(CsvTest, DoublesAcceptWhatStrtodAccepts) {
  const Schema schema({{"V", ValueType::kDouble}});
  auto parsed = RelationFromCsv(
      "V,tb,te\n 1.5,0,0\n+2,1,1\n0x1p-2,2,2\n1e400,3,3\n-nan,4,4\n",
      schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tuple(0).value(0).AsDoubleExact(), 1.5);
  EXPECT_EQ(parsed->tuple(1).value(0).AsDoubleExact(), 2.0);
  EXPECT_EQ(parsed->tuple(2).value(0).AsDoubleExact(), 0.25);
  EXPECT_TRUE(std::isinf(parsed->tuple(3).value(0).AsDoubleExact()));
  EXPECT_TRUE(std::isnan(parsed->tuple(4).value(0).AsDoubleExact()));
  EXPECT_FALSE(RelationFromCsv("V,tb,te\n1.5 ,0,0\n", schema).ok());
}

TEST(CsvTest, CrlfAndMissingTrailingNewlineParseIdenticallyToLf) {
  // Input hardening (PR 5): files exported from Windows tools arrive with
  // CRLF line endings, and many writers drop the final newline. All four
  // combinations must parse to the same relation as plain LF input.
  const TemporalRelation proj = testing::MakeProjRelation();
  const std::string lf = RelationToCsv(proj);

  std::string crlf;
  for (const char ch : lf) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  std::string lf_chopped = lf;
  lf_chopped.pop_back();  // drop the trailing '\n'
  std::string crlf_chopped = crlf;
  crlf_chopped.erase(crlf_chopped.size() - 2);  // drop the trailing "\r\n"

  const std::vector<const std::string*> variants = {&lf, &crlf, &lf_chopped,
                                                    &crlf_chopped};
  for (const std::string* text : variants) {
    auto parsed = RelationFromCsv(*text, proj.schema());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(parsed->SameTuples(proj));
    EXPECT_EQ(parsed->size(), proj.size());
  }

  // A lone CRLF header with no rows still parses (empty relation), and a
  // bare '\r' line is treated as blank, not as a one-cell row.
  auto header_only =
      RelationFromCsv("Empl,Proj,Sal,tb,te\r\n", proj.schema());
  ASSERT_TRUE(header_only.ok());
  EXPECT_TRUE(header_only->empty());
  auto blank_crlf = RelationFromCsv(
      "Empl,Proj,Sal,tb,te\r\n\r\nJohn,A,800,1,4\r\n", proj.schema());
  ASSERT_TRUE(blank_crlf.ok());
  EXPECT_EQ(blank_crlf->size(), 1u);
}

TEST(CsvTest, RejectsMalformedInput) {
  const Schema schema({{"V", ValueType::kDouble}});
  EXPECT_FALSE(RelationFromCsv("", schema).ok());
  EXPECT_FALSE(RelationFromCsv("X,tb,te\n1,0,1\n", schema).ok());
  EXPECT_FALSE(RelationFromCsv("V,tb,te\nnotanumber,0,1\n", schema).ok());
  EXPECT_FALSE(RelationFromCsv("V,tb,te\n1.5,5,2\n", schema).ok());  // tb > te
  EXPECT_FALSE(RelationFromCsv("V,tb,te\n1.5,0\n", schema).ok());    // arity
  EXPECT_FALSE(RelationFromCsv("V,tb\n", schema).ok());
}

TEST(CsvTest, FileRoundTrip) {
  const TemporalRelation proj = testing::MakeProjRelation();
  const std::string path = ::testing::TempDir() + "/pta_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(proj, path).ok());
  auto parsed = ReadCsvFile(path, proj.schema());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->SameTuples(proj));
}

}  // namespace
}  // namespace pta
