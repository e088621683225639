#include <cmath>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "common/value.h"

namespace dbim {
namespace {

// ---- Value ----

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("x").as_string(), "x");
  EXPECT_TRUE(Value(3).is_numeric());
  EXPECT_TRUE(Value(3.0).is_numeric());
  EXPECT_FALSE(Value("3").is_numeric());
}

TEST(Value, NumericCrossKindEquality) {
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_NE(Value(2), Value(2.5));
  EXPECT_NE(Value(2), Value("2"));
  EXPECT_EQ(Value(2).Hash(), Value(2.0).Hash());
}

TEST(Value, TotalOrder) {
  EXPECT_LT(Value(), Value(0));          // null < numeric
  EXPECT_LT(Value(5), Value("a"));       // numeric < string
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.5), Value(2));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_GE(Value(3), Value(3.0));
  EXPECT_LE(Value(3), Value(3.0));
}

TEST(Value, ToStringRendering) {
  EXPECT_EQ(Value().ToString(), "<null>");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("abc").ToString(), "abc");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

// ---- String utilities ----

TEST(StringUtil, SplitKeepsEmptyPieces) {
  const auto pieces = Split("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
}

TEST(StringUtil, SplitSingle) {
  const auto pieces = Split("abc", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "abc");
}

TEST(StringUtil, JoinRoundTrips) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.0 / 3.0), "0.33");
}

TEST(StringUtil, ParseUintAcceptsDigitsWithinRange) {
  uint64_t out = 99;
  EXPECT_TRUE(ParseUint("0", 65535, &out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(ParseUint("7411", 65535, &out));
  EXPECT_EQ(out, 7411u);
  EXPECT_TRUE(ParseUint("65535", 65535, &out));
  EXPECT_EQ(out, 65535u);
  EXPECT_TRUE(ParseUint("007", 10, &out));
  EXPECT_EQ(out, 7u);
  EXPECT_TRUE(ParseUint("18446744073709551615", UINT64_MAX, &out));
  EXPECT_EQ(out, UINT64_MAX);
}

TEST(StringUtil, ParseUintRejectsMalformedAndOutOfRange) {
  // A port of 70000 cast to uint16_t would listen on 4464, and strtoul
  // reads non-numeric text as 0: both must be rejected, not truncated.
  for (const char* bad :
       {"70000", "65536", "", "abc", "12abc", "-1", "+5", " 5", "5 ", "1.5",
        "0x10", "18446744073709551616", "99999999999999999999"}) {
    uint64_t out = 42;
    EXPECT_FALSE(ParseUint(bad, 65535, &out)) << "'" << bad << "'";
    EXPECT_EQ(out, 42u) << "'" << bad << "'";
  }
  uint64_t out = 42;
  EXPECT_FALSE(ParseUint("11", 10, &out));
  EXPECT_EQ(out, 42u);
}

// ---- CSV ----

TEST(Csv, ParsesPlainFields) {
  const auto fields = Csv::ParseLine("a,b,c");
  ASSERT_TRUE(fields.has_value());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Csv, ParsesQuotedFields) {
  const auto fields = Csv::ParseLine(R"("a,b","say ""hi""",c)");
  ASSERT_TRUE(fields.has_value());
  EXPECT_EQ((*fields)[0], "a,b");
  EXPECT_EQ((*fields)[1], "say \"hi\"");
  EXPECT_EQ((*fields)[2], "c");
}

TEST(Csv, RejectsMalformedQuotes) {
  EXPECT_FALSE(Csv::ParseLine("\"unterminated").has_value());
  EXPECT_FALSE(Csv::ParseLine("ab\"cd\"").has_value());
}

TEST(Csv, FormatQuotesWhenNeeded) {
  EXPECT_EQ(Csv::FormatLine({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
}

TEST(Csv, RoundTrip) {
  const std::vector<std::string> row = {"plain", "with,comma", "with\"quote",
                                        " padded "};
  const auto parsed = Csv::ParseLine(Csv::FormatLine(row));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, row);
}

// ---- Rng / Zipf ----

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(a.UniformInt(0, 1u << 30), child.UniformInt(0, 1u << 30));
}

TEST(Zipf, UniformWhenSkewZero) {
  ZipfDistribution zipf(10, 0.0);
  Rng rng(1);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  for (const int c : counts) {
    EXPECT_GT(c, 1500);
    EXPECT_LT(c, 2500);
  }
}

TEST(Zipf, SkewConcentratesOnLowRanks) {
  ZipfDistribution zipf(100, 2.0);
  Rng rng(1);
  size_t first_two = 0;
  const size_t samples = 10000;
  for (size_t i = 0; i < samples; ++i) {
    if (zipf.Sample(rng) < 2) ++first_two;
  }
  // With s=2 the first two ranks carry ~76% of the mass.
  EXPECT_GT(first_two, samples / 2);
}

// ---- TablePrinter ----

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"name", "v"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "23"});
  const std::string text = table.ToText();
  EXPECT_NE(text.find("name   | v"), std::string::npos);
  EXPECT_NE(text.find("longer | 23"), std::string::npos);
}

TEST(TablePrinter, CsvOutput) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "x,y"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,\"x,y\"\n");
}

TEST(TablePrinter, NumTrimsTrailingZeros) {
  EXPECT_EQ(TablePrinter::Num(2.5000, 4), "2.5");
  EXPECT_EQ(TablePrinter::Num(3.0, 4), "3.0");
  EXPECT_EQ(TablePrinter::Num(0.1234, 2), "0.12");
}

// ---- Timer / Deadline ----

TEST(Deadline, InfiniteNeverExpires) {
  const Deadline d = Deadline::Infinite();
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingSeconds(), 1e9);
}

TEST(Deadline, TinyBudgetExpires) {
  const Deadline d(1e-9);
  // Any measurable elapsed time exceeds a nanosecond budget.
  Timer t;
  while (t.Seconds() < 1e-6) {
  }
  EXPECT_TRUE(d.Expired());
}

}  // namespace
}  // namespace dbim
