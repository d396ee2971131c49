// Tests for src/data: Table, CSV round trips, splits.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/csv.hpp"
#include "data/split.hpp"
#include "data/table.hpp"

namespace mphpc::data {
namespace {

Table make_sample_table() {
  Table t;
  t.add_text_column("app", {"AMG", "CoMD", "SWFFT"});
  t.add_numeric_column("x", {1.0, 2.5, -3.0});
  t.add_numeric_column("y", {10.0, 20.0, 30.0});
  return t;
}

// ---------------------------------------------------------------- table ----

TEST(Table, BasicShape) {
  const Table t = make_sample_table();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.column_names(), (std::vector<std::string>{"app", "x", "y"}));
}

TEST(Table, ColumnTypes) {
  const Table t = make_sample_table();
  EXPECT_EQ(t.column_type("app"), ColumnType::kText);
  EXPECT_EQ(t.column_type("x"), ColumnType::kNumeric);
  EXPECT_TRUE(t.has_column("y"));
  EXPECT_FALSE(t.has_column("z"));
}

TEST(Table, AccessMismatchedTypeThrows) {
  const Table t = make_sample_table();
  EXPECT_THROW(t.numeric("app"), LookupError);
  EXPECT_THROW(t.text("x"), LookupError);
  EXPECT_THROW(t.numeric("missing"), LookupError);
}

TEST(Table, DuplicateColumnRejected) {
  Table t = make_sample_table();
  EXPECT_THROW(t.add_numeric_column("x"), ContractViolation);
}

TEST(Table, MismatchedLengthRejected) {
  Table t = make_sample_table();
  EXPECT_THROW(t.add_numeric_column("bad", {1.0}), ContractViolation);
}

TEST(Table, AppendRow) {
  Table t = make_sample_table();
  t.append_row(std::vector<double>{5.0, 50.0}, std::vector<std::string>{"miniFE"});
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.text("app")[3], "miniFE");
  EXPECT_EQ(t.numeric("y")[3], 50.0);
}

TEST(Table, AppendRowWrongArityThrows) {
  Table t = make_sample_table();
  EXPECT_THROW(
      t.append_row(std::vector<double>{1.0}, std::vector<std::string>{"x"}),
      ContractViolation);
}

TEST(Table, SelectRows) {
  const Table t = make_sample_table();
  const std::vector<std::size_t> rows = {2, 0};
  const Table s = t.select_rows(rows);
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.text("app")[0], "SWFFT");
  EXPECT_EQ(s.numeric("x")[1], 1.0);
}

TEST(Table, SelectRowsOutOfRangeThrows) {
  const Table t = make_sample_table();
  const std::vector<std::size_t> rows = {5};
  EXPECT_THROW(t.select_rows(rows), ContractViolation);
}

TEST(Table, SelectColumns) {
  const Table t = make_sample_table();
  const std::vector<std::string> cols = {"y", "app"};
  const Table s = t.select_columns(cols);
  EXPECT_EQ(s.column_names(), cols);
  EXPECT_EQ(s.num_rows(), 3u);
}

TEST(Table, FilterPredicate) {
  const Table t = make_sample_table();
  const auto rows = t.filter([&](std::size_t r) { return t.numeric("x")[r] > 0.0; });
  EXPECT_EQ(rows, (std::vector<std::size_t>{0, 1}));
}

TEST(Table, ToRowMajor) {
  const Table t = make_sample_table();
  const std::vector<std::string> cols = {"x", "y"};
  const auto m = t.to_row_major(cols);
  ASSERT_EQ(m.size(), 6u);
  EXPECT_EQ(m[0], 1.0);
  EXPECT_EQ(m[1], 10.0);
  EXPECT_EQ(m[4], -3.0);
  EXPECT_EQ(m[5], 30.0);
}

// ------------------------------------------------------------------ csv ----

TEST(Csv, RoundTripPreservesValues) {
  const Table t = make_sample_table();
  std::ostringstream out;
  write_csv(t, out);
  std::istringstream in(out.str());
  const Table r = read_csv(in);
  EXPECT_EQ(r.num_rows(), t.num_rows());
  EXPECT_EQ(r.column_names(), t.column_names());
  EXPECT_EQ(r.text("app"), t.text("app"));
  EXPECT_EQ(r.numeric("x"), t.numeric("x"));
}

TEST(Csv, QuotingRoundTrip) {
  Table t;
  t.add_text_column("s", {"a,b", "he said \"hi\"", "plain"});
  t.add_numeric_column("v", {1.0, 2.0, 3.0});
  std::ostringstream out;
  write_csv(t, out);
  std::istringstream in(out.str());
  const Table r = read_csv(in);
  EXPECT_EQ(r.text("s"), t.text("s"));
}

TEST(Csv, TypeInference) {
  std::istringstream in("name,value\nfoo,1.5\nbar,2\n");
  const Table t = read_csv(in);
  EXPECT_EQ(t.column_type("name"), ColumnType::kText);
  EXPECT_EQ(t.column_type("value"), ColumnType::kNumeric);
  EXPECT_EQ(t.numeric("value")[1], 2.0);
}

TEST(Csv, ExplicitTextColumnsOverrideInference) {
  std::istringstream in("id,value\n1,1.5\n2,2.5\n");
  const Table t = read_csv(in, {"id"});
  EXPECT_EQ(t.column_type("id"), ColumnType::kText);
  EXPECT_EQ(t.text("id")[0], "1");
}

TEST(Csv, TypeInferenceScansAllRows) {
  // A text column whose first cell looks numeric (a job id) must still
  // load as text — first-row-only inference used to throw on "j-17".
  std::istringstream in("id,value\n123,1.5\nj-17,2.5\n");
  const Table t = read_csv(in);
  EXPECT_EQ(t.column_type("id"), ColumnType::kText);
  EXPECT_EQ(t.text("id"), (std::vector<std::string>{"123", "j-17"}));
  EXPECT_EQ(t.column_type("value"), ColumnType::kNumeric);
}

TEST(Csv, StrayQuoteInUnquotedCellIsLiteral) {
  // RFC 4180: a quote only opens a quoted section at cell start; ab"cd
  // used to drop the quote and merge cells across the comma.
  std::istringstream in("s,t\nab\"cd,x\"y\n");
  const Table t = read_csv(in);
  EXPECT_EQ(t.text("s")[0], "ab\"cd");
  EXPECT_EQ(t.text("t")[0], "x\"y");
}

TEST(Csv, StrayQuoteRoundTrips) {
  Table t;
  t.add_text_column("s", {"ab\"cd", "\"quoted\"", "tail\""});
  std::ostringstream out;
  write_csv(t, out);
  std::istringstream in(out.str());
  const Table r = read_csv(in);
  EXPECT_EQ(r.text("s"), t.text("s"));
}

TEST(Csv, MalformedRowThrows) {
  std::istringstream in("a,b\n1\n");
  EXPECT_THROW(read_csv(in), ParseError);
}

TEST(Csv, MalformedRowReportsLineNumber) {
  std::istringstream in("a,b\n1,2\n\n3\n");
  try {
    read_csv(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    // Line 4 of the input: header, good row, blank line, bad row.
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
  }
}

TEST(Csv, NonFiniteCellsRejectedWithColumnAndRow) {
  // nan/inf parse as doubles, so they keep the column numeric and are
  // rejected there instead of turning the column into text.
  for (const char* cell : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    std::istringstream in(std::string("a,b\n1,2\n3,") + cell + "\n");
    try {
      (void)read_csv(in);
      FAIL() << "expected ParseError for " << cell;
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("column 'b'"), std::string::npos) << what;
      EXPECT_NE(what.find("data row 2"), std::string::npos) << what;
    }
  }
  // A column that is text anyway may hold the word.
  std::istringstream text("name,v\nnan,1\nfoo,2\n");
  const Table t = read_csv(text);
  EXPECT_EQ(t.column_type("name"), ColumnType::kText);
  EXPECT_EQ(t.text("name")[0], "nan");
}

TEST(Csv, UnterminatedQuoteThrows) {
  std::istringstream in("a\n\"unterminated\n");
  EXPECT_THROW(read_csv(in), ParseError);
}

TEST(Csv, UnterminatedQuoteReportsLineNumber) {
  std::istringstream in("a\nok\n\"unterminated\n");
  try {
    read_csv(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(Csv, EmptyInputThrows) {
  std::istringstream in("");
  EXPECT_THROW(read_csv(in), ParseError);
}

TEST(Csv, FileRoundTrip) {
  const Table t = make_sample_table();
  const std::string path = ::testing::TempDir() + "/mphpc_test.csv";
  write_csv_file(t, path);
  const Table r = read_csv_file(path);
  EXPECT_EQ(r.num_rows(), t.num_rows());
  EXPECT_EQ(r.numeric("y"), t.numeric("y"));
}

TEST(Csv, UnreadablePathThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/dir/file.csv"), std::runtime_error);
}

// --------------------------------------------------------------- splits ----

TEST(TrainTestSplit, SizesAndDisjointness) {
  const auto split = train_test_split(1000, 0.1, 42);
  EXPECT_EQ(split.test.size(), 100u);
  EXPECT_EQ(split.train.size(), 900u);
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 1000u);
}

TEST(TrainTestSplit, Deterministic) {
  const auto a = train_test_split(100, 0.2, 7);
  const auto b = train_test_split(100, 0.2, 7);
  EXPECT_EQ(a.test, b.test);
  const auto c = train_test_split(100, 0.2, 8);
  EXPECT_NE(a.test, c.test);
}

TEST(TrainTestSplit, RejectsBadFraction) {
  EXPECT_THROW(train_test_split(10, 0.0, 1), ContractViolation);
  EXPECT_THROW(train_test_split(10, 1.0, 1), ContractViolation);
}

class KFoldProperty : public ::testing::TestWithParam<int> {};

TEST_P(KFoldProperty, PartitionIsExact) {
  const int k = GetParam();
  const std::size_t n = 103;
  const auto folds = k_fold(n, k, 11);
  ASSERT_EQ(folds.size(), static_cast<std::size_t>(k));
  std::set<std::size_t> seen;
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.train.size() + fold.validation.size(), n);
    for (const std::size_t v : fold.validation) {
      EXPECT_TRUE(seen.insert(v).second) << "index in two validation folds";
    }
    // train and validation are disjoint
    std::set<std::size_t> train(fold.train.begin(), fold.train.end());
    for (const std::size_t v : fold.validation) EXPECT_FALSE(train.count(v));
  }
  EXPECT_EQ(seen.size(), n);
}

TEST_P(KFoldProperty, FoldSizesBalanced) {
  const int k = GetParam();
  const auto folds = k_fold(100, k, 3);
  std::size_t lo = 1000;
  std::size_t hi = 0;
  for (const auto& fold : folds) {
    lo = std::min(lo, fold.validation.size());
    hi = std::max(hi, fold.validation.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

INSTANTIATE_TEST_SUITE_P(FoldCounts, KFoldProperty, ::testing::Values(2, 3, 5, 10));

TEST(KFold, RejectsBadK) {
  EXPECT_THROW(k_fold(10, 1, 1), ContractViolation);
  EXPECT_THROW(k_fold(3, 4, 1), ContractViolation);
}

TEST(GroupHoldout, SplitsByLabel) {
  const std::vector<std::string> groups = {"a", "b", "a", "c", "b"};
  const auto split = group_holdout(groups, "b");
  EXPECT_EQ(split.test, (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(split.train, (std::vector<std::size_t>{0, 2, 3}));
}

TEST(GroupHoldout, MissingGroupThrows) {
  const std::vector<std::string> groups = {"a"};
  EXPECT_THROW(group_holdout(groups, "zzz"), ContractViolation);
}

TEST(RowsWhere, FindsMatches) {
  const std::vector<std::string> groups = {"x", "y", "x"};
  EXPECT_EQ(rows_where(groups, "x"), (std::vector<std::size_t>{0, 2}));
  EXPECT_TRUE(rows_where(groups, "zzz").empty());
}

}  // namespace
}  // namespace mphpc::data
