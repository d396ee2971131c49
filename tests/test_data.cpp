// Tests for src/data: train/test, k-fold and group splits.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "data/split.hpp"

namespace mphpc::data {
namespace {

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
