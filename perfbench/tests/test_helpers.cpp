// Unit tests of the benchmark's helpers: the percentile rule, seed
// determinism of the request stream and arrival schedule, span self-time
// arithmetic and the parity check.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "helpers.hpp"

using namespace perfbench;

TEST(PercentileRule, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentileSorted(v, 50.0), 50.0);
    EXPECT_EQ(percentileSorted(v, 99.0), 99.0);
    EXPECT_EQ(percentileSorted(v, 100.0), 100.0);
    EXPECT_EQ(percentileSorted(v, 0.0), 1.0);
    EXPECT_EQ(percentileSorted({}, 50.0), 0.0);
}

TEST(PercentileRule, HighestPercentileWithTenBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(samplesBeyond(999, 99.0), 9u);
    EXPECT_EQ(supportedTailPercentile(1000), 99.0);
    EXPECT_EQ(supportedTailPercentile(999), 95.0);
    EXPECT_EQ(supportedTailPercentile(100000), 99.0);
    EXPECT_EQ(supportedTailPercentile(200), 95.0);
    EXPECT_EQ(supportedTailPercentile(100), 90.0);
    EXPECT_EQ(supportedTailPercentile(20), 50.0);
    EXPECT_EQ(supportedTailPercentile(19), 0.0);
}

TEST(PercentileRule, SummaryReportsP99OnlyWhenSupported)
{
    std::vector<double> small, large;
    for (int i = 0; i < 500; ++i)
        small.push_back(499 - i); // unsorted input
    for (int i = 0; i < 5000; ++i)
        large.push_back(i % 1000);
    const Summary s = summarize(small);
    EXPECT_EQ(s.tail_pct, 95.0);
    EXPECT_EQ(s.n, 500u);
    const Summary l = summarize(large);
    EXPECT_EQ(l.tail_pct, 99.0);
    EXPECT_EQ(l.tail, 989.0);
    EXPECT_EQ(l.p50, 499.0);
}

TEST(SeedDeterminism, PoissonSchedule)
{
    const auto a = poissonSchedule(subSeed(7, 4), 1000.0, 5.0);
    const auto b = poissonSchedule(subSeed(7, 4), 1000.0, 5.0);
    const auto c = poissonSchedule(subSeed(8, 4), 1000.0, 5.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GT(a.front(), 0.0);
    EXPECT_LT(a.back(), 5.0);
    // 5000 expected arrivals: within 5% of the rate.
    EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 250.0);
    EXPECT_TRUE(poissonSchedule(1, 0.0, 5.0).empty());
}

TEST(SeedDeterminism, QueryStream)
{
    const auto a = queryStream(subSeed(7, 3), 2000, 4096);
    const auto b = queryStream(subSeed(7, 3), 2000, 4096);
    const auto c = queryStream(subSeed(9, 3), 2000, 4096);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    std::set<std::uint32_t> distinct(a.begin(), a.end());
    EXPECT_GT(distinct.size(), 1500u);
    EXPECT_LT(*distinct.rbegin(), 2000u);
    // Sub-seeds of one workload seed are independent streams.
    EXPECT_NE(subSeed(7, 3), subSeed(7, 4));
}

TEST(SelfTime, ChildrenUnionClippedToParent)
{
    // [10,30] and [20,50] overlap (40 covered), [90,120] is clipped to 10.
    EXPECT_DOUBLE_EQ(selfTime({0, 100}, {{10, 30}, {20, 50}, {90, 120}}),
                     50.0);
    EXPECT_DOUBLE_EQ(selfTime({0, 100}, {}), 100.0);
    EXPECT_DOUBLE_EQ(selfTime({0, 100}, {{150, 200}, {-20, -10}}), 100.0);
    EXPECT_DOUBLE_EQ(selfTime({0, 100}, {{0, 100}, {10, 20}}), 0.0);
    // A child nested inside another counts once.
    EXPECT_DOUBLE_EQ(selfTime({0, 100}, {{10, 60}, {20, 30}}), 50.0);
}

TEST(SelfTime, UnattributedIsTheRemainderNeverNegative)
{
    EXPECT_DOUBLE_EQ(unattributed(100.0, {30.0, 40.0, 10.0}), 20.0);
    EXPECT_DOUBLE_EQ(unattributed(100.0, {80.0, 40.0}), 0.0);
    EXPECT_DOUBLE_EQ(unattributed(100.0, {}), 100.0);
    EXPECT_DOUBLE_EQ(unattributed(100.0, {-5.0, 10.0}), 90.0);
}

TEST(Parity, CatchesOnePerturbedScore)
{
    using hermes::vecstore::Hit;
    using hermes::vecstore::HitList;
    const HitList want = {{4, 0.25f}, {9, 0.5f}, {1, 0.75f}};
    EXPECT_EQ(parityDiff(want, want), "");

    HitList perturbed = want;
    perturbed[1].score = std::nextafter(perturbed[1].score, 1.0f);
    EXPECT_NE(parityDiff(perturbed, want), "");
    EXPECT_NE(parityDiff(perturbed, want).find("hit 1"), std::string::npos);

    HitList swapped = want;
    std::swap(swapped[0].id, swapped[1].id);
    EXPECT_NE(parityDiff(swapped, want), "");

    HitList shorter(want.begin(), want.end() - 1);
    EXPECT_NE(parityDiff(shorter, want), "");
}
