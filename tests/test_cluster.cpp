/**
 * @file
 * Tests for K-means, imbalance metrics, and datastore partitioning (§4.1).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>

#include "cluster/imbalance.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/partitioner.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;
using namespace hermes::cluster;
using hermes::util::Rng;
using hermes::vecstore::Matrix;

/** Well-separated blobs: k-means must recover them. */
Matrix
blobs(std::size_t per_blob, std::size_t num_blobs, std::size_t d,
      std::uint64_t seed, std::vector<std::uint32_t> *labels = nullptr)
{
    Rng rng(seed);
    Matrix centers(num_blobs, d);
    for (std::size_t b = 0; b < num_blobs; ++b) {
        auto row = centers.row(b);
        for (std::size_t j = 0; j < d; ++j)
            row[j] = static_cast<float>(rng.gaussian() * 10.0);
    }
    Matrix data(per_blob * num_blobs, d);
    for (std::size_t b = 0; b < num_blobs; ++b) {
        for (std::size_t i = 0; i < per_blob; ++i) {
            auto row = data.row(b * per_blob + i);
            auto c = centers.row(b);
            for (std::size_t j = 0; j < d; ++j)
                row[j] = c[j] + static_cast<float>(rng.gaussian(0.0, 0.3));
            if (labels)
                labels->push_back(static_cast<std::uint32_t>(b));
        }
    }
    return data;
}

TEST(KMeans, ProducesKCentroidsAndValidAssignments)
{
    auto data = blobs(50, 4, 8, 1);
    KMeansConfig config;
    config.k = 4;
    auto result = kmeans(data, config);
    EXPECT_EQ(result.centroids.rows(), 4u);
    EXPECT_EQ(result.assignments.size(), data.rows());
    for (auto a : result.assignments)
        EXPECT_LT(a, 4u);
    std::size_t total = std::accumulate(result.sizes.begin(),
                                        result.sizes.end(), std::size_t{0});
    EXPECT_EQ(total, data.rows());
}

TEST(KMeans, RecoversWellSeparatedBlobs)
{
    std::vector<std::uint32_t> labels;
    auto data = blobs(60, 5, 8, 2, &labels);
    KMeansConfig config;
    config.k = 5;
    auto result = kmeans(data, config);

    // Every k-means cluster should be label-pure for blobs this separated.
    for (std::size_t c = 0; c < 5; ++c) {
        std::set<std::uint32_t> seen;
        for (std::size_t i = 0; i < data.rows(); ++i)
            if (result.assignments[i] == c)
                seen.insert(labels[i]);
        EXPECT_LE(seen.size(), 1u) << "cluster " << c << " is impure";
    }
}

TEST(KMeans, ObjectiveImprovesOverSingleIteration)
{
    auto data = blobs(80, 6, 12, 3);
    KMeansConfig one, many;
    one.k = many.k = 6;
    one.max_iterations = 1;
    many.max_iterations = 20;
    one.seed = many.seed = 7;
    one.use_kmeanspp = many.use_kmeanspp = false;
    EXPECT_LE(kmeans(data, many).objective, kmeans(data, one).objective);
}

/** memcmp-equal matrices: same shape and the same bits in every cell. */
void
expectSameBits(const Matrix &a, const Matrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.dim(), b.dim());
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.rows() * a.dim() * sizeof(float)),
              0);
}

/**
 * Two clusters split on dim 0 whose dim-1 sums depend on the order of
 * the adds: in row order 1 + 2^58 - 2^58 cancels to 0, since the 1 is
 * absorbed, while any other order can keep it.
 */
Matrix
cancellingSums(std::size_t rows)
{
    const float pattern[3] = {1.f, std::ldexp(1.f, 58),
                              -std::ldexp(1.f, 58)};
    Matrix data(rows, 2);
    for (std::size_t i = 0; i < rows; ++i) {
        auto row = data.row(i);
        row[0] = (i % 2) ? std::ldexp(1.f, 62) : 0.f;
        row[1] = pattern[(i / 2) % 3];
    }
    return data;
}

/**
 * A cluster of +-1 values and, every 900th row, one of 2^40 +- 2^27.
 * Summed in row order the objective absorbs each distance near 1 that
 * follows the first far row (distance 2^54); a sum that restarts from 0
 * partway through keeps some of them.
 */
Matrix
absorbedDistances(std::size_t rows)
{
    Matrix data(rows, 1);
    for (std::size_t i = 0; i < rows; ++i) {
        const bool far = i % 900 == 0;
        const float sign = (i / (far ? 900 : 1)) % 2 ? -1.f : 1.f;
        data.row(i)[0] =
            far ? std::ldexp(1.f, 40) + sign * std::ldexp(1.f, 27) : sign;
    }
    return data;
}

/** 3 distinct points, each repeated @p copies times. */
Matrix
threeDistinctPoints(std::size_t copies, std::size_t d)
{
    Matrix data(3 * copies, d);
    for (std::size_t i = 0; i < data.rows(); ++i) {
        auto row = data.row(i);
        for (std::size_t j = 0; j < d; ++j)
            row[j] = static_cast<float>((i % 3) * 5 + j);
    }
    return data;
}

/**
 * A fixed seed gives the same bits on every run, with no pool (param 0)
 * or a pool of GetParam() workers. A pool of one worker takes the fused
 * Lloyd pass, larger pools the split one.
 */
class KMeansPool : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(KMeansPool, DeterministicForFixedSeed)
{
    std::unique_ptr<util::ThreadPool> pool;
    if (GetParam() > 0)
        pool = std::make_unique<util::ThreadPool>(GetParam());

    struct Case
    {
        const char *name;
        Matrix data;
        KMeansConfig config;
    };
    std::vector<Case> cases;

    KMeansConfig small_config;
    small_config.k = 3;
    small_config.seed = 99;
    cases.push_back({"small", blobs(40, 3, 6, 4), small_config});

    // Three 4096-row blocks, the last one partial.
    KMeansConfig blob_config;
    blob_config.k = 5;
    blob_config.seed = 99;
    cases.push_back({"blobs", blobs(3000, 3, 6, 4), blob_config});

    KMeansConfig sub_config = blob_config;
    sub_config.max_training_points = 5000;
    cases.push_back({"subsampled", blobs(3000, 3, 6, 4), sub_config});

    KMeansConfig uniform_config = blob_config;
    uniform_config.use_kmeanspp = false;
    cases.push_back({"uniform-seeding", blobs(3000, 3, 6, 4),
                     uniform_config});

    KMeansConfig two_config;
    two_config.k = 2;
    two_config.seed = 3;
    cases.push_back({"cancelling-sums", cancellingSums(9000), two_config});
    cases.push_back({"absorbed-distances", absorbedDistances(9000),
                     two_config});

    // k exceeds the distinct points: k-means++ hits its total <= 0
    // fallback and every Lloyd iteration repairs empty clusters.
    KMeansConfig dup_config;
    dup_config.k = 6;
    dup_config.seed = 5;
    cases.push_back({"duplicates", threeDistinctPoints(1700, 8),
                     dup_config});

    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        auto serial = kmeans(c.data, c.config);
        auto pooled = kmeans(c.data, c.config, pool.get());
        expectSameBits(pooled.centroids, serial.centroids);
        EXPECT_EQ(pooled.assignments, serial.assignments);
        EXPECT_EQ(pooled.sizes, serial.sizes);
        EXPECT_EQ(pooled.iterations, serial.iterations);
        EXPECT_EQ(pooled.objective, serial.objective);
    }

    // The duplicate input leaves at least k - 3 clusters empty.
    const auto &dup = cases.back();
    auto run = kmeans(dup.data, dup.config, pool.get());
    EXPECT_GE(std::count(run.sizes.begin(), run.sizes.end(), 0u), 3);
}

INSTANTIATE_TEST_SUITE_P(Workers, KMeansPool,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

TEST(KMeans, SubsampledTrainingStillCovers)
{
    auto data = blobs(100, 4, 8, 5);
    KMeansConfig config;
    config.k = 4;
    config.max_training_points = 80; // 20% subsample
    auto result = kmeans(data, config);
    EXPECT_EQ(result.centroids.rows(), 4u);
    // Full-data assignment must still put points in every cluster.
    auto assignments = assignToCentroids(data, result.centroids);
    std::vector<std::size_t> sizes(4, 0);
    for (auto a : assignments)
        sizes[a]++;
    for (auto s : sizes)
        EXPECT_GT(s, 0u);
}

TEST(KMeans, KEqualsNAssignsOnePointEach)
{
    auto data = blobs(1, 6, 4, 6);
    KMeansConfig config;
    config.k = 6;
    auto result = kmeans(data, config);
    for (auto s : result.sizes)
        EXPECT_EQ(s, 1u);
}

TEST(KMeans, NearestCentroidsReturnsSortedPrefix)
{
    auto data = blobs(30, 5, 8, 7);
    KMeansConfig config;
    config.k = 5;
    auto result = kmeans(data, config);
    auto top3 = nearestCentroids(data.row(0), result.centroids, 3);
    ASSERT_EQ(top3.size(), 3u);
    EXPECT_EQ(top3[0], nearestCentroid(data.row(0), result.centroids));
    // Asking for more than k clamps.
    auto top9 = nearestCentroids(data.row(0), result.centroids, 9);
    EXPECT_EQ(top9.size(), 5u);
}

TEST(Imbalance, PerfectBalance)
{
    auto stats = imbalance({10, 10, 10, 10});
    EXPECT_DOUBLE_EQ(stats.max_min_ratio, 1.0);
    EXPECT_DOUBLE_EQ(stats.variance, 0.0);
    EXPECT_NEAR(stats.normalized_entropy, 1.0, 1e-12);
}

TEST(Imbalance, KnownRatio)
{
    auto stats = imbalance({20, 10});
    EXPECT_DOUBLE_EQ(stats.max_min_ratio, 2.0);
    EXPECT_DOUBLE_EQ(stats.variance, 25.0);
    EXPECT_LT(stats.normalized_entropy, 1.0);
}

TEST(Imbalance, EmptyClusterIsInfiniteRatio)
{
    auto stats = imbalance({5, 0, 5});
    EXPECT_TRUE(std::isinf(stats.max_min_ratio));
}

TEST(Imbalance, SeedSearchPicksBestCandidate)
{
    hermes::workload::CorpusConfig cc;
    cc.num_docs = 3000;
    cc.dim = 16;
    cc.num_topics = 12;
    cc.seed = 31;
    auto corpus = hermes::workload::generateCorpus(cc);

    auto result = findBalancedSeed(corpus.embeddings, 6, 6, 100, 0.25);
    ASSERT_EQ(result.all_ratios.size(), 6u);
    double best = *std::min_element(result.all_ratios.begin(),
                                    result.all_ratios.end());
    EXPECT_DOUBLE_EQ(result.best_ratio, best);
    EXPECT_GE(result.best_seed, 100u);
    EXPECT_LT(result.best_seed, 106u);

    // Candidates run in parallel on a pool: same ratios, same winner.
    util::ThreadPool pool(3);
    auto pooled = findBalancedSeed(corpus.embeddings, 6, 6, 100, 0.25,
                                   &pool);
    EXPECT_EQ(pooled.all_ratios, result.all_ratios);
    EXPECT_EQ(pooled.best_seed, result.best_seed);
}

/** Every partition scheme covers each row exactly once. */
class PartitionSchemes : public ::testing::TestWithParam<PartitionScheme>
{
};

TEST_P(PartitionSchemes, ExactCoverage)
{
    auto data = blobs(40, 5, 8, 8);
    PartitionConfig config;
    config.num_partitions = 5;
    config.scheme = GetParam();
    config.seeds_to_try = 2;
    auto partitioning = partition(data, config);

    ASSERT_EQ(partitioning.members.size(), 5u);
    std::vector<int> seen(data.rows(), 0);
    for (const auto &members : partitioning.members)
        for (auto idx : members)
            seen[idx]++;
    for (int s : seen)
        EXPECT_EQ(s, 1);
    EXPECT_EQ(partitioning.centroids.rows(), 5u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PartitionSchemes,
                         ::testing::Values(PartitionScheme::Similarity,
                                           PartitionScheme::RoundRobin,
                                           PartitionScheme::Contiguous));

TEST(Partitioner, SimilarityGroupsTopicMates)
{
    std::vector<std::uint32_t> labels;
    auto data = blobs(60, 6, 10, 9, &labels);
    PartitionConfig config;
    config.num_partitions = 6;
    config.scheme = PartitionScheme::Similarity;
    config.seeds_to_try = 3;
    auto partitioning = partition(data, config);

    // Blob purity: each partition should be dominated by one label.
    double pure = 0, total = 0;
    for (const auto &members : partitioning.members) {
        std::vector<std::size_t> counts(6, 0);
        for (auto idx : members)
            counts[labels[idx]]++;
        pure += static_cast<double>(
            *std::max_element(counts.begin(), counts.end()));
        total += static_cast<double>(members.size());
    }
    EXPECT_GT(pure / total, 0.95);
}

TEST(Partitioner, RoundRobinIsNearlyPerfectlyBalanced)
{
    auto data = blobs(41, 5, 6, 10); // 205 rows over 5 partitions
    PartitionConfig config;
    config.num_partitions = 5;
    config.scheme = PartitionScheme::RoundRobin;
    auto partitioning = partition(data, config);
    EXPECT_LE(partitioning.imbalance.max_min_ratio, 1.03);
}

TEST(Partitioner, SimilarityImbalanceReflectsTopicSkew)
{
    // Zipf-skewed topics make similarity clusters uneven (Fig 13),
    // round-robin stays balanced on the same data.
    hermes::workload::CorpusConfig cc;
    cc.num_docs = 4000;
    cc.dim = 16;
    cc.num_topics = 10;
    cc.topic_zipf = 1.0;
    cc.seed = 77;
    auto corpus = hermes::workload::generateCorpus(cc);

    PartitionConfig sim_config;
    sim_config.num_partitions = 10;
    sim_config.scheme = PartitionScheme::Similarity;
    sim_config.seeds_to_try = 3;
    auto sim_parts = partition(corpus.embeddings, sim_config);

    PartitionConfig rr_config = sim_config;
    rr_config.scheme = PartitionScheme::RoundRobin;
    auto rr_parts = partition(corpus.embeddings, rr_config);

    EXPECT_GT(sim_parts.imbalance.max_min_ratio,
              rr_parts.imbalance.max_min_ratio);
}

TEST(Partitioner, PoolMatchesSerial)
{
    hermes::workload::CorpusConfig cc;
    cc.num_docs = 9000;
    cc.dim = 16;
    cc.num_topics = 10;
    cc.topic_zipf = 1.0;
    cc.seed = 78;
    auto corpus = hermes::workload::generateCorpus(cc);

    PartitionConfig config;
    config.num_partitions = 8;
    config.seeds_to_try = 4;
    util::ThreadPool pool(4);
    auto serial = partition(corpus.embeddings, config);
    auto pooled = partition(corpus.embeddings, config, &pool);
    EXPECT_EQ(pooled.members, serial.members);
    expectSameBits(pooled.centroids, serial.centroids);
    EXPECT_EQ(pooled.chosen_seed, serial.chosen_seed);
}

} // namespace
