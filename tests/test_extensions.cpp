/**
 * @file
 * Tests for the extension features beyond the paper's core design:
 * dynamic IVF updates, SPANN-style list pruning, thread-pool batch
 * search, adaptive cluster pruning, non-ideal cache hit rates, the
 * serving-queue simulator, and generation-trace analysis.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/distributed_store.hpp"
#include "core/search_strategy.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "index/ivf_index.hpp"
#include "rag/analysis.hpp"
#include "sim/pipeline.hpp"
#include "sim/queue_sim.hpp"
#include "util/threadpool.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;
using vecstore::Matrix;
using vecstore::Metric;

struct IvfFixtureData
{
    Matrix base{0};
    Matrix queries{0};
    std::vector<vecstore::HitList> truth;
    std::unique_ptr<index::IvfIndex> ivf;
};

const IvfFixtureData &
ivfData()
{
    static IvfFixtureData data = [] {
        workload::CorpusConfig cc;
        cc.num_docs = 5000;
        cc.dim = 24;
        cc.num_topics = 16;
        cc.seed = 91;
        auto corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 32;
        qc.seed = 92;
        auto queries = workload::generateQueries(corpus, qc);

        IvfFixtureData out;
        out.base = std::move(corpus.embeddings);
        out.queries = std::move(queries.embeddings);
        out.truth = eval::exactGroundTruth(out.base, out.queries, 10,
                                           Metric::L2);
        index::IvfConfig config;
        config.nlist = 32;
        config.codec = "SQ8";
        out.ivf = std::make_unique<index::IvfIndex>(out.base.dim(),
                                                    Metric::L2, config);
        out.ivf->train(out.base);
        out.ivf->addSequential(out.base);
        return out;
    }();
    return data;
}

TEST(IvfRemove, RemovedIdsNeverReturned)
{
    const auto &data = ivfData();
    index::IvfConfig config;
    config.nlist = 16;
    index::IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);

    // Remove the true top-3 of query 0; they must disappear from results.
    std::vector<vecstore::VecId> doomed{data.truth[0][0].id,
                                        data.truth[0][1].id,
                                        data.truth[0][2].id};
    std::size_t removed = ivf.removeIds(doomed);
    EXPECT_EQ(removed, 3u);
    EXPECT_EQ(ivf.size(), data.base.rows() - 3);

    index::SearchParams params;
    params.nprobe = 16;
    auto hits = ivf.search(data.queries.row(0), 10, params);
    for (const auto &hit : hits) {
        for (auto id : doomed)
            EXPECT_NE(hit.id, id);
    }
}

TEST(IvfRemove, UnknownIdsAreIgnored)
{
    const auto &data = ivfData();
    index::IvfConfig config;
    config.nlist = 8;
    index::IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);
    EXPECT_EQ(ivf.removeIds({static_cast<vecstore::VecId>(1u << 30)}), 0u);
    EXPECT_EQ(ivf.size(), data.base.rows());
}

TEST(IvfRemove, RemainingVectorsStillSearchable)
{
    const auto &data = ivfData();
    index::IvfConfig config;
    config.nlist = 16;
    index::IvfIndex ivf(data.base.dim(), Metric::L2, config);
    ivf.train(data.base);
    ivf.addSequential(data.base);

    std::vector<vecstore::VecId> doomed;
    for (vecstore::VecId id = 0; id < 1000; ++id)
        doomed.push_back(id);
    ivf.removeIds(doomed);

    index::SearchParams params;
    params.nprobe = 16;
    auto hits = ivf.search(data.queries.row(1), 10, params);
    EXPECT_EQ(hits.size(), 10u);
    for (const auto &hit : hits)
        EXPECT_GE(hit.id, 1000);
}

/** Pruning reduces work and keeps recall reasonable at generous ratios. */
class PruneRatioSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PruneRatioSweep, ReducesWorkKeepsQuality)
{
    const auto &data = ivfData();
    double ratio = GetParam();

    index::SearchParams plain;
    plain.nprobe = 16;
    index::SearchParams pruned = plain;
    pruned.prune_ratio = ratio;

    index::SearchStats plain_stats, pruned_stats;
    auto plain_results =
        data.ivf->searchBatch(data.queries, 10, plain, &plain_stats);
    auto pruned_results =
        data.ivf->searchBatch(data.queries, 10, pruned, &pruned_stats);

    EXPECT_LE(pruned_stats.lists_probed, plain_stats.lists_probed);
    EXPECT_LE(pruned_stats.vectors_scanned, plain_stats.vectors_scanned);

    double plain_recall = eval::meanRecallAtK(plain_results, data.truth,
                                              10);
    double pruned_recall = eval::meanRecallAtK(pruned_results, data.truth,
                                               10);
    // Generous ratios must stay close to unpruned quality.
    if (ratio >= 3.0) {
        EXPECT_GT(pruned_recall, plain_recall - 0.08);
    }
    // Every query still probes at least its best list.
    EXPECT_GE(pruned_stats.lists_probed, data.queries.rows());
}

INSTANTIATE_TEST_SUITE_P(Sweep, PruneRatioSweep,
                         ::testing::Values(1.2, 2.0, 3.0, 5.0));

TEST(PruneRatio, ZeroDisablesPruning)
{
    const auto &data = ivfData();
    index::SearchParams params;
    params.nprobe = 8;
    params.prune_ratio = 0.0;
    index::SearchStats stats;
    data.ivf->search(data.queries.row(0), 5, params, &stats);
    EXPECT_EQ(stats.lists_probed, 8u);
}

TEST(ParallelBatch, MatchesSequentialResultsAndStats)
{
    const auto &data = ivfData();
    util::ThreadPool pool(4);

    index::SearchParams params;
    params.nprobe = 8;
    index::SearchStats seq_stats, par_stats;
    auto seq = data.ivf->searchBatch(data.queries, 5, params, &seq_stats);
    auto par = data.ivf->searchBatchParallel(data.queries, 5, pool, params,
                                             &par_stats);

    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t q = 0; q < seq.size(); ++q) {
        ASSERT_EQ(seq[q].size(), par[q].size());
        for (std::size_t i = 0; i < seq[q].size(); ++i) {
            EXPECT_EQ(seq[q][i].id, par[q][i].id);
            EXPECT_FLOAT_EQ(seq[q][i].score, par[q][i].score);
        }
    }
    EXPECT_EQ(seq_stats.vectors_scanned, par_stats.vectors_scanned);
    EXPECT_EQ(seq_stats.lists_probed, par_stats.lists_probed);
}

TEST(AdaptiveHermes, SearchesFewerClustersOnAverage)
{
    workload::CorpusConfig cc;
    cc.num_docs = 5000;
    cc.dim = 24;
    cc.num_topics = 16;
    cc.seed = 93;
    auto corpus = workload::generateCorpus(cc);
    workload::QueryConfig qc;
    qc.num_queries = 48;
    qc.noise = 0.15; // easy queries: relevant docs concentrate
    qc.seed = 94;
    auto queries = workload::generateQueries(corpus, qc);

    core::HermesConfig fixed;
    fixed.num_clusters = 8;
    fixed.clusters_to_search = 4;
    fixed.sample_nprobe = 4;
    fixed.deep_nprobe = 32;
    fixed.partition.seeds_to_try = 2;
    auto store = core::DistributedStore::build(corpus.embeddings, fixed);

    core::HermesConfig adaptive = fixed;
    adaptive.adaptive_epsilon = 0.10;
    auto adaptive_store =
        core::DistributedStore::build(corpus.embeddings, adaptive);

    core::HermesSearch fixed_search(store);
    core::HermesSearch adaptive_search(adaptive_store);

    std::size_t fixed_total = 0, adaptive_total = 0;
    for (std::size_t q = 0; q < queries.embeddings.rows(); ++q) {
        auto f = fixed_search.search(queries.embeddings.row(q), 5);
        auto a = adaptive_search.search(queries.embeddings.row(q), 5);
        fixed_total += f.deep_clusters.size();
        adaptive_total += a.deep_clusters.size();
        EXPECT_GE(a.deep_clusters.size(), 1u);
        EXPECT_LE(a.deep_clusters.size(), adaptive.clusters_to_search);
    }
    EXPECT_LT(adaptive_total, fixed_total);
}

TEST(AdaptiveHermes, HugeEpsilonMatchesFixedBehaviour)
{
    workload::CorpusConfig cc;
    cc.num_docs = 2000;
    cc.dim = 16;
    cc.num_topics = 8;
    auto corpus = workload::generateCorpus(cc);

    core::HermesConfig config;
    config.num_clusters = 4;
    config.clusters_to_search = 3;
    config.adaptive_epsilon = 1e9;
    config.partition.seeds_to_try = 1;
    auto store = core::DistributedStore::build(corpus.embeddings, config);
    core::HermesSearch search(store);
    auto result = search.search(corpus.embeddings.row(0), 5);
    EXPECT_EQ(result.deep_clusters.size(), 3u);
}

TEST(CacheHitRate, InterpolatesBetweenIdealAndNoCache)
{
    sim::PipelineConfig base;
    base.datastore.tokens = 1e9;
    base.batch = 32;

    sim::PipelineConfig no_cache = base;
    no_cache.prefix_caching = false;

    auto e2e_at = [&](double hit_rate) {
        sim::PipelineConfig config = base;
        config.prefix_caching = true;
        config.cache_hit_rate = hit_rate;
        return sim::RagPipelineSim(config).run().e2e;
    };

    double e2e_none = sim::RagPipelineSim(no_cache).run().e2e;
    EXPECT_NEAR(e2e_at(0.0), e2e_none, 1e-9);
    EXPECT_LT(e2e_at(1.0), e2e_at(0.5));
    EXPECT_LT(e2e_at(0.5), e2e_at(0.0));
}

TEST(QueueSim, LightLoadLatencyNearServiceTime)
{
    sim::QueueConfig config;
    config.arrival_qps = 1.0; // far below capacity
    config.max_batch = 8;
    config.max_wait = 0.0;
    config.num_queries = 2000;
    auto service = [](std::size_t batch) {
        return 0.01 + 0.001 * static_cast<double>(batch);
    };
    auto result = sim::simulateQueue(config, service);
    EXPECT_EQ(result.latency.count(), config.num_queries);
    // Nearly every query served alone, immediately.
    EXPECT_LT(result.latency.median(), 0.02);
    EXPECT_LT(result.utilization, 0.1);
}

TEST(QueueSim, HeavyLoadInflatesTailLatency)
{
    auto service = [](std::size_t batch) {
        return 0.05 + 0.002 * static_cast<double>(batch);
    };
    sim::QueueConfig light, heavy;
    light.arrival_qps = 50.0;
    heavy.arrival_qps = 400.0;
    light.max_batch = heavy.max_batch = 64;
    light.max_wait = heavy.max_wait = 0.01;
    light.num_queries = heavy.num_queries = 5000;

    auto light_result = sim::simulateQueue(light, service);
    auto heavy_result = sim::simulateQueue(heavy, service);
    EXPECT_GT(heavy_result.latency.percentile(99),
              light_result.latency.percentile(99));
    EXPECT_GT(heavy_result.batch_sizes.mean(),
              light_result.batch_sizes.mean());
    EXPECT_GT(heavy_result.utilization, light_result.utilization);
}

TEST(QueueSim, ThroughputTracksArrivalWhenStable)
{
    sim::QueueConfig config;
    config.arrival_qps = 100.0;
    config.max_batch = 32;
    config.max_wait = 0.02;
    config.num_queries = 10000;
    auto service = [](std::size_t batch) {
        return 0.02 + 0.001 * static_cast<double>(batch);
    };
    auto result = sim::simulateQueue(config, service);
    EXPECT_NEAR(result.throughput_qps, 100.0, 10.0);
    EXPECT_LE(result.batch_sizes.max(), 32.0);
    EXPECT_LE(result.utilization, 1.0 + 1e-9);
}

TEST(StrideOverlap, HandcraftedOverlapMeasured)
{
    rag::GenerationResult result;
    rag::StrideEvent a, b;
    a.index = 0;
    a.retrieved = {{1, 0.f}, {2, 0.f}, {3, 0.f}, {4, 0.f}};
    a.best_chunk = 1;
    a.deep_clusters = {0, 1};
    b.index = 1;
    b.retrieved = {{3, 0.f}, {4, 0.f}, {5, 0.f}, {6, 0.f}};
    b.best_chunk = 1;
    b.deep_clusters = {1, 0};
    result.strides = {a, b};

    auto stats = rag::strideOverlap(result);
    EXPECT_EQ(stats.transitions, 1u);
    EXPECT_DOUBLE_EQ(stats.mean_hit_rate, 0.5);   // 2 of 4 reused
    EXPECT_DOUBLE_EQ(stats.mean_jaccard, 2.0 / 6.0);
    EXPECT_DOUBLE_EQ(stats.best_chunk_repeat_rate, 1.0);
    // Same cluster set (order-insensitive) => fully stable routing.
    EXPECT_DOUBLE_EQ(rag::routingStability(result), 1.0);
}

TEST(StrideOverlap, SingleStrideHasNoTransitions)
{
    rag::GenerationResult result;
    result.strides.resize(1);
    EXPECT_EQ(rag::strideOverlap(result).transitions, 0u);
    EXPECT_DOUBLE_EQ(rag::routingStability(result), 1.0);
}

} // namespace
