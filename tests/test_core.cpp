/**
 * @file
 * Tests for the Hermes core: distributed store, search strategies,
 * hierarchical routing quality (Fig 11 behaviour), reranking.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "core/distributed_store.hpp"
#include "core/rerank.hpp"
#include "core/search_strategy.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;
using namespace hermes::core;
using hermes::vecstore::Matrix;

/** Shared fixture data: corpus + queries + ground truth + stores. */
struct CoreData
{
    workload::Corpus corpus;
    workload::QuerySet queries;
    std::vector<vecstore::HitList> truth;
    HermesConfig config;
    std::unique_ptr<DistributedStore> store;
};

const CoreData &
coreData()
{
    static CoreData data = [] {
        CoreData out;
        workload::CorpusConfig cc;
        cc.num_docs = 6000;
        cc.dim = 24;
        cc.num_topics = 20;
        cc.seed = 17;
        out.corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 48;
        qc.seed = 18;
        out.queries = workload::generateQueries(out.corpus, qc);
        out.truth = eval::exactGroundTruth(out.corpus.embeddings,
                                           out.queries.embeddings, 5,
                                           vecstore::Metric::L2);

        out.config.num_clusters = 8;
        out.config.clusters_to_search = 3;
        out.config.sample_nprobe = 4;
        out.config.deep_nprobe = 32;
        out.config.docs_to_retrieve = 5;
        out.config.partition.seeds_to_try = 3;
        out.store = std::make_unique<DistributedStore>(
            DistributedStore::build(out.corpus.embeddings, out.config));
        return out;
    }();
    return data;
}

double
strategyNdcg(const SearchStrategy &strategy)
{
    const auto &data = coreData();
    std::vector<vecstore::HitList> results;
    for (std::size_t q = 0; q < data.queries.embeddings.rows(); ++q)
        results.push_back(
            strategy.search(data.queries.embeddings.row(q), 5).hits);
    return eval::meanNdcgAtK(results, data.truth, 5);
}

TEST(DistributedStore, CoversEveryVectorExactlyOnce)
{
    const auto &data = coreData();
    std::set<vecstore::VecId> seen;
    std::size_t total = 0;
    for (std::size_t c = 0; c < data.store->numClusters(); ++c) {
        total += data.store->clusterSize(c);
        for (std::size_t row : data.store->partitioning().members[c]) {
            EXPECT_TRUE(seen.insert(
                static_cast<vecstore::VecId>(row)).second);
        }
    }
    EXPECT_EQ(total, data.corpus.embeddings.rows());
    EXPECT_EQ(data.store->totalVectors(), data.corpus.embeddings.rows());
}

TEST(DistributedStore, CentroidsMatchClusterCount)
{
    const auto &data = coreData();
    EXPECT_EQ(data.store->centroids().rows(), data.store->numClusters());
    EXPECT_EQ(data.store->dim(), data.corpus.embeddings.dim());
    EXPECT_GT(data.store->memoryBytes(), 0u);
}

/** The std::invalid_argument message @p config.validate() throws. */
std::string
validateError(const HermesConfig &config)
{
    try {
        config.validate();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "(no throw)";
}

TEST(HermesConfigValidate, RejectsBadConfigs)
{
    HermesConfig bad;
    bad.clusters_to_search = 20;
    bad.num_clusters = 10;
    EXPECT_NE(validateError(bad).find("clusters_to_search"),
              std::string::npos);

    HermesConfig zero_docs;
    zero_docs.docs_to_retrieve = 0;
    EXPECT_NE(validateError(zero_docs).find("docs_to_retrieve"),
              std::string::npos);
}

TEST(NaiveSplit, MatchesMonolithicQuality)
{
    const auto &data = coreData();
    NaiveSplitSearch split(*data.store);
    MonolithicSearch mono(data.corpus.embeddings, data.config.codec,
                          data.config.deep_nprobe);
    double split_ndcg = strategyNdcg(split);
    double mono_ndcg = strategyNdcg(mono);
    // Searching all shards with the same effort cannot be much worse than
    // the monolithic index (different nlist geometry allows small noise).
    EXPECT_GT(split_ndcg, mono_ndcg - 0.05);
}

TEST(Hermes, ReachesNaiveSplitQualityWithFewClusters)
{
    // The Fig 11 headline: hierarchical search over 3 of 8 clusters is
    // iso-accuracy with searching everything.
    const auto &data = coreData();
    NaiveSplitSearch split(*data.store);
    HermesSearch hermes(*data.store);
    EXPECT_GT(strategyNdcg(hermes), strategyNdcg(split) - 0.03);
}

TEST(Hermes, DeepSearchesExactlyConfiguredClusters)
{
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    auto result = hermes.search(data.queries.embeddings.row(0), 5);
    EXPECT_EQ(result.deep_clusters.size(), data.config.clusters_to_search);
    // Deep clusters are distinct.
    std::set<std::uint32_t> unique(result.deep_clusters.begin(),
                                   result.deep_clusters.end());
    EXPECT_EQ(unique.size(), result.deep_clusters.size());
}

TEST(DeepClusterCount, EdgesOfThePlan)
{
    // Nothing sampled: nothing to deep-search, pruning or not.
    const std::vector<std::pair<float, std::uint32_t>> none;
    EXPECT_EQ(deepClusterCount(none, 3, 0.0), 0u);
    EXPECT_EQ(deepClusterCount(none, 3, 0.5), 0u);

    // Asking for more clusters than were ranked takes all of them.
    const std::vector<std::pair<float, std::uint32_t>> ranked{
        {1.0f, 4}, {1.05f, 2}, {3.0f, 0}};
    EXPECT_EQ(deepClusterCount(ranked, 10, 0.0), 3u);
    EXPECT_EQ(deepClusterCount(ranked, 2, 0.0), 2u);

    // Epsilon keeps the prefix within best + eps * |best| ...
    EXPECT_EQ(deepClusterCount(ranked, 10, 0.1), 2u);
    EXPECT_EQ(deepClusterCount(ranked, 10, 5.0), 3u);
    // ... pruning down to the best cluster alone ...
    EXPECT_EQ(deepClusterCount(ranked, 10, 0.01), 1u);
    // ... and never below one, even when nothing asked for is kept.
    EXPECT_EQ(deepClusterCount(ranked, 0, 0.1), 1u);
}

/** A one-cluster probe result: hits (id, score), best first. */
ProbeResult
hits(std::initializer_list<vecstore::Hit> list)
{
    return vecstore::HitList(list);
}

TEST(SearchPlan, RankSkipsLostClustersAndPutsEmptyListsLast)
{
    // Cluster 1's sample was lost; cluster 3 sampled nothing.
    const std::vector<ProbeResult> samples{
        hits({{10, 2.0f}}), std::nullopt, hits({{20, 0.5f}, {21, 0.7f}}),
        hits({})};
    const RankedClusters ranked = SearchPlan::rank(samples);
    const RankedClusters expected{
        {0.5f, 2}, {2.0f, 0}, {std::numeric_limits<float>::max(), 3}};
    EXPECT_EQ(ranked, expected);
}

TEST(SearchPlan, DeepSetFallsBackToIdOrderWhenEverySampleIsLost)
{
    const SearchPlan plan{3, 0.0};
    const std::vector<ProbeResult> lost(5);
    EXPECT_EQ(plan.deepSet(SearchPlan::rank(lost), 5),
              (std::vector<std::uint32_t>{0, 1, 2}));
    // Never more clusters than exist, and pruning does not apply.
    EXPECT_EQ(plan.deepSet({}, 2), (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ((SearchPlan{3, 0.1}.deepSet({}, 5)),
              (std::vector<std::uint32_t>{0, 1, 2}));

    // Anything ranked is taken best first instead, pruned as configured.
    EXPECT_EQ(plan.deepSet({{0.5f, 4}, {0.9f, 1}}, 5),
              (std::vector<std::uint32_t>{4, 1}));
    EXPECT_EQ((SearchPlan{3, 0.1}.deepSet({{0.5f, 4}, {0.9f, 1}}, 5)),
              (std::vector<std::uint32_t>{4}));
}

TEST(SearchPlan, MergeBackfillsOnlyWhenADeepPartialIsLost)
{
    const std::vector<ProbeResult> samples{hits({{7, 0.1f}}), std::nullopt,
                                           hits({{8, 0.3f}})};

    // Fault-free: the sample hits never enter the answer.
    EXPECT_EQ(SearchPlan::merge({hits({{1, 0.2f}, {2, 0.4f}}),
                                 hits({{3, 0.25f}})},
                                samples, 5),
              (vecstore::HitList{{1, 0.2f}, {3, 0.25f}, {2, 0.4f}}));

    // One deep partial lost: the surviving samples backfill.
    EXPECT_EQ(SearchPlan::merge({hits({{1, 0.2f}, {2, 0.4f}}), std::nullopt},
                                samples, 3),
              (vecstore::HitList{{7, 0.1f}, {1, 0.2f}, {8, 0.3f}}));

    // Every deep partial lost and too few samples: fewer than k hits.
    EXPECT_EQ(SearchPlan::merge({std::nullopt}, samples, 5),
              (vecstore::HitList{{7, 0.1f}, {8, 0.3f}}));
}

TEST(Hermes, SampleStatsTouchEveryCluster)
{
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    auto result = hermes.search(data.queries.embeddings.row(1), 5);
    ASSERT_EQ(result.sample_stats.size(), data.store->numClusters());
    for (const auto &stats : result.sample_stats)
        EXPECT_GT(stats.vectors_scanned, 0u);
    // Deep stats only on the selected clusters.
    std::size_t touched = 0;
    for (const auto &stats : result.deep_stats)
        touched += stats.vectors_scanned > 0;
    EXPECT_EQ(touched, data.config.clusters_to_search);
}

TEST(Hermes, ScansFarFewerVectorsThanNaiveSplit)
{
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    NaiveSplitSearch split(*data.store);
    auto hermes_result = hermes.search(data.queries.embeddings.row(2), 5);
    auto split_result = split.search(data.queries.embeddings.row(2), 5);
    // The throughput/energy win of Fig 18 comes from this work reduction.
    EXPECT_LT(hermes_result.total.vectors_scanned,
              split_result.total.vectors_scanned);
}

TEST(Hermes, BeatsCentroidRoutingOnRoutingAccuracy)
{
    // Fig 11: document sampling routes better than centroid-only routing
    // at equal clusters searched. Evaluate routing itself: fraction of
    // queries where the chosen clusters contain the true best document.
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    CentroidRouting centroid(*data.store);

    // Map row -> cluster.
    std::vector<std::uint32_t> cluster_of_row(
        data.corpus.embeddings.rows());
    for (std::size_t c = 0; c < data.store->numClusters(); ++c)
        for (auto row : data.store->partitioning().members[c])
            cluster_of_row[row] = static_cast<std::uint32_t>(c);

    auto routing_hits = [&](const SearchStrategy &strategy) {
        std::size_t hits = 0;
        for (std::size_t q = 0; q < data.queries.embeddings.rows(); ++q) {
            auto result =
                strategy.search(data.queries.embeddings.row(q), 5);
            auto best = static_cast<std::size_t>(data.truth[q][0].id);
            for (auto c : result.deep_clusters)
                hits += c == cluster_of_row[best];
        }
        return hits;
    };
    EXPECT_GE(routing_hits(hermes), routing_hits(centroid));
}

TEST(CentroidRouting, SearchesConfiguredClusterCount)
{
    const auto &data = coreData();
    CentroidRouting centroid(*data.store);
    auto result = centroid.search(data.queries.embeddings.row(3), 5);
    EXPECT_EQ(result.deep_clusters.size(), data.config.clusters_to_search);
}

TEST(Monolithic, SingleClusterTrace)
{
    const auto &data = coreData();
    MonolithicSearch mono(data.corpus.embeddings, "SQ8", 16);
    auto result = mono.search(data.queries.embeddings.row(0), 5);
    EXPECT_EQ(result.deep_clusters, std::vector<std::uint32_t>{0});
    EXPECT_EQ(mono.numClusters(), 1u);
    EXPECT_GT(result.total.vectors_scanned, 0u);
}

TEST(TraceBatch, RecordsMatchQueries)
{
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    std::vector<vecstore::HitList> results;
    auto trace = hermes.traceBatch(data.queries.embeddings, 5, &results);
    EXPECT_EQ(trace.num_clusters, data.store->numClusters());
    ASSERT_EQ(trace.records.size(), data.queries.embeddings.rows());
    ASSERT_EQ(results.size(), data.queries.embeddings.rows());
    for (std::size_t q = 0; q < trace.records.size(); ++q) {
        EXPECT_EQ(trace.records[q].query, q);
        EXPECT_EQ(trace.records[q].clusters.size(),
                  data.config.clusters_to_search);
    }
}

TEST(TraceBatch, PopularTopicsSkewAccessFrequency)
{
    // Fig 13: Zipf query popularity produces uneven cluster access.
    const auto &data = coreData();
    HermesSearch hermes(*data.store);
    auto trace = hermes.traceBatch(data.queries.embeddings, 5);
    auto counts = trace.accessCounts();
    auto mx = *std::max_element(counts.begin(), counts.end());
    auto mn = *std::min_element(counts.begin(), counts.end());
    EXPECT_GT(mx, mn);
}

TEST(Rerank, OrdersByInnerProduct)
{
    Matrix data(3, 2);
    data.row(0)[0] = 0.1f;
    data.row(1)[0] = 0.9f;
    data.row(2)[0] = 0.5f;
    std::vector<float> query{1.f, 0.f};
    vecstore::HitList hits{{0, 0.f}, {1, 0.f}, {2, 0.f}};
    auto reranked = rerankByInnerProduct(
        data, vecstore::VecView(query.data(), 2), hits);
    ASSERT_EQ(reranked.size(), 3u);
    EXPECT_EQ(reranked[0].id, 1);
    EXPECT_EQ(reranked[1].id, 2);
    EXPECT_EQ(reranked[2].id, 0);
}

TEST(Rerank, EmptyInputIsEmpty)
{
    Matrix data(1, 2);
    std::vector<float> query{1.f, 0.f};
    EXPECT_TRUE(rerankByInnerProduct(
        data, vecstore::VecView(query.data(), 2), {}).empty());
}

} // namespace
