/**
 * @file
 * Tests for the online serving layer: retrieval nodes and the Hermes
 * broker — correctness against the in-process search strategy, queue
 * behaviour, concurrency, and statistics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/distributed_store.hpp"
#include "core/search_strategy.hpp"
#include "index/flat_index.hpp"
#include "serve/broker.hpp"
#include "serve/load_report.hpp"
#include "serve/node.hpp"
#include "serve/node_client.hpp"
#include "serve/replica_map.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

struct ServeData
{
    workload::Corpus corpus;
    workload::QuerySet queries;
    core::HermesConfig config;
    std::unique_ptr<core::DistributedStore> store;
};

const ServeData &
serveData()
{
    static ServeData data = [] {
        ServeData out;
        workload::CorpusConfig cc;
        cc.num_docs = 4000;
        cc.dim = 16;
        cc.num_topics = 12;
        cc.seed = 55;
        out.corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 32;
        qc.seed = 56;
        out.queries = workload::generateQueries(out.corpus, qc);

        out.config.num_clusters = 6;
        out.config.clusters_to_search = 2;
        out.config.sample_nprobe = 2;
        out.config.deep_nprobe = 16;
        out.config.partition.seeds_to_try = 2;
        out.store = std::make_unique<core::DistributedStore>(
            core::DistributedStore::build(out.corpus.embeddings,
                                          out.config));
        return out;
    }();
    return data;
}

TEST(RetrievalNode, ServesSubmittedRequests)
{
    const auto &data = serveData();
    serve::RetrievalNode node(data.store->clusterIndex(0), {});

    index::SearchParams params;
    params.nprobe = 4;
    auto future = node.submit(data.queries.embeddings.row(0), 3, params);
    auto response = future.get();
    EXPECT_LE(response.hits.size(), 3u);
    EXPECT_GT(response.stats.vectors_scanned, 0u);

    auto stats = node.stats();
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_GE(stats.batches, 1u);
    EXPECT_EQ(stats.vectors_scanned, response.stats.vectors_scanned);
}

TEST(RetrievalNode, MatchesDirectIndexSearch)
{
    const auto &data = serveData();
    const auto &shard = data.store->clusterIndex(1);
    serve::RetrievalNode node(shard, {});

    index::SearchParams params;
    params.nprobe = 8;
    for (std::size_t q = 0; q < 8; ++q) {
        auto via_node =
            node.submit(data.queries.embeddings.row(q), 5, params).get();
        auto direct = shard.search(data.queries.embeddings.row(q), 5,
                                   params);
        ASSERT_EQ(via_node.hits.size(), direct.size());
        for (std::size_t i = 0; i < direct.size(); ++i) {
            EXPECT_EQ(via_node.hits[i].id, direct[i].id);
            EXPECT_FLOAT_EQ(via_node.hits[i].score, direct[i].score);
        }
    }
}

TEST(RetrievalNode, BatchesQueuedRequests)
{
    const auto &data = serveData();
    serve::NodeConfig config;
    config.max_batch = 16;
    serve::RetrievalNode node(data.store->clusterIndex(0), config);

    index::SearchParams params;
    params.nprobe = 2;
    std::vector<std::future<serve::NodeResponse>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(
            node.submit(data.queries.embeddings.row(i % 32), 2, params));
    for (auto &future : futures)
        future.get();

    auto stats = node.stats();
    EXPECT_EQ(stats.requests, 64u);
    // Worker drains multiple requests per round once the queue backs up.
    EXPECT_LE(stats.batches, 64u);
}

TEST(HermesBroker, MatchesInProcessHermesSearch)
{
    const auto &data = serveData();
    serve::HermesBroker broker(*data.store);
    core::HermesSearch reference(*data.store);

    for (std::size_t q = 0; q < data.queries.embeddings.rows(); ++q) {
        std::vector<std::uint32_t> deep;
        auto via_broker =
            broker.search(data.queries.embeddings.row(q), 5, deep);
        auto expected =
            reference.search(data.queries.embeddings.row(q), 5);

        ASSERT_EQ(via_broker.size(), expected.hits.size()) << "query " << q;
        for (std::size_t i = 0; i < expected.hits.size(); ++i) {
            EXPECT_EQ(via_broker[i].id, expected.hits[i].id);
            EXPECT_FLOAT_EQ(via_broker[i].score, expected.hits[i].score);
        }
        // Same clusters chosen (order may match as both sort by score).
        EXPECT_EQ(deep, expected.deep_clusters);
    }
}

TEST(HermesBroker, StatsAccumulate)
{
    const auto &data = serveData();
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, {}, metrics);
    for (std::size_t q = 0; q < 10; ++q)
        broker.search(data.queries.embeddings.row(q), 5);

    auto stats = broker.stats();
    EXPECT_EQ(stats.queries, 10u);
    EXPECT_EQ(stats.deep_requests,
              10u * data.config.clusters_to_search);
    ASSERT_EQ(stats.nodes.size(), data.store->numClusters());
    // Every node sampled every query (plus its share of deep requests).
    for (const auto &node : stats.nodes)
        EXPECT_GE(node.requests, 10u);
}

TEST(HermesBroker, TwoBrokersKeepIndependentStats)
{
    // Two brokers over one store, each counting into its own registry,
    // serve different query counts: each reports exactly its own.
    const auto &data = serveData();
    obs::Registry metrics_a;
    obs::Registry metrics_b;
    serve::HermesBroker a(*data.store, {}, metrics_a);
    serve::HermesBroker b(*data.store, {}, metrics_b);
    constexpr std::size_t kQueriesA = 5;
    constexpr std::size_t kQueriesB = 12;
    for (std::size_t q = 0; q < kQueriesB; ++q) {
        if (q < kQueriesA)
            a.search(data.queries.embeddings.row(q), 5);
        b.search(data.queries.embeddings.row(q), 5);
    }

    const std::pair<const serve::HermesBroker *, std::size_t> served[] = {
        {&a, kQueriesA}, {&b, kQueriesB}};
    for (const auto &[broker, queries] : served) {
        SCOPED_TRACE(queries);
        auto stats = broker->stats();
        EXPECT_EQ(stats.queries, queries);
        EXPECT_EQ(stats.deep_requests,
                  queries * data.config.clusters_to_search);
        EXPECT_EQ(stats.query_latency.count, queries);

        auto load = broker->loadReport();
        EXPECT_EQ(load.queries, queries);
        std::uint64_t sample_total = 0;
        std::uint64_t deep_total = 0;
        for (const auto &cluster : load.clusters) {
            sample_total += cluster.sample_requests;
            deep_total += cluster.deep_requests;
        }
        EXPECT_EQ(sample_total, queries * data.store->numClusters());
        EXPECT_EQ(deep_total, queries * data.config.clusters_to_search);
    }
}

TEST(HermesBroker, ConcurrentClientsGetConsistentResults)
{
    const auto &data = serveData();
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, {}, metrics);
    core::HermesSearch reference(*data.store);

    // Precompute expected results.
    std::vector<vecstore::HitList> expected;
    for (std::size_t q = 0; q < 16; ++q)
        expected.push_back(
            reference.search(data.queries.embeddings.row(q), 5).hits);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            for (std::size_t q = t; q < 16; q += 4) {
                auto hits =
                    broker.search(data.queries.embeddings.row(q), 5);
                if (hits.size() != expected[q].size()) {
                    ++mismatches;
                    continue;
                }
                for (std::size_t i = 0; i < hits.size(); ++i) {
                    if (hits[i].id != expected[q][i].id)
                        ++mismatches;
                }
            }
        });
    }
    for (auto &client : clients)
        client.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(broker.stats().queries, 16u);
}

TEST(RetrievalNode, MicroBatchCoalescesAndMatchesDirectSearch)
{
    const auto &data = serveData();
    const auto &shard = data.store->clusterIndex(0);
    serve::NodeConfig config;
    config.max_batch = 32;
    config.batch_window_us = 20000.0; // 20 ms: plenty to co-batch
    serve::RetrievalNode node(shard, config);

    index::SearchParams params;
    params.nprobe = 4;
    // Mixed k values in the same drain: the node groups compatible
    // requests and must still answer each with its own k.
    std::vector<std::size_t> ks;
    std::vector<std::future<serve::NodeResponse>> futures;
    for (std::size_t q = 0; q < 24; ++q) {
        std::size_t k = q % 3 == 0 ? 3 : 5;
        ks.push_back(k);
        futures.push_back(
            node.submit(data.queries.embeddings.row(q), k, params));
    }
    for (std::size_t q = 0; q < futures.size(); ++q) {
        auto response = futures[q].get();
        auto direct =
            shard.search(data.queries.embeddings.row(q), ks[q], params);
        ASSERT_EQ(response.hits.size(), direct.size()) << "query " << q;
        for (std::size_t i = 0; i < direct.size(); ++i) {
            EXPECT_EQ(response.hits[i].id, direct[i].id)
                << "query " << q << " rank " << i;
            EXPECT_EQ(response.hits[i].score, direct[i].score)
                << "query " << q << " rank " << i;
        }
    }
    auto stats = node.stats();
    EXPECT_EQ(stats.requests, 24u);
    // The window must have coalesced the burst into far fewer drains.
    EXPECT_LE(stats.batches, 12u);
}

TEST(HermesBroker, MicroBatchingMatchesWindowZeroResults)
{
    // Opt-in micro-batching is a scheduling change only: under
    // concurrent clients the batched broker must return bit-identical
    // results to the in-process reference (same contract the window=0
    // broker is held to above).
    const auto &data = serveData();
    serve::BrokerConfig config;
    config.node.batch_window_us = 500.0;
    config.node.max_batch = 16;
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, config, metrics);
    core::HermesSearch reference(*data.store);

    std::vector<vecstore::HitList> expected;
    for (std::size_t q = 0; q < 16; ++q)
        expected.push_back(
            reference.search(data.queries.embeddings.row(q), 5).hits);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            for (std::size_t q = t; q < 16; q += 4) {
                auto hits =
                    broker.search(data.queries.embeddings.row(q), 5);
                if (hits.size() != expected[q].size()) {
                    ++mismatches;
                    continue;
                }
                for (std::size_t i = 0; i < hits.size(); ++i) {
                    if (hits[i].id != expected[q][i].id ||
                        hits[i].score != expected[q][i].score)
                        ++mismatches;
                }
            }
        });
    }
    for (auto &client : clients)
        client.join();
    EXPECT_EQ(mismatches.load(), 0);
    auto stats = broker.stats();
    EXPECT_EQ(stats.queries, 16u);
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.degraded_queries, 0u);
}

TEST(HermesBroker, PathologicalWindowStillHonorsDeadlines)
{
    // A window longer than the node deadline must not hang or throw:
    // the deadline clock starts at submit and covers queue time, so the
    // query times out, retries, and degrades exactly as a dead node
    // would under PR 1 semantics.
    const auto &data = serveData();
    serve::BrokerConfig config;
    config.node.batch_window_us = 400000.0; // 0.4 s hold
    config.node_deadline_ms = 60.0;
    config.max_retries = 0;
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, config, metrics);

    auto hits = broker.search(data.queries.embeddings.row(0), 5);
    auto stats = broker.stats();
    EXPECT_EQ(stats.queries, 1u);
    EXPECT_GT(stats.timeouts, 0u);
    EXPECT_EQ(stats.degraded_queries, 1u);
    // Nothing arrived in time, so the degraded answer may be empty —
    // but the call returned within deadlines instead of blocking on the
    // window.
    EXPECT_LE(hits.size(), 5u);
}

TEST(HermesBroker, LoadReportExposesBatchOccupancy)
{
    const auto &data = serveData();
    serve::BrokerConfig config;
    config.node.batch_window_us = 500.0;
    serve::HermesBroker broker(*data.store, config);
    for (std::size_t q = 0; q < 8; ++q)
        broker.search(data.queries.embeddings.row(q), 5);

    auto load = broker.loadReport();
    ASSERT_EQ(load.clusters.size(), data.store->numClusters());
    for (const auto &cluster : load.clusters)
        EXPECT_GE(cluster.batch_occupancy, 1.0);
    EXPECT_NE(load.toJson().find("\"batch_occupancy\""),
              std::string::npos);
}

TEST(ReplicaMap, IdentityAssignAndComplete)
{
    auto map = serve::ReplicaMap::identity(4);
    EXPECT_EQ(map.numClusters(), 4u);
    EXPECT_EQ(map.numNodes(), 4u);
    EXPECT_TRUE(map.complete());
    for (std::size_t c = 0; c < 4; ++c) {
        ASSERT_EQ(map.replicaCount(c), 1u);
        EXPECT_EQ(map.replicas(c)[0], static_cast<std::uint32_t>(c));
    }

    // Cluster 1 gains a replica on node 4: still complete (nodes are a
    // permutation of 0..4), replica order preserved.
    map.assign(1, 4);
    EXPECT_EQ(map.numNodes(), 5u);
    EXPECT_TRUE(map.complete());
    ASSERT_EQ(map.replicaCount(1), 2u);
    EXPECT_EQ(map.replicas(1)[1], 4u);
    EXPECT_THROW(map.assign(1, 4), std::invalid_argument);

    // A gap (node 6 without node 5) breaks completeness.
    serve::ReplicaMap sparse;
    sparse.assign(0, 0);
    sparse.assign(1, 6);
    EXPECT_FALSE(sparse.complete());
}

TEST(ReplicaMap, ParseSpec)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    ASSERT_TRUE(serve::ReplicaMap::parseSpec("0:2,3:3", out));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], (std::pair<std::uint32_t, std::uint32_t>{0, 2}));
    EXPECT_EQ(out[1], (std::pair<std::uint32_t, std::uint32_t>{3, 3}));
    ASSERT_TRUE(serve::ReplicaMap::parseSpec("5:1", out));
    EXPECT_FALSE(serve::ReplicaMap::parseSpec("", out));
    EXPECT_FALSE(serve::ReplicaMap::parseSpec("1", out));
    EXPECT_FALSE(serve::ReplicaMap::parseSpec("1:", out));
    EXPECT_FALSE(serve::ReplicaMap::parseSpec(":2", out));
    EXPECT_FALSE(serve::ReplicaMap::parseSpec("1:2,", out));
    EXPECT_FALSE(serve::ReplicaMap::parseSpec("a:2", out));
    EXPECT_FALSE(serve::ReplicaMap::parseSpec("1:b", out));
    EXPECT_FALSE(serve::ReplicaMap::parseSpec("-1:2", out));
}

TEST(ReplicaMap, PlanFromLoadPicksHotClusters)
{
    serve::LoadReport report;
    report.zipf_exponent = 1.0;
    for (std::uint32_t c = 0; c < 4; ++c) {
        serve::ClusterLoad load;
        load.cluster = c;
        load.deep_requests = c == 0 ? 100 : 10;
        report.clusters.push_back(load);
    }
    serve::ReplicationPolicy policy;
    policy.min_deep_requests = 1;
    auto plan = serve::ReplicaMap::planFromLoad(report, policy);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].cluster, 0u);
    EXPECT_EQ(plan[0].extras, 1u); // cap 2 replicas: 1 extra

    // A flat fleet (no Zipf skew) never replicates.
    report.zipf_exponent = 0.0;
    EXPECT_TRUE(serve::ReplicaMap::planFromLoad(report, policy).empty());

    // An already-replicated hot cluster is not replicated past the cap.
    report.zipf_exponent = 1.0;
    report.clusters[0].replicas = 2;
    EXPECT_TRUE(serve::ReplicaMap::planFromLoad(report, policy).empty());
}

TEST(HermesBroker, ReplicatedMatchesReference)
{
    // Replication + p2c routing + (windowed) hedging are scheduling
    // changes only: replicas serve the same immutable shard, so results
    // under concurrent load stay bit-identical to the reference.
    const auto &data = serveData();
    serve::BrokerConfig config;
    config.replicate = {{0, 2}, {1, 2}};
    serve::HermesBroker broker(*data.store, config);
    EXPECT_EQ(broker.numNodes(), data.store->numClusters() + 2);
    EXPECT_EQ(broker.numClusters(), data.store->numClusters());
    EXPECT_EQ(broker.replicaCount(0), 2u);
    EXPECT_EQ(broker.replicaCount(2), 1u);
    core::HermesSearch reference(*data.store);

    std::vector<vecstore::HitList> expected;
    for (std::size_t q = 0; q < 32; ++q)
        expected.push_back(
            reference.search(data.queries.embeddings.row(q), 5).hits);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            for (std::size_t q = t; q < 32; q += 4) {
                auto hits =
                    broker.search(data.queries.embeddings.row(q), 5);
                if (hits.size() != expected[q].size()) {
                    ++mismatches;
                    continue;
                }
                for (std::size_t i = 0; i < hits.size(); ++i) {
                    if (hits[i].id != expected[q][i].id ||
                        hits[i].score != expected[q][i].score)
                        ++mismatches;
                }
            }
        });
    }
    for (auto &client : clients)
        client.join();
    EXPECT_EQ(mismatches.load(), 0);

    // p2c actually spreads the replicated clusters' probes: both copies
    // of cluster 0 saw traffic (the replica is node 6, appended after
    // the six primaries). 32 queries route 32 sample probes over two
    // idle replicas chosen uniformly — a starved copy is a router bug.
    auto stats = broker.stats();
    ASSERT_EQ(stats.nodes.size(), 8u);
    ASSERT_EQ(stats.node_clusters.size(), 8u);
    EXPECT_EQ(stats.node_clusters[6], 0u);
    EXPECT_EQ(stats.node_clusters[7], 1u);
    EXPECT_GT(stats.nodes[0].requests, 0u);
    EXPECT_GT(stats.nodes[6].requests, 0u);
    EXPECT_GT(stats.nodes[7].requests, 0u);
}

TEST(HermesBroker, HedgeFiresAndMatchesUnhedged)
{
    // Cluster 0's primary is slow (every request +30 ms); its replica is
    // clean. Probes routed to the slow copy outlive the trigger, hedge
    // to the clean copy, and the hedge wins — while every answer stays
    // bit-identical to the unhedged reference (first-response-wins over
    // bit-identical replicas cannot change results).
    const auto &data = serveData();
    serve::BrokerConfig config;
    config.node_faults.resize(1);
    config.node_faults[0].delay_probability = 1.0;
    config.node_faults[0].delay_ms = 30.0;
    config.hedge.min_samples = 4;
    config.hedge.quantile = 50.0;
    config.hedge.min_trigger_us = 1000.0;
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, config, metrics);
    // The replica must not inherit the delay: attach a clean node.
    serve::NodeConfig clean;
    clean.node_id = broker.numNodes();
    broker.addReplica(0, std::make_unique<serve::LocalNodeClient>(
                             data.store->clusterIndex(0), clean));
    ASSERT_EQ(broker.replicaCount(0), 2u);
    core::HermesSearch reference(*data.store);

    for (std::size_t q = 0; q < 40; ++q) {
        auto hits = broker.search(data.queries.embeddings.row(q % 32), 5);
        auto expected =
            reference.search(data.queries.embeddings.row(q % 32), 5);
        ASSERT_EQ(hits.size(), expected.hits.size()) << "query " << q;
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].id, expected.hits[i].id) << "query " << q;
            EXPECT_EQ(hits[i].score, expected.hits[i].score)
                << "query " << q;
        }
    }

    // ~half the probes to cluster 0 land on the slow primary and must
    // have hedged to (and been won by) the clean replica.
    auto stats = broker.stats();
    EXPECT_GT(stats.hedges_issued, 0u);
    EXPECT_GT(stats.hedges_won, 0u);
    EXPECT_GE(stats.hedges_issued, stats.hedges_won + stats.hedges_wasted);
    EXPECT_EQ(stats.failures, 0u);
}

TEST(HermesBroker, DeadReplicaFailsOverToSurvivor)
{
    // Cluster 0's primary drops every request (a dead process). With
    // hedging on, sample probes hedge over to the surviving replica;
    // with it off, each probe is a single lane that times out and fails
    // over to it. Deep requests time out and fail over either way, so
    // queries keep returning the full, bit-identical top-k with no
    // degradation in the answer.
    const auto &data = serveData();
    core::HermesSearch reference(*data.store);
    for (const bool hedged : {true, false}) {
        SCOPED_TRACE(hedged ? "hedging on" : "hedging off");
        serve::BrokerConfig config;
        config.node_faults.resize(1);
        config.node_faults[0].drop_probability = 1.0;
        config.node_deadline_ms = 150.0;
        config.max_retries = 1;
        config.hedge.enabled = hedged;
        config.hedge.min_samples = 4;
        config.hedge.min_trigger_us = 500.0;
        obs::Registry metrics;
        serve::HermesBroker broker(*data.store, config, metrics);
        serve::NodeConfig clean;
        clean.node_id = broker.numNodes();
        broker.addReplica(0, std::make_unique<serve::LocalNodeClient>(
                                 data.store->clusterIndex(0), clean));

        for (std::size_t q = 0; q < 12; ++q) {
            auto hits = broker.search(data.queries.embeddings.row(q), 5);
            auto expected =
                reference.search(data.queries.embeddings.row(q), 5);
            ASSERT_EQ(hits.size(), expected.hits.size()) << "query " << q;
            for (std::size_t i = 0; i < hits.size(); ++i) {
                EXPECT_EQ(hits[i].id, expected.hits[i].id) << "query " << q;
                EXPECT_EQ(hits[i].score, expected.hits[i].score)
                    << "query " << q;
            }
        }
        // The dead primary cost timeouts or hedges, never answers.
        auto stats = broker.stats();
        EXPECT_EQ(stats.queries, 12u);
        EXPECT_GT(stats.hedges_issued + stats.timeouts, 0u);
        if (!hedged) {
            EXPECT_EQ(stats.hedges_issued, 0u);
        }
    }
}

TEST(HermesBroker, LoadReportExposesReplicasAndHedges)
{
    const auto &data = serveData();
    serve::BrokerConfig config;
    config.replicate = {{0, 2}};
    serve::HermesBroker broker(*data.store, config);
    for (std::size_t q = 0; q < 8; ++q)
        broker.search(data.queries.embeddings.row(q), 5);

    auto load = broker.loadReport();
    ASSERT_EQ(load.clusters.size(), data.store->numClusters());
    EXPECT_EQ(load.clusters[0].replicas, 2u);
    ASSERT_EQ(load.clusters[0].replica_routes.size(), 2u);
    EXPECT_EQ(load.clusters[1].replicas, 1u);
    // Both copies of cluster 0 were routed probes (8 queries, uniform
    // p2c over idle queues).
    EXPECT_GT(load.clusters[0].replica_routes[0] +
                  load.clusters[0].replica_routes[1],
              0u);
    auto json = load.toJson();
    EXPECT_NE(json.find("\"replicas\""), std::string::npos);
    EXPECT_NE(json.find("\"replica_routes\""), std::string::npos);
    EXPECT_NE(json.find("\"hedges_issued\""), std::string::npos);
    EXPECT_NE(json.find("\"hedges_won\""), std::string::npos);
    EXPECT_NE(json.find("\"hedges_wasted\""), std::string::npos);
}

TEST(HermesBroker, AutoReplicateAddsReplicasForHotCluster)
{
    const auto &data = serveData();
    serve::HermesBroker broker(*data.store);
    core::HermesSearch reference(*data.store);
    for (std::size_t q = 0; q < 32; ++q)
        broker.search(data.queries.embeddings.row(q), 5);

    // Permissive policy: any above-average cluster counts as hot, no
    // traffic or skew floor — 64 deep requests over 6 clusters cannot
    // be exactly flat, so the plan adds at least one replica.
    serve::ReplicationPolicy policy;
    policy.hot_share_ratio = 1.0;
    policy.min_deep_requests = 1;
    policy.min_zipf_exponent = 0.0;
    std::size_t added = broker.autoReplicate(policy);
    EXPECT_GE(added, 1u);
    EXPECT_GT(broker.numNodes(), data.store->numClusters());

    // The grown fleet still answers bit-identically.
    for (std::size_t q = 0; q < 32; ++q) {
        auto hits = broker.search(data.queries.embeddings.row(q), 5);
        auto expected =
            reference.search(data.queries.embeddings.row(q), 5);
        ASSERT_EQ(hits.size(), expected.hits.size()) << "query " << q;
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].id, expected.hits[i].id) << "query " << q;
            EXPECT_EQ(hits[i].score, expected.hits[i].score)
                << "query " << q;
        }
    }
}

TEST(HermesBroker, AdaptiveConfigPrunesDeepRequests)
{
    const auto &data = serveData();
    core::HermesConfig config = data.config;
    config.adaptive_epsilon = 0.05;
    auto store = core::DistributedStore::build(data.corpus.embeddings,
                                               config);
    obs::Registry metrics;
    serve::HermesBroker broker(store, {}, metrics);

    for (std::size_t q = 0; q < 16; ++q)
        broker.search(data.queries.embeddings.row(q), 5);
    auto stats = broker.stats();
    EXPECT_LE(stats.deep_requests, 16u * config.clusters_to_search);
    EXPECT_GE(stats.deep_requests, 16u);
}

} // namespace
