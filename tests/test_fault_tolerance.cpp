/**
 * @file
 * Fault-tolerance suite for the concurrent serving path: exception-safe
 * thread pool (per-call task groups, nested/concurrent parallelFor),
 * exception-safe retrieval nodes with injected faults, broker deadlines
 * and graceful degradation, the InnerProduct adaptive-pruning regression,
 * and corrupt-archive rejection.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/distributed_store.hpp"
#include "core/search_strategy.hpp"
#include "eval/metrics.hpp"
#include "index/ivf_index.hpp"
#include "serve/broker.hpp"
#include "serve/node.hpp"
#include "util/serialize.hpp"
#include "util/threadpool.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

// ---------------------------------------------------------------------------
// ThreadPool: exception capture, per-call groups, nesting
// ---------------------------------------------------------------------------

TEST(ThreadPoolFaults, ParallelForRethrowsTaskException)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100, [](std::size_t i) {
        if (i == 37)
            throw std::runtime_error("iteration 37 exploded");
    }), std::runtime_error);
}

TEST(ThreadPoolFaults, PoolSurvivesAndServesAfterException)
{
    util::ThreadPool pool(4);
    try {
        pool.parallelFor(64, [](std::size_t i) {
            if (i % 2 == 0)
                throw std::runtime_error("boom");
        });
        FAIL() << "expected the task exception to propagate";
    } catch (const std::runtime_error &) {
    }

    std::vector<std::atomic<int>> touched(128);
    pool.parallelFor(128, [&](std::size_t i) { touched[i]++; });
    for (const auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolFaults, SubmitWaitRethrowsFirstException)
{
    util::ThreadPool pool(2);
    std::atomic<int> completed{0};
    pool.submit([] { throw std::runtime_error("submitted task failed"); });
    for (int i = 0; i < 10; ++i)
        pool.submit([&] { completed++; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error was consumed; subsequent waits are clean.
    pool.submit([&] { completed++; });
    pool.wait();
    EXPECT_EQ(completed.load(), 11);
}

TEST(ThreadPoolFaults, NestedParallelForRunsInlineWithoutDeadlock)
{
    util::ThreadPool pool(2);
    std::vector<std::atomic<int>> touched(4 * 8);
    pool.parallelFor(4, [&](std::size_t outer) {
        // Pre-fix this deadlocked: the nested call queued tasks no free
        // worker could ever run while blocking a worker on them.
        pool.parallelFor(8, [&](std::size_t inner) {
            touched[outer * 8 + inner]++;
        });
    });
    for (const auto &t : touched)
        EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolFaults, ConcurrentParallelForCallersAreIndependent)
{
    util::ThreadPool pool(4);
    std::vector<std::atomic<int>> a(300), b(300);
    std::thread t1([&] {
        pool.parallelFor(300, [&](std::size_t i) { a[i]++; });
    });
    std::thread t2([&] {
        pool.parallelFor(300, [&](std::size_t i) { b[i]++; });
    });
    t1.join();
    t2.join();
    for (std::size_t i = 0; i < 300; ++i) {
        EXPECT_EQ(a[i].load(), 1);
        EXPECT_EQ(b[i].load(), 1);
    }
}

TEST(ThreadPoolFaults, TaskGroupWaitDoesNotWaitOnOtherGroups)
{
    util::ThreadPool pool(2);
    std::atomic<bool> slow_done{false};
    pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        slow_done = true;
    });

    util::ThreadPool::TaskGroup group(pool);
    std::atomic<int> fast{0};
    group.run([&] { fast++; });
    group.wait();
    EXPECT_EQ(fast.load(), 1);
    // The group wait returned without waiting for the default group's
    // slow task.
    EXPECT_FALSE(slow_done.load());
    pool.wait();
    EXPECT_TRUE(slow_done.load());
}

// ---------------------------------------------------------------------------
// RetrievalNode: throwing shards and injected faults
// ---------------------------------------------------------------------------

/** AnnIndex whose search always throws — a catastrophically bad shard. */
class ThrowingIndex : public index::AnnIndex
{
  public:
    explicit ThrowingIndex(std::size_t dim) : dim_(dim) {}

    std::size_t dim() const override { return dim_; }
    std::size_t size() const override { return 1; }
    vecstore::Metric metric() const override { return vecstore::Metric::L2; }
    bool isTrained() const override { return true; }
    void train(const vecstore::Matrix &) override {}
    void add(const vecstore::Matrix &,
             const std::vector<vecstore::VecId> &) override {}
    vecstore::HitList
    search(vecstore::VecView, std::size_t, const index::SearchParams &,
           index::SearchStats *) const override
    {
        throw std::runtime_error("shard exploded");
    }
    std::size_t memoryBytes() const override { return 0; }
    std::string name() const override { return "throwing"; }

  private:
    std::size_t dim_;
};

TEST(RetrievalNodeFaults, ThrowingShardDeliversExceptionNotHang)
{
    ThrowingIndex shard(8);
    serve::RetrievalNode node(shard, {});
    std::vector<float> query(8, 0.f);

    auto future = node.submit(vecstore::VecView(query.data(), 8), 3, {});
    EXPECT_THROW(
        {
            try {
                future.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "shard exploded");
                throw;
            }
        },
        std::runtime_error);

    // The worker survived: a second request gets its own exception too.
    auto again = node.submit(vecstore::VecView(query.data(), 8), 3, {});
    EXPECT_THROW(again.get(), std::runtime_error);
    EXPECT_EQ(node.stats().failures, 2u);
    EXPECT_EQ(node.stats().requests, 2u);
}

TEST(RetrievalNodeFaults, InjectedFailureIsDeterministicAndCounted)
{
    workload::CorpusConfig cc;
    cc.num_docs = 256;
    cc.dim = 8;
    cc.seed = 11;
    auto corpus = workload::generateCorpus(cc);

    index::IvfConfig ivf;
    ivf.nlist = 4;
    ivf.codec = "Flat";
    index::IvfIndex shard(8, vecstore::Metric::L2, ivf);
    shard.train(corpus.embeddings);
    shard.addSequential(corpus.embeddings);

    serve::NodeConfig config;
    config.faults.fail_probability = 1.0;
    serve::RetrievalNode node(shard, config);

    auto future =
        node.submit(corpus.embeddings.row(0), 3, index::SearchParams{});
    EXPECT_THROW(future.get(), std::runtime_error);
    EXPECT_EQ(node.stats().failures, 1u);
}

TEST(RetrievalNodeFaults, DroppedRequestNeverBecomesReady)
{
    workload::CorpusConfig cc;
    cc.num_docs = 256;
    cc.dim = 8;
    cc.seed = 12;
    auto corpus = workload::generateCorpus(cc);

    index::IvfConfig ivf;
    ivf.nlist = 4;
    ivf.codec = "Flat";
    index::IvfIndex shard(8, vecstore::Metric::L2, ivf);
    shard.train(corpus.embeddings);
    shard.addSequential(corpus.embeddings);

    serve::NodeConfig config;
    config.faults.drop_probability = 1.0;
    auto node = std::make_unique<serve::RetrievalNode>(shard, config);

    auto future =
        node->submit(corpus.embeddings.row(0), 3, index::SearchParams{});
    // A dead node: only a deadline can observe it.
    EXPECT_EQ(future.wait_for(std::chrono::milliseconds(100)),
              std::future_status::timeout);
    EXPECT_EQ(node->stats().dropped, 1u);

    // Shutdown releases the parked promise: broken promise, not a hang.
    node.reset();
    EXPECT_THROW(future.get(), std::future_error);
}

// ---------------------------------------------------------------------------
// HermesBroker: deadlines, retries, graceful degradation
// ---------------------------------------------------------------------------

struct BrokerFixture
{
    workload::Corpus corpus;
    workload::QuerySet queries;
    core::HermesConfig config;
    std::unique_ptr<core::DistributedStore> store;
};

const BrokerFixture &
brokerFixture()
{
    static BrokerFixture data = [] {
        BrokerFixture out;
        workload::CorpusConfig cc;
        cc.num_docs = 3000;
        cc.dim = 16;
        cc.num_topics = 12;
        cc.seed = 77;
        out.corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 16;
        qc.seed = 78;
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

TEST(HermesBrokerFaults, SingleFailedNodeDegradesGracefully)
{
    const auto &data = brokerFixture();
    const std::size_t k = 5;

    // Fault-free reference answers.
    serve::HermesBroker healthy(*data.store);
    std::vector<vecstore::HitList> reference;
    for (std::size_t q = 0; q < 16; ++q)
        reference.push_back(
            healthy.search(data.queries.embeddings.row(q), k));

    // Same store, but cluster 0's node fails every request (1 of 6).
    serve::BrokerConfig config;
    config.node_faults.resize(1);
    config.node_faults[0].fail_probability = 1.0;
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, config, metrics);

    double ndcg_sum = 0.0;
    for (std::size_t q = 0; q < 16; ++q) {
        auto hits = broker.search(data.queries.embeddings.row(q), k);
        EXPECT_EQ(hits.size(), k) << "query " << q;
        ndcg_sum += eval::ndcgAtK(hits, reference[q], k);
    }

    auto stats = broker.stats();
    EXPECT_EQ(stats.queries, 16u);
    EXPECT_GT(stats.failures, 0u);
    EXPECT_EQ(stats.degraded_queries, 16u);
    EXPECT_EQ(stats.timeouts, 0u);
    // Quality: most queries never needed cluster 0; the rest still get
    // answers from the surviving 5 clusters.
    EXPECT_GE(ndcg_sum / 16.0, 0.5);
}

TEST(HermesBrokerFaults, DeadNodeTimesOutInsteadOfHanging)
{
    const auto &data = brokerFixture();

    serve::BrokerConfig config;
    config.node_deadline_ms = 50.0;
    config.max_retries = 1;
    config.node_faults.resize(3);
    config.node_faults[2].drop_probability = 1.0; // node 2 is dead

    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, config, metrics);
    for (std::size_t q = 0; q < 4; ++q) {
        auto hits = broker.search(data.queries.embeddings.row(q), 5);
        EXPECT_EQ(hits.size(), 5u) << "query " << q;
    }

    auto stats = broker.stats();
    EXPECT_EQ(stats.queries, 4u);
    EXPECT_GT(stats.timeouts, 0u);
    EXPECT_EQ(stats.degraded_queries, 4u);
}

TEST(HermesBrokerFaults, DeadSampleProbesShareOneDeadline)
{
    // Two dead clusters on the sample fan-out: each probe's deadline
    // runs from its own submit, so the two expire together instead of
    // one after the other.
    const auto &data = brokerFixture();
    const double deadline_ms = 250.0;

    serve::BrokerConfig config;
    config.node_deadline_ms = deadline_ms;
    config.max_retries = 0;
    config.node_faults.resize(2);
    config.node_faults[0].drop_probability = 1.0;
    config.node_faults[1].drop_probability = 1.0;
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, config, metrics);

    const auto start = std::chrono::steady_clock::now();
    auto hits = broker.search(data.queries.embeddings.row(0), 5);
    const double elapsed_ms = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - start).count();

    EXPECT_EQ(hits.size(), 5u);
    EXPECT_LT(elapsed_ms, 1.5 * deadline_ms);
    auto stats = broker.stats();
    EXPECT_EQ(stats.timeouts, 2u);
    EXPECT_EQ(stats.degraded_queries, 1u);
}

TEST(HermesBrokerFaults, AllNodesFailingReturnsEmptyNotCrash)
{
    const auto &data = brokerFixture();

    serve::BrokerConfig config;
    config.node.faults.fail_probability = 1.0;
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, config, metrics);

    auto hits = broker.search(data.queries.embeddings.row(0), 5);
    EXPECT_TRUE(hits.empty());
    auto stats = broker.stats();
    EXPECT_EQ(stats.queries, 1u);
    EXPECT_EQ(stats.degraded_queries, 1u);
    EXPECT_GT(stats.failures, 0u);
}

TEST(HermesBrokerFaults, RandomFaultsEverywhereStillServeTopK)
{
    const auto &data = brokerFixture();

    serve::BrokerConfig config;
    config.node.faults.fail_probability = 0.1;
    config.node.faults.delay_probability = 0.2;
    config.node.faults.delay_ms = 1.0;
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, config, metrics);

    for (std::size_t q = 0; q < 16; ++q) {
        auto hits = broker.search(data.queries.embeddings.row(q), 5);
        EXPECT_EQ(hits.size(), 5u) << "query " << q;
    }
    EXPECT_EQ(broker.stats().queries, 16u);
}

// ---------------------------------------------------------------------------
// Adaptive-epsilon pruning on the InnerProduct score scale
// ---------------------------------------------------------------------------

/**
 * Build an InnerProduct distributed store of @p num_clusters clusters
 * whose best document dot products are close together (within ~8% of
 * each other), so an epsilon = 0.2 margin must keep several clusters.
 */
core::DistributedStore
ipStore(core::HermesConfig &config)
{
    const std::size_t dim = 4;
    const std::size_t num_clusters = 4;
    // Best dot product per cluster; scores are the negations.
    const float best_dot[num_clusters] = {10.0f, 9.6f, 9.2f, 1.0f};

    config.num_clusters = num_clusters;
    config.clusters_to_search = 3;
    config.sample_nprobe = 1;
    config.deep_nprobe = 1;
    config.sample_k = 1;
    config.codec = "Flat";
    config.adaptive_epsilon = 0.2;

    std::vector<std::unique_ptr<index::IvfIndex>> indices;
    vecstore::Matrix centroids(num_clusters, dim);
    for (std::size_t c = 0; c < num_clusters; ++c) {
        vecstore::Matrix docs(8, dim);
        std::vector<vecstore::VecId> ids;
        for (std::size_t i = 0; i < 8; ++i) {
            for (std::size_t j = 0; j < dim; ++j)
                docs.row(i)[j] = 0.f;
            // Doc i of cluster c projects best_dot[c] - 0.05 * i onto
            // the query direction e0.
            docs.row(i)[0] = best_dot[c] - 0.05f * static_cast<float>(i);
            ids.push_back(static_cast<vecstore::VecId>(c * 100 + i));
        }
        for (std::size_t j = 0; j < dim; ++j)
            centroids.row(c)[j] = j == 0 ? best_dot[c] : 0.f;

        index::IvfConfig ivf;
        ivf.nlist = 1;
        ivf.codec = "Flat";
        auto idx = std::make_unique<index::IvfIndex>(
            dim, vecstore::Metric::InnerProduct, ivf);
        idx->train(docs);
        idx->add(docs, ids);
        indices.push_back(std::move(idx));
    }
    return core::DistributedStore::assemble(config, std::move(indices),
                                            std::move(centroids));
}

TEST(AdaptiveEpsilonIp, NegativeScoresKeepClustersWithinMargin)
{
    core::HermesConfig config;
    auto store = ipStore(config);
    core::HermesSearch strategy(store);

    std::vector<float> query = {1.f, 0.f, 0.f, 0.f};
    auto result = strategy.search(vecstore::VecView(query.data(), 4), 2);

    // Sampled best scores are {-10, -9.6, -9.2, -1}; the 0.2 margin
    // bound is -10 + 0.2 * 10 = -8, so three clusters qualify. The old
    // multiplicative bound (-12) pruned to a single cluster regardless
    // of epsilon.
    EXPECT_EQ(result.deep_clusters.size(), 3u);
    ASSERT_GE(result.hits.size(), 2u);
    EXPECT_EQ(result.hits[0].id, 0u);   // dot 10.0
    EXPECT_EQ(result.hits[1].id, 1u);   // dot 9.95
}

TEST(AdaptiveEpsilonIp, BrokerMatchesCoreStrategyOnIpStore)
{
    core::HermesConfig config;
    auto store = ipStore(config);
    core::HermesSearch strategy(store);
    serve::HermesBroker broker(store);

    std::vector<float> query = {1.f, 0.f, 0.f, 0.f};
    auto expected = strategy.search(vecstore::VecView(query.data(), 4), 3);

    std::vector<std::uint32_t> deep;
    auto hits = broker.search(vecstore::VecView(query.data(), 4), 3, deep);

    EXPECT_EQ(deep, expected.deep_clusters);
    ASSERT_EQ(hits.size(), expected.hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].id, expected.hits[i].id);
        EXPECT_FLOAT_EQ(hits[i].score, expected.hits[i].score);
    }
}

// ---------------------------------------------------------------------------
// Corrupt archive rejection
// ---------------------------------------------------------------------------

TEST(CorruptArchive, HostileVectorLengthPrefixThrowsNotBadAlloc)
{
    util::ByteWriter w;
    // A corrupt/hostile length prefix claiming ~10^18 floats.
    w.u64(1ull << 60);
    util::ByteReader r(w.buffer(), "hostile_prefix.bin");
    try {
        (void)r.vec<float>();
        ADD_FAILURE() << "hostile vector prefix decoded";
    } catch (const util::FormatError &e) {
        EXPECT_EQ(e.code(), util::FormatErrorCode::Corrupt);
        EXPECT_NE(std::string(e.what()).find("hostile_prefix.bin"),
                  std::string::npos);
    }
}

TEST(CorruptArchive, HostileStringLengthPrefixThrows)
{
    util::ByteWriter w;
    w.u32(1u << 30);
    util::ByteReader r(w.buffer(), "hostile_string.bin");
    try {
        (void)r.str();
        ADD_FAILURE() << "hostile string prefix decoded";
    } catch (const util::FormatError &e) {
        EXPECT_EQ(e.code(), util::FormatErrorCode::Corrupt);
    }
}

TEST(CorruptArchive, TruncatedIndexFileIsRejectedOnLoad)
{
    workload::CorpusConfig cc;
    cc.num_docs = 256;
    cc.dim = 8;
    cc.seed = 13;
    auto corpus = workload::generateCorpus(cc);

    index::IvfConfig ivf;
    ivf.nlist = 8;
    index::IvfIndex idx(8, vecstore::Metric::L2, ivf);
    idx.train(corpus.embeddings);
    idx.addSequential(corpus.embeddings);

    auto path =
        std::filesystem::temp_directory_path() / "truncated_index.bin";
    idx.save(path.string());
    auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);

    // Typed rejection (v3 format): a serving process refuses the bad
    // file and keeps running — no huge allocation, no garbage index,
    // no process death.
    EXPECT_THROW((void)index::IvfIndex::load(path.string()),
                 util::FormatError);
    EXPECT_THROW((void)index::IvfIndex::openMapped(path.string()),
                 util::FormatError);
    std::filesystem::remove(path);
}

} // namespace
