/**
 * @file
 * perfbench: the repository's serving benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>]
 *
 * Stands up the real serving stack (serve::HermesBroker over in-process
 * RetrievalNodes, or over RemoteNodeClients talking to ShardServers on
 * loopback), drives it with a closed-loop phase and a Poisson open-loop
 * phase built from the seed, checks every answer against a
 * core::HermesSearch reference with exact equality, and prints the
 * end-to-end metrics (--trace 0) or the per-layer attribution
 * (--trace 1). The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit status is 0 only when every answer matched its reference.
 *
 * See perfbench/README.md for the workloads and the metric contract.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/distributed_store.hpp"
#include "core/search_strategy.hpp"
#include "eval/ground_truth.hpp"
#include "eval/metrics.hpp"
#include "helpers.hpp"
#include "index/ivf_index.hpp"
#include "serve/broker.hpp"
#include "serve/remote_node.hpp"
#include "serve/rpc.hpp"
#include "serve/shard_server.hpp"
#include "spans.hpp"
#include "util/logging.hpp"
#include "util/threadpool.hpp"
#include "vecstore/simd_dispatch.hpp"
#include "vecstore/topk.hpp"
#include "workload/corpus.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hermes;
using perfbench::Clock;
using perfbench::SpanRecorder;
using perfbench::Summary;

// ---------------------------------------------------------------------
// Workloads. Rates and latency limits are fixed constants, set once from
// the seed commit's measurements and never derived from the code under
// test (README.md records how).

enum class Shape { InProcess, Fleet, HedgeSkew };

struct WorkloadSpec
{
    const char *name;
    Shape shape;
    std::size_t num_docs;
    std::size_t dim;
    std::size_t nlist_per_cluster; ///< 0 = sqrt(cluster size)
    double batch_window_us;
    std::size_t pool;        ///< distinct queries in the request stream
    double ol_rate;          ///< open-loop arrivals per second
    double ol_limit_ms;      ///< open-loop latency limit (SLO)
    std::size_t setup_reps;  ///< stack set-ups timed per untraced run
};

const WorkloadSpec kWorkloads[] = {
    {"coord-inproc", Shape::InProcess, 20000, 32, 0, 0.0, 2000, 1000.0,
     50.0, 31},
    {"scan-inproc", Shape::InProcess, 60000, 384, 16, 200.0, 1000, 200.0,
     80.0, 5},
    {"coord-fleet", Shape::Fleet, 20000, 32, 0, 0.0, 2000, 600.0, 60.0, 31},
    {"hedge-skew", Shape::HedgeSkew, 20000, 32, 0, 0.0, 2000, 1000.0, 80.0,
     31},
};

constexpr std::size_t kK = 5;
constexpr std::size_t kNumClusters = 10;
constexpr std::size_t kRecallQueries = 1000;
constexpr std::size_t kAttributionQueries = 200;
constexpr std::size_t kStreamLength = 1u << 17;
constexpr double kStragglerProbability = 0.05;
constexpr double kStragglerDelayMs = 25.0;

core::HermesConfig
hermesConfig(const WorkloadSpec &spec)
{
    core::HermesConfig config;
    config.num_clusters = kNumClusters;
    config.sample_nprobe = 4;
    config.deep_nprobe = 32;
    config.clusters_to_search = 3;
    config.docs_to_retrieve = kK;
    config.codec = "SQ8";
    config.nlist_per_cluster = spec.nlist_per_cluster;
    config.partition.seeds_to_try = 3;
    return config;
}

// ---------------------------------------------------------------------
// Host and process probes.

struct CpuTimes
{
    unsigned long long total = 0;
    unsigned long long steal = 0;
};

CpuTimes
readProcStat()
{
    CpuTimes t;
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    if (label != "cpu")
        return t;
    for (int field = 0; field < 8; ++field) {
        unsigned long long v = 0;
        in >> v;
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
stealPct(const CpuTimes &a, const CpuTimes &b)
{
    if (b.total <= a.total)
        return 0.0;
    return 100.0 * static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
}

double
residentBytes()
{
    std::ifstream in("/proc/self/statm");
    unsigned long long size = 0, resident = 0;
    in >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE));
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------
// The serving stack under test.

struct Stack
{
    Stack() = default;
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** Stops the broker, then every shard server at once (each stop
     *  waits out an accept-poll tick, so serial stops add up). */
    ~Stack()
    {
        broker.reset();
        std::vector<std::thread> stoppers;
        for (auto &server : servers)
            stoppers.emplace_back([&server] { server->stop(); });
        for (auto &t : stoppers)
            t.join();
    }

    /** In-process shapes: the store the nodes serve. */
    std::unique_ptr<core::DistributedStore> store;
    /** Fleet: one mmap-opened index per cluster, served by servers. */
    std::vector<std::unique_ptr<index::IvfIndex>> mapped;
    std::vector<std::unique_ptr<serve::ShardServer>> servers;
    std::unique_ptr<serve::HermesBroker> broker;
    /** The broker's remote node clients (owned by the broker). */
    std::vector<serve::RemoteNodeClient *> remotes;
};

serve::RemoteNodeClientStats
sumRemoteStats(const std::vector<serve::RemoteNodeClient *> &remotes)
{
    serve::RemoteNodeClientStats total;
    for (const auto *r : remotes) {
        auto s = r->clientStats();
        total.rpcs_sent += s.rpcs_sent;
        total.batched_rpcs += s.batched_rpcs;
        total.batched_requests += s.batched_requests;
        total.reconnects += s.reconnects;
        total.transport_failures += s.transport_failures;
        total.remote_errors += s.remote_errors;
    }
    return total;
}

/** Node-level totals across a broker's nodes. */
struct NodeTotals
{
    double requests = 0.0;
    double batches = 0.0;
    double busy_seconds = 0.0;
    std::size_t nodes = 0;
};

NodeTotals
nodeTotals(const serve::BrokerStats &stats)
{
    NodeTotals t;
    for (const auto &n : stats.nodes) {
        t.requests += static_cast<double>(n.requests);
        t.batches += static_cast<double>(n.batches);
        t.busy_seconds += n.busy_seconds;
    }
    t.nodes = stats.nodes.size();
    return t;
}

// ---------------------------------------------------------------------
// One load phase's outcome.

struct PhaseResult
{
    std::vector<double> latency_us; ///< every attempted request
    std::vector<double> lag_us;     ///< open loop: send - due
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    std::uint64_t within_limit = 0; ///< open loop: ok and under the limit
    double wall_s = 0.0;
    double cpu_s = 0.0; ///< closed loop: process user+sys CPU
    bool backlog_growing = false;

    /** Correct completions per second. */
    double
    qps() const
    {
        return wall_s > 0.0 ? static_cast<double>(ok) / wall_s : 0.0;
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

// ---------------------------------------------------------------------

class Bench
{
  public:
    Bench(const WorkloadSpec &spec, std::uint64_t seed, double seconds,
          bool trace, std::string work_dir)
        : spec_(spec), seed_(seed), seconds_(seconds), trace_(trace),
          work_dir_(std::move(work_dir)),
          clients_(std::clamp<std::size_t>(
              std::thread::hardware_concurrency(), 1, 4))
    {
    }

    /** Run the workload; returns the process exit status. */
    int run();

  private:
    void prepare();
    /** Stand the serving stack up; @p rep picks the straggler stream. */
    std::unique_ptr<Stack> standUp(std::uint64_t rep = 0);
    std::string fleetFile(std::size_t c) const;

    /** Serve query @p q and check it against its reference. */
    bool serveChecked(serve::HermesBroker &broker, std::size_t q,
                      std::vector<std::uint32_t> *deep = nullptr,
                      vecstore::HitList *out = nullptr);
    /** Count a check made outside serveChecked; @p diff empty = pass. */
    void countCheck(const std::string &what, const std::string &diff);
    void recordFailure(const std::string &what, const std::string &diff);

    PhaseResult closedLoop(serve::HermesBroker &broker, double seconds,
                           std::size_t stream_offset, SpanRecorder *spans);
    PhaseResult openLoop(serve::HermesBroker &broker, double seconds,
                         std::size_t stream_offset, SpanRecorder *spans);
    double servedRecall(serve::HermesBroker &broker);

    std::vector<Metric> loadMetrics(const PhaseResult &cl,
                                    const PhaseResult &ol) const;
    std::vector<Metric> attribute(Stack &stack, SpanRecorder &spans);
    /** Load, recall and the remaining set-ups: the end-to-end metrics.
     *  @p rss0 is the resident set read before the first set-up. */
    std::vector<Metric> untracedRun(Stack &stack,
                                    std::vector<double> &setup_s,
                                    double rss0);
    /** Traced load plus attribution: every per-layer metric but the
     *  host's steal. */
    std::vector<Metric> tracedRun(Stack &stack, SpanRecorder &spans);

    void printPhase(const char *label, const PhaseResult &r) const;
    /** Run job(t) on each load thread t and wait for all of them. */
    void runClients(const std::function<void(std::size_t)> &job);

    const WorkloadSpec &spec_;
    std::uint64_t seed_;
    double seconds_;
    bool trace_;
    std::string work_dir_;
    std::size_t clients_;
    /** The load threads, created before the memory baseline. */
    std::unique_ptr<util::ThreadPool> load_;

    core::HermesConfig config_;
    workload::Corpus corpus_;
    workload::QuerySet queries_;
    std::unique_ptr<core::DistributedStore> ref_store_;
    std::vector<vecstore::HitList> reference_;
    std::vector<std::vector<std::uint32_t>> reference_deep_;
    std::vector<vecstore::HitList> ground_truth_;
    std::vector<std::uint32_t> stream_;
    std::uint32_t hot_cluster_ = 0;
    std::string fleet_dir_;

    std::atomic<std::uint64_t> attempted_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::mutex diff_mutex_;
    std::vector<std::string> diffs_;
};

std::string
Bench::fleetFile(std::size_t c) const
{
    return fleet_dir_ + "/cluster_" + std::to_string(c) + ".hivf";
}

void
Bench::prepare()
{
    config_ = hermesConfig(spec_);

    workload::CorpusConfig cc;
    cc.num_docs = spec_.num_docs;
    cc.dim = spec_.dim;
    cc.num_topics = 30;
    cc.seed = perfbench::subSeed(seed_, 1);
    corpus_ = workload::generateCorpus(cc);

    workload::QueryConfig qc;
    qc.num_queries = spec_.pool;
    qc.topic_zipf = 1.0;
    qc.seed = perfbench::subSeed(seed_, 2);
    queries_ = workload::generateQueries(corpus_, qc);
    stream_ = perfbench::queryStream(perfbench::subSeed(seed_, 3),
                                     spec_.pool, kStreamLength);

    // Reference answers: the single-threaded core::HermesSearch plan on a
    // store built from the same vectors. Store construction is seeded, so
    // every store the set-up builds is identical to this one.
    ref_store_ = std::make_unique<core::DistributedStore>(
        core::DistributedStore::build(corpus_.embeddings, config_));
    core::HermesSearch plan(*ref_store_);
    reference_.resize(spec_.pool);
    reference_deep_.resize(spec_.pool);
    {
        util::ThreadPool pool(clients_);
        pool.parallelFor(spec_.pool, [&](std::size_t q) {
            auto result = plan.search(queries_.embeddings.row(q), kK);
            reference_[q] = std::move(result.hits);
            reference_deep_[q] = std::move(result.deep_clusters);
        });
    }

    // Exact ground truth for the recall subset.
    vecstore::Matrix subset(spec_.dim);
    const std::size_t nrecall = std::min(kRecallQueries, spec_.pool);
    for (std::size_t q = 0; q < nrecall; ++q)
        subset.append(queries_.embeddings.row(q));
    ground_truth_ = eval::exactGroundTruth(corpus_.embeddings, subset, kK,
                                           vecstore::Metric::L2);

    // The cluster the plan deep-searches most often on these queries.
    std::vector<std::uint64_t> deep_counts(kNumClusters, 0);
    for (const auto &deep : reference_deep_)
        for (std::uint32_t c : deep)
            ++deep_counts[c];
    hot_cluster_ = static_cast<std::uint32_t>(
        std::max_element(deep_counts.begin(), deep_counts.end()) -
        deep_counts.begin());

    if (spec_.shape == Shape::Fleet) {
        fleet_dir_ = work_dir_ + "/fleet-" + std::to_string(getpid());
        std::filesystem::create_directories(fleet_dir_);
        for (std::size_t c = 0; c < kNumClusters; ++c)
            ref_store_->clusterIndex(c).save(fleetFile(c));
    }
}

std::unique_ptr<Stack>
Bench::standUp(std::uint64_t rep)
{
    auto stack = std::make_unique<Stack>();
    serve::BrokerConfig bc;
    bc.node.batch_window_us = spec_.batch_window_us;

    if (spec_.shape == Shape::Fleet) {
        std::vector<std::unique_ptr<serve::NodeClient>> nodes;
        for (std::size_t c = 0; c < kNumClusters; ++c) {
            stack->mapped.push_back(
                index::IvfIndex::openMapped(fleetFile(c)));
            serve::ShardServerOptions so;
            so.node = bc.node;
            so.node.node_id = c;
            stack->servers.push_back(std::make_unique<serve::ShardServer>(
                *stack->mapped.back(), so));
            if (!stack->servers.back()->start())
                throw std::runtime_error("shard server failed to start");
            serve::RemoteNodeOptions ro;
            ro.port = stack->servers.back()->port();
            ro.request_deadline_ms = bc.node_deadline_ms;
            auto remote = std::make_unique<serve::RemoteNodeClient>(ro);
            stack->remotes.push_back(remote.get());
            nodes.push_back(std::move(remote));
        }
        stack->broker = std::make_unique<serve::HermesBroker>(
            ref_store_->config(), std::move(nodes), bc);
    } else {
        stack->store = std::make_unique<core::DistributedStore>(
            core::DistributedStore::build(corpus_.embeddings, config_));
        if (spec_.shape == Shape::HedgeSkew) {
            // The hot cluster's primary straggles; its replica is clean.
            bc.node_faults.resize(kNumClusters);
            auto &faults = bc.node_faults[hot_cluster_];
            faults.delay_probability = kStragglerProbability;
            faults.delay_ms = kStragglerDelayMs;
            // Each timed set-up draws its own stream, so the 5% of first
            // queries that meet the delay move a run's median set-up time
            // as little as they move any other request.
            faults.seed =
                perfbench::subSeed(perfbench::subSeed(seed_, 5), rep);
        }
        stack->broker =
            std::make_unique<serve::HermesBroker>(*stack->store, bc);
        if (spec_.shape == Shape::HedgeSkew) {
            serve::NodeConfig clean = bc.node;
            clean.node_id = stack->broker->numNodes();
            stack->broker->addReplica(
                hot_cluster_, std::make_unique<serve::LocalNodeClient>(
                                  stack->store->clusterIndex(hot_cluster_),
                                  clean));
        }
    }
    // Set-up ends with the first servable query.
    serveChecked(*stack->broker, 0);
    return stack;
}

void
Bench::countCheck(const std::string &what, const std::string &diff)
{
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!diff.empty())
        recordFailure(what, diff);
}

void
Bench::recordFailure(const std::string &what, const std::string &diff)
{
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(diff_mutex_);
    if (diffs_.size() < 5)
        diffs_.push_back(what + ": " + diff);
}

bool
Bench::serveChecked(serve::HermesBroker &broker, std::size_t q,
                    std::vector<std::uint32_t> *deep,
                    vecstore::HitList *out)
{
    std::string diff;
    try {
        std::vector<std::uint32_t> unused;
        auto hits = broker.search(queries_.embeddings.row(q), kK,
                                  deep ? *deep : unused);
        diff = perfbench::parityDiff(hits, reference_[q]);
        if (out)
            *out = std::move(hits);
    } catch (const std::exception &e) {
        diff = std::string("threw: ") + e.what();
    }
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (diff.empty())
        return true;
    recordFailure("query " + std::to_string(q), diff);
    return false;
}

PhaseResult
Bench::closedLoop(serve::HermesBroker &broker, double seconds,
                  std::size_t stream_offset, SpanRecorder *spans)
{
    PhaseResult r;
    std::vector<std::vector<double>> lat(clients_);
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> done{0}, bad{0};
    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    runClients([&](std::size_t t) {
        lat[t].reserve(1 << 14);
        while (Clock::now() < end) {
            const std::size_t i = next.fetch_add(1);
            const std::size_t q =
                stream_[(stream_offset + i) % kStreamLength];
            const auto t0 = Clock::now();
            const bool good = serveChecked(broker, q);
            const auto t1 = Clock::now();
            lat[t].push_back(microsBetween(t0, t1));
            (good ? done : bad).fetch_add(1, std::memory_order_relaxed);
            if (spans)
                spans->record(t, "client.search", t0, t1, i);
        }
    });
    r.wall_s = secondsSince(start);
    r.cpu_s = processCpuSeconds() - cpu0;
    for (const auto &l : lat)
        r.latency_us.insert(r.latency_us.end(), l.begin(), l.end());
    r.ok = done.load();
    r.failed = bad.load();
    r.attempted = r.ok + r.failed;
    return r;
}

PhaseResult
Bench::openLoop(serve::HermesBroker &broker, double seconds,
                std::size_t stream_offset, SpanRecorder *spans)
{
    PhaseResult r;
    const auto schedule = perfbench::poissonSchedule(
        perfbench::subSeed(seed_, 4), spec_.ol_rate, seconds);
    const std::size_t n = schedule.size();
    r.latency_us.resize(n);
    r.lag_us.resize(n);
    std::vector<char> good(n, 0);
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    runClients([&](std::size_t t) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                break;
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(schedule[i]));
            const auto wait_from = Clock::now();
            if (wait_from < due) {
                std::this_thread::sleep_until(due);
                if (spans)
                    spans->record(t, "gen.wait", wait_from, Clock::now(),
                                  i);
            }
            const std::size_t q =
                stream_[(stream_offset + i) % kStreamLength];
            const auto sent = Clock::now();
            good[i] = serveChecked(broker, q) ? 1 : 0;
            const auto done = Clock::now();
            // Timed from the due time: a stalled generator charges the
            // wait to the requests it delayed.
            r.latency_us[i] = microsBetween(due, done);
            r.lag_us[i] = std::max(0.0, microsBetween(due, sent));
            if (spans)
                spans->record(t, "client.search", sent, done, i);
        }
    });
    r.wall_s = secondsSince(start);
    r.attempted = n;
    const double limit_us = spec_.ol_limit_ms * 1000.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!good[i]) {
            ++r.failed; // a failed request misses the limit
            continue;
        }
        ++r.ok;
        if (r.latency_us[i] <= limit_us)
            ++r.within_limit;
    }
    // A growing backlog shows as send lateness rising from the first
    // quarter of the schedule to the last.
    if (n >= 8) {
        std::vector<double> first, last;
        for (std::size_t i = 0; i < n / 4; ++i) {
            first.push_back(r.lag_us[i]);
            last.push_back(r.lag_us[n - 1 - i]);
        }
        r.backlog_growing =
            perfbench::median(last) > 2.0 * perfbench::median(first) + 1000.0;
    }
    return r;
}

double
Bench::servedRecall(serve::HermesBroker &broker)
{
    std::vector<vecstore::HitList> served(ground_truth_.size());
    for (std::size_t q = 0; q < ground_truth_.size(); ++q)
        serveChecked(broker, q, nullptr, &served[q]);
    return eval::meanRecallAtK(served, ground_truth_, kK);
}

void
Bench::printPhase(const char *label, const PhaseResult &r) const
{
    const Summary s = perfbench::summarize(r.latency_us);
    std::printf("  %-22s attempted %llu, succeeded %llu, failed %llu in "
                "%.2f s; p50 %.3f ms, p%g %.3f ms (n=%zu)",
                label, static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.failed), r.wall_s,
                s.p50 / 1000.0, s.tail_pct, s.tail / 1000.0, s.n);
    if (!r.lag_us.empty()) {
        const Summary lag = perfbench::summarize(r.lag_us);
        std::printf("; within %.0f ms: %llu; send lag p%g %.3f ms; "
                    "backlog %s",
                    spec_.ol_limit_ms,
                    static_cast<unsigned long long>(r.within_limit),
                    lag.tail_pct, lag.tail / 1000.0,
                    r.backlog_growing ? "GROWING" : "steady");
    }
    std::printf("\n");
}

void
Bench::runClients(const std::function<void(std::size_t)> &job)
{
    for (std::size_t t = 0; t < clients_; ++t)
        load_->submit([&job, t] { job(t); });
    load_->wait();
}

std::vector<Metric>
Bench::loadMetrics(const PhaseResult &cl, const PhaseResult &ol) const
{
    const Summary c = perfbench::summarize(cl.latency_us);
    const Summary o = perfbench::summarize(ol.latency_us);
    auto samples = [](const Summary &s) {
        return "n=" + std::to_string(s.n) +
               (s.tail_pct < 99.0
                    ? " (only p" + std::to_string(s.tail_pct) + " supported)"
                    : std::string());
    };
    const double ok = static_cast<double>(std::max<std::uint64_t>(cl.ok, 1));
    char limit[64];
    std::snprintf(limit, sizeof(limit), " within %g ms", spec_.ol_limit_ms);
    return {
        {"qps", cl.qps(), "1/s",
         "n=" + std::to_string(cl.ok) + " correct in " +
             std::to_string(cl.wall_s) + " s"},
        {"p50_ms", c.p50 / 1000.0, "ms", "closed loop " + samples(c)},
        {"p99_ms", c.tail / 1000.0, "ms", "closed loop " + samples(c)},
        {"ol_p50_ms", o.p50 / 1000.0, "ms",
         "open loop, from due time, " + samples(o)},
        {"ol_p99_ms", o.tail / 1000.0, "ms",
         "open loop, from due time, " + samples(o)},
        {"ol_slo_pct",
         100.0 * static_cast<double>(ol.within_limit) /
             static_cast<double>(std::max<std::uint64_t>(ol.attempted, 1)),
         "%",
         std::to_string(ol.within_limit) + " of " +
             std::to_string(ol.attempted) + limit},
        {"cpu_ms_per_query", cl.cpu_s * 1000.0 / ok, "ms",
         "process user+sys CPU / " + std::to_string(cl.ok) +
             " closed-loop queries"},
    };
}

/** Per-query attribution sample, one value per layer. */
struct AttrSample
{
    double broker_us = 0.0;
    double unattributed_us = 0.0;
    double plan_us = 0.0;
    double sample_plan_us = 0.0;
    double sample_probe_us = 0.0;  ///< mean per sample probe
    double deep_probe_us = 0.0;    ///< mean per deep probe
    double node_rtt_us = 0.0;      ///< mean per deep probe, in-process
    double handoff_us = 0.0;       ///< node RTT - index time, same probe
    double rpc_rtt_us = 0.0;       ///< mean per deep probe, over the wire
    double wire_us = 0.0;          ///< rpc RTT - node RTT, same probe
    double codec_us = 0.0;         ///< per deep probe
    double merge_us = 0.0;
    double batch_probe_us = 0.0;   ///< per query in the batch
};

std::vector<Metric>
Bench::attribute(Stack &stack, SpanRecorder &spans)
{
    const bool fleet = spec_.shape == Shape::Fleet;
    const auto &cfg = ref_store_->config();
    std::vector<Metric> out;

    // Set-up layers, timed from outside: the partition on its own, then
    // the whole store build, whose remainder is the per-cluster
    // train+add; the mmap open is timed below.
    auto t0 = Clock::now();
    cluster::partition(corpus_.embeddings, cfg.partition);
    const double partition_s = secondsSince(t0);
    t0 = Clock::now();
    core::DistributedStore::build(corpus_.embeddings, config_);
    const double build_s = std::max(0.0, secondsSince(t0) - partition_s);

    // The store the attribution pass probes: the serving store, or for
    // the fleet a second mmap open of the same files (timed).
    std::unique_ptr<core::DistributedStore> mapped_store;
    double open_ms = 0.0;
    if (fleet) {
        std::vector<std::unique_ptr<index::IvfIndex>> indices;
        t0 = Clock::now();
        for (std::size_t c = 0; c < kNumClusters; ++c)
            indices.push_back(index::IvfIndex::openMapped(fleetFile(c)));
        open_ms = secondsSince(t0) * 1000.0 / kNumClusters;
        mapped_store = std::make_unique<core::DistributedStore>(
            core::DistributedStore::assemble(cfg, std::move(indices),
                                             ref_store_->centroids()));
    }
    const core::DistributedStore &store =
        fleet ? *mapped_store : *stack.store;

    // Idle node clients over the same indices, with the workload's node
    // configuration (no injected faults).
    std::vector<std::unique_ptr<serve::LocalNodeClient>> local;
    std::vector<std::unique_ptr<serve::RemoteNodeClient>> remote;
    for (std::size_t c = 0; c < kNumClusters; ++c) {
        serve::NodeConfig nc;
        nc.batch_window_us = spec_.batch_window_us;
        nc.node_id = c;
        local.push_back(std::make_unique<serve::LocalNodeClient>(
            store.clusterIndex(c), nc));
        if (fleet) {
            serve::RemoteNodeOptions ro;
            ro.port = stack.servers[c]->port();
            ro.request_deadline_ms = serve::BrokerConfig{}.node_deadline_ms;
            remote.push_back(std::make_unique<serve::RemoteNodeClient>(ro));
        }
    }

    core::HermesSearch plan(store);
    index::SearchParams sample_params;
    sample_params.nprobe = cfg.sample_nprobe;
    index::SearchParams deep_params;
    deep_params.nprobe = cfg.deep_nprobe;
    auto rtt = [](serve::NodeClient &client, vecstore::VecView q,
                  std::size_t k, const index::SearchParams &p,
                  serve::NodeResponse *response) {
        const auto a = Clock::now();
        auto r = client.submit(q, k, p).get();
        const double us = microsBetween(a, Clock::now());
        if (response)
            *response = std::move(r);
        return us;
    };

    const std::size_t nattr = std::min(kAttributionQueries, spec_.pool);
    // One warm pass over the idle clients so first dials and cold caches
    // stay out of the sample.
    for (std::size_t c = 0; c < kNumClusters; ++c) {
        rtt(*local[c], queries_.embeddings.row(0), kK, deep_params, nullptr);
        if (fleet)
            rtt(*remote[c], queries_.embeddings.row(0), kK, deep_params,
                nullptr);
    }

    std::vector<AttrSample> samples;
    double vectors_scanned = 0.0, bytes_scanned = 0.0;
    double deep_bytes = 0.0, deep_time_us = 0.0;
    for (std::size_t q = 0; q < nattr; ++q) {
        const auto row = queries_.embeddings.row(q);
        AttrSample s;
        const std::uint64_t root = spans.newId(0);
        const auto root_start = Clock::now();

        std::vector<std::uint32_t> deep;
        auto a = Clock::now();
        serveChecked(*stack.broker, q, &deep);
        auto b = Clock::now();
        if (deep.empty())
            continue; // the search threw; already counted as failed
        s.broker_us = microsBetween(a, b);
        spans.record(0, "broker.search", a, b, q, root);

        a = Clock::now();
        auto planned = plan.search(row, kK);
        b = Clock::now();
        s.plan_us = microsBetween(a, b);
        spans.record(0, "core.search", a, b, q, root);
        vectors_scanned += static_cast<double>(planned.total.vectors_scanned);
        bytes_scanned += static_cast<double>(planned.total.bytes_scanned);
        countCheck("core plan, query " + std::to_string(q),
                   perfbench::parityDiff(planned.hits, reference_[q]));

        std::vector<index::SearchStats> sample_stats;
        a = Clock::now();
        plan.rankClustersBySampling(row, sample_stats);
        b = Clock::now();
        s.sample_plan_us = microsBetween(a, b);
        spans.record(0, "core.sample", a, b, q, root);

        // Sample phase: every cluster, index time and node round trip.
        double slowest_sample = 0.0;
        for (std::size_t c = 0; c < kNumClusters; ++c) {
            a = Clock::now();
            store.clusterIndex(c).search(row, cfg.sample_k, sample_params);
            b = Clock::now();
            s.sample_probe_us += microsBetween(a, b) / kNumClusters;
            spans.record(0, "index.sample_probe", a, b, q, root);
            serve::NodeClient &client =
                fleet ? static_cast<serve::NodeClient &>(*remote[c])
                      : static_cast<serve::NodeClient &>(*local[c]);
            a = Clock::now();
            const double us =
                rtt(client, row, cfg.sample_k, sample_params, nullptr);
            spans.record(0, fleet ? "rpc.sample_rtt" : "node.sample_rtt", a,
                         Clock::now(), q, root);
            slowest_sample = std::max(slowest_sample, us);
        }

        // Deep phase: the clusters the broker deep-searched.
        double slowest_deep = 0.0;
        std::vector<vecstore::HitList> partials;
        const double per = 1.0 / static_cast<double>(deep.size());
        for (std::uint32_t c : deep) {
            index::SearchStats stats;
            a = Clock::now();
            partials.push_back(
                store.clusterIndex(c).search(row, kK, deep_params, &stats));
            b = Clock::now();
            const double direct = microsBetween(a, b);
            spans.record(0, "index.deep_probe", a, b, q, root);
            s.deep_probe_us += direct * per;
            deep_time_us += direct;
            deep_bytes += static_cast<double>(stats.bytes_scanned);

            serve::NodeResponse response;
            a = Clock::now();
            const double node_us =
                rtt(*local[c], row, kK, deep_params, &response);
            spans.record(0, "node.deep_rtt", a, Clock::now(), q, root);
            s.node_rtt_us += node_us * per;
            s.handoff_us += (node_us - direct) * per;
            double critical = node_us;
            if (fleet) {
                a = Clock::now();
                const double rpc_us =
                    rtt(*remote[c], row, kK, deep_params, nullptr);
                spans.record(0, "rpc.deep_rtt", a, Clock::now(), q, root);
                s.rpc_rtt_us += rpc_us * per;
                s.wire_us += (rpc_us - node_us) * per;
                critical = rpc_us;

                serve::rpc::SearchRequest request;
                request.k = kK;
                request.params = deep_params;
                request.deadline_ms = serve::BrokerConfig{}.node_deadline_ms;
                request.query.assign(row.begin(), row.end());
                a = Clock::now();
                auto wire_request = serve::rpc::encodeSearchRequest(request);
                auto decoded_request =
                    serve::rpc::decodeSearchRequest(wire_request);
                auto wire_response =
                    serve::rpc::encodeSearchResponse(response);
                auto decoded_response =
                    serve::rpc::decodeSearchResponse(wire_response);
                b = Clock::now();
                s.codec_us += microsBetween(a, b) * per;
                spans.record(0, "rpc.codec", a, b, q, root);
                countCheck("rpc codec, query " + std::to_string(q),
                           decoded_request.query == request.query
                               ? perfbench::parityDiff(decoded_response.hits,
                                                       response.hits)
                               : "request query changed in the codec");
            }
            slowest_deep = std::max(slowest_deep, critical);
        }

        a = Clock::now();
        auto merged = vecstore::mergeHitLists(partials, kK);
        b = Clock::now();
        s.merge_us = microsBetween(a, b);
        spans.record(0, "vecstore.merge", a, b, q, root);
        countCheck("merge, query " + std::to_string(q),
                   perfbench::parityDiff(merged, reference_[q]));

        // nproc co-arriving deep probes on this query's top cluster.
        vecstore::Matrix batch(spec_.dim);
        for (std::size_t j = 0; j < clients_; ++j)
            batch.append(queries_.embeddings.row((q + j) % nattr));
        std::vector<index::SearchStats> batch_stats;
        a = Clock::now();
        store.clusterIndex(deep.front())
            .searchBatch(batch, kK, deep_params, &batch_stats);
        b = Clock::now();
        s.batch_probe_us =
            microsBetween(a, b) / static_cast<double>(clients_);
        spans.record(0, "index.batch_probe", a, b, q, root);

        // The broker's blocking steps: the slowest sample probe, then the
        // slowest deep probe, then the merge. The rest of its time is
        // reported, not dropped.
        s.unattributed_us = perfbench::unattributed(
            s.broker_us, {slowest_sample, slowest_deep, s.merge_us});
        spans.record(0, "attr.query", root_start, Clock::now(), q, 0, root);
        samples.push_back(s);
    }

    auto med = [&](double AttrSample::*field) {
        std::vector<double> v;
        for (const auto &s : samples)
            v.push_back(s.*field);
        return perfbench::median(v);
    };
    const std::string n_attr =
        "median over " + std::to_string(samples.size()) + " queries";
    const double broker_us = med(&AttrSample::broker_us);
    const double deep_probe_us = med(&AttrSample::deep_probe_us);
    const double na = static_cast<double>(std::max<std::size_t>(nattr, 1));

    out.push_back({"broker.search_us", broker_us, "us",
                   "unloaded HermesBroker::search, " + n_attr});
    out.push_back({"broker.unattributed_us",
                   med(&AttrSample::unattributed_us), "us",
                   "search minus slowest sample RTT, slowest deep RTT and "
                   "merge, " + n_attr});
    out.push_back({"node.rtt_us", med(&AttrSample::node_rtt_us), "us",
                   "idle LocalNodeClient deep probe, " + n_attr});
    out.push_back({"node.handoff_us", med(&AttrSample::handoff_us), "us",
                   "node.rtt_us minus the same probe's index time"});
    out.push_back({"core.plan_us", med(&AttrSample::plan_us), "us",
                   "core::HermesSearch::search, " + n_attr});
    out.push_back({"core.sample_us", med(&AttrSample::sample_plan_us), "us",
                   "rankClustersBySampling, " + n_attr});
    out.push_back({"index.sample_probe_us", med(&AttrSample::sample_probe_us),
                   "us", "IvfIndex::search per sample probe, " + n_attr});
    out.push_back({"index.deep_probe_us", deep_probe_us, "us",
                   "IvfIndex::search per deep probe, " + n_attr});
    out.push_back({"index.batch_probe_us", med(&AttrSample::batch_probe_us),
                   "us",
                   "searchBatch of " + std::to_string(clients_) +
                       " deep probes on one cluster, per query"});
    out.push_back({"index.vectors_scanned_per_query", vectors_scanned / na,
                   "count", "SearchStats total / " +
                                std::to_string(nattr) + " queries"});
    out.push_back({"index.bytes_scanned_per_query", bytes_scanned / na,
                   "bytes", "SearchStats total / " +
                                std::to_string(nattr) + " queries"});
    out.push_back({"index.open_ms", open_ms, "ms",
                   fleet ? "IvfIndex::openMapped, mean of 10 clusters"
                         : "n/a: in-process store, no files"});
    out.push_back({"cluster.partition_s", partition_s, "s",
                   "cluster::partition, one call"});
    out.push_back({"index.build_s", build_s, "s",
                   "DistributedStore::build minus cluster.partition_s"});
    out.push_back({"store.mb", static_cast<double>(store.memoryBytes()) / 1e6,
                   "MB", "DistributedStore::memoryBytes"});
    out.push_back({"vecstore.scan_gbps",
                   deep_time_us > 0.0 ? deep_bytes / deep_time_us / 1e3 : 0.0,
                   "GB/s",
                   std::to_string(deep_bytes) + " deep-probe bytes / " +
                       std::to_string(deep_time_us) + " us"});
    out.push_back({"vecstore.merge_us", med(&AttrSample::merge_us), "us",
                   "mergeHitLists of the deep partials, " + n_attr});
    out.push_back({"rpc.rtt_us", fleet ? med(&AttrSample::rpc_rtt_us) : 0.0,
                   "us",
                   fleet ? "idle RemoteNodeClient deep probe, " + n_attr
                         : "n/a: no wire on this workload"});
    out.push_back({"rpc.wire_us", fleet ? med(&AttrSample::wire_us) : 0.0,
                   "us",
                   fleet ? "rpc.rtt_us minus node.rtt_us, same probe"
                         : "n/a: no wire on this workload"});
    out.push_back({"rpc.codec_us", fleet ? med(&AttrSample::codec_us) : 0.0,
                   "us",
                   fleet ? "encode+decode of request and response, per "
                           "deep probe"
                         : "n/a: no wire on this workload"});
    return out;
}

std::vector<Metric>
Bench::untracedRun(Stack &stack, std::vector<double> &setup_s, double rss0)
{
    auto cl = closedLoop(*stack.broker, seconds_ / 2, 1u << 15, nullptr);
    printPhase("closed loop", cl);
    auto ol = openLoop(*stack.broker, seconds_ / 2, 1u << 16, nullptr);
    printPhase("open loop", ol);
    std::vector<Metric> metrics = loadMetrics(cl, ol);
    const double recall = servedRecall(*stack.broker);
    // Release the benchmark's own sample buffers before reading the
    // resident set, so it holds the serving stack and not the samples.
    cl = {};
    ol = {};
    malloc_trim(0);
    const double rss_added = residentBytes() - rss0;
    while (setup_s.size() < spec_.setup_reps) {
        const auto t0 = Clock::now();
        auto extra = standUp(setup_s.size());
        setup_s.push_back(secondsSince(t0));
    }
    metrics.push_back(
        {"recall_at_5", recall, "ratio",
         "served answers vs exact ground truth, n=" +
             std::to_string(ground_truth_.size())});
    metrics.push_back({"setup_s", perfbench::median(setup_s), "s",
                       "median of " + std::to_string(setup_s.size()) +
                           " set-ups"});
    metrics.push_back(
        {"serve_rss_mb", rss_added / 1e6, "MB",
         "resident bytes added from before set-up to after load"});
    return metrics;
}

std::vector<Metric>
Bench::tracedRun(Stack &stack, SpanRecorder &spans)
{
    auto &broker = *stack.broker;
    const auto before = broker.stats();
    const auto remote_before = sumRemoteStats(stack.remotes);
    const auto load_start = Clock::now();
    // Untraced and traced closed-loop slices alternate, so drift in
    // host speed hits both sides of the overhead comparison alike.
    constexpr int kSlicePairs = 6;
    const double slice_s = seconds_ / 4 / kSlicePairs;
    PhaseResult untraced;
    std::vector<double> overhead_pct;
    std::uint64_t traced_ok = 0;
    for (int pair = 0; pair < kSlicePairs; ++pair) {
        auto u = closedLoop(broker, slice_s, (1u << 15) + pair * 4096,
                            nullptr);
        auto t = closedLoop(broker, slice_s, (1u << 15) + pair * 4096,
                            &spans);
        overhead_pct.push_back(100.0 * (u.qps() - t.qps()) /
                               std::max(u.qps(), 1.0));
        traced_ok += t.ok;
        untraced.latency_us.insert(untraced.latency_us.end(),
                                   u.latency_us.begin(), u.latency_us.end());
        untraced.attempted += u.attempted;
        untraced.ok += u.ok;
        untraced.failed += u.failed;
        untraced.wall_s += u.wall_s;
    }
    printPhase("closed loop, untraced", untraced);
    const auto ol =
        openLoop(broker, seconds_ / 2, 1u << 16, &spans);
    printPhase("open loop, traced", ol);
    const double load_s = secondsSince(load_start);
    const auto after = broker.stats();
    const auto remote_after = sumRemoteStats(stack.remotes);
    const auto load = broker.loadReport();
    servedRecall(broker);

    std::vector<Metric> metrics = attribute(stack, spans);
    const double search_us =
        std::find_if(metrics.begin(), metrics.end(), [](const Metric &m) {
            return m.name == "broker.search_us";
        })->value;
    const Summary loaded = perfbench::summarize(untraced.latency_us);

    auto delta = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    const double queries = delta(before.queries, after.queries);
    const double issued = delta(before.hedges_issued, after.hedges_issued);
    const double won = delta(before.hedges_won, after.hedges_won);
    const NodeTotals n0 = nodeTotals(before);
    const NodeTotals n1 = nodeTotals(after);
    const double requests = n1.requests - n0.requests;
    const double batches = n1.batches - n0.batches;
    const bool fleet = spec_.shape == Shape::Fleet;
    const double rpcs =
        delta(remote_before.rpcs_sent, remote_after.rpcs_sent);
    const double frame_requests =
        rpcs - delta(remote_before.batched_rpcs, remote_after.batched_rpcs) +
        delta(remote_before.batched_requests,
              remote_after.batched_requests);
    const double rpc_failures =
        delta(remote_before.transport_failures,
              remote_after.transport_failures) +
        delta(remote_before.remote_errors, remote_after.remote_errors) +
        delta(remote_before.reconnects, remote_after.reconnects);
    const Summary lag = perfbench::summarize(ol.lag_us);

    const std::vector<Metric> load_metrics = {
        {"broker.loaded_wait_us", loaded.p50 - search_us, "us",
          "loaded closed-loop p50 " + std::to_string(loaded.p50) +
              " us minus broker.search_us"},
         {"broker.hedges_per_kq",
          queries > 0 ? 1000.0 * issued / queries : 0.0, "1/kq",
          std::to_string(issued) + " hedges / " +
              std::to_string(queries) + " queries (BrokerStats)"},
         {"broker.hedge_win_pct", issued > 0 ? 100.0 * won / issued : 0.0,
          "%",
          std::to_string(won) + " won / " + std::to_string(issued) +
              " issued"},
         {"broker.timeouts", delta(before.timeouts, after.timeouts),
          "count", "BrokerStats over the load phases"}};
    metrics.insert(metrics.end(), load_metrics.begin(), load_metrics.end());
    metrics.push_back({"node.batch_occupancy",
                       batches > 0 ? requests / batches : 0.0, "ratio",
                       std::to_string(requests) + " requests / " +
                           std::to_string(batches) + " batches"});
    metrics.push_back(
        {"node.busy_pct",
         100.0 * (n1.busy_seconds - n0.busy_seconds) /
             (static_cast<double>(std::max<std::size_t>(n1.nodes, 1)) *
              load_s),
         "%",
         std::to_string(n1.busy_seconds - n0.busy_seconds) +
             " busy s / (" + std::to_string(n1.nodes) + " nodes x " +
             std::to_string(load_s) + " s)"});
    metrics.push_back({"node.max_mean_load", load.max_mean_ratio, "ratio",
                       "LoadReport::max_mean_ratio of deep requests"});
    metrics.push_back(
        {"rpc.requests_per_frame",
         fleet && rpcs > 0 ? frame_requests / rpcs : 0.0, "ratio",
         fleet ? std::to_string(frame_requests) + " requests / " +
                     std::to_string(rpcs) + " RPCs"
               : "n/a: no wire on this workload"});
    metrics.push_back({"rpc.failures", rpc_failures, "count",
                       fleet ? "transport failures + remote errors + "
                               "reconnects over the load phases"
                             : "n/a: no wire on this workload"});
    metrics.push_back({"gen.lag_p99_ms", lag.tail / 1000.0, "ms",
                       "open-loop send lateness, n=" +
                           std::to_string(lag.n)});
    metrics.push_back(
        {"trace.overhead_pct", perfbench::median(overhead_pct), "%",
         "median over " + std::to_string(kSlicePairs) +
             " alternating untraced/traced closed-loop slices (" +
             std::to_string(untraced.ok) + " vs " +
             std::to_string(traced_ok) + " queries)"});
    return metrics;
}

int
Bench::run()
{
    const CpuTimes host0 = readProcStat();
    std::printf("perfbench %s: seed %llu, %.1f s, trace %d, %zu clients\n",
                spec_.name, static_cast<unsigned long long>(seed_),
                seconds_, trace_ ? 1 : 0, clients_);

    auto t0 = Clock::now();
    prepare();
    std::printf("  prepare: %zu docs x %zud, pool %zu queries, hot cluster "
                "%u, %.2f s (untimed)\n",
                spec_.num_docs, spec_.dim, spec_.pool, hot_cluster_,
                secondsSince(t0));

    load_ = std::make_unique<util::ThreadPool>(clients_);
    malloc_trim(0);
    const double rss0 = residentBytes();

    std::vector<double> setup_s;
    t0 = Clock::now();
    auto stack = standUp();
    setup_s.push_back(secondsSince(t0));

    const double warm_s = std::clamp(seconds_ * 0.1, 0.5, 2.0);
    printPhase("warm-up", closedLoop(*stack->broker, warm_s, 0, nullptr));

    std::vector<Metric> metrics;
    std::unique_ptr<SpanRecorder> spans;
    if (!trace_) {
        metrics = untracedRun(*stack, setup_s, rss0);
    } else {
        spans = std::make_unique<SpanRecorder>(clients_);
        metrics = tracedRun(*stack, *spans);
    }

    stack.reset();
    load_.reset();
    if (!fleet_dir_.empty())
        std::filesystem::remove_all(fleet_dir_);

    const double steal = stealPct(host0, readProcStat());
    if (trace_) {
        metrics.push_back({"host.steal_pct", steal, "%",
                           "CPU steal over the run, /proc/stat"});
        std::filesystem::create_directories(work_dir_);
        const std::string path = work_dir_ + "/spans-" + spec_.name + "-" +
                                 std::to_string(seed_) + ".jsonl";
        if (spans->writeJsonLines(path))
            std::printf("  spans: %zu written to %s\n", spans->size(),
                        path.c_str());
    }

    const std::uint64_t attempted = attempted_.load();
    const std::uint64_t failed = failed_.load();
    std::printf("  %-34s %16s  %-6s %s\n", "metric", "value", "unit",
                "samples / base");
    for (const auto &m : metrics)
        std::printf("  %-34s %16.4f  %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("  %-34s %16.4f  %-6s %llu failed of %llu attempted\n",
                "failed_pct",
                100.0 * static_cast<double>(failed) /
                    static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
                "%", static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const auto &d : diffs_)
        std::fprintf(stderr, "perfbench: parity failure: %s\n", d.c_str());

    // A run is noisy by rule when the host stole more than 5% of CPU.
    std::printf("host: {\"nproc\": %u, \"simd\": \"%s\", \"build_type\": "
                "\"%s\", \"steal_pct\": %.3f, \"noisy\": %s}\n",
                std::thread::hardware_concurrency(),
                vecstore::simd::activeIsa(), PERFBENCH_BUILD_TYPE, steal,
                steal > 5.0 ? "true" : "false");

    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json << (i ? ", " : "") << '"' << metrics[i].name
             << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
             << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n"
                 "workloads:");
    for (const auto &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args{
        {"--seed", "1"},
        {"--trace", "0"},
        {"--work-dir", ".bench_build/perfbench-out"}};
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc ||
            (key != "--workload" && key != "--seconds" && !args.count(key))) {
            usage();
            return 2;
        }
        args[key] = argv[++i];
    }
    const WorkloadSpec *spec = nullptr;
    for (const auto &w : kWorkloads)
        if (args.count("--workload") && args["--workload"] == w.name)
            spec = &w;
    char *end = nullptr;
    const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), &end, 10);
    const bool seed_ok = end && *end == '\0';
    const double seconds =
        args.count("--seconds") ? std::strtod(args["--seconds"].c_str(), &end)
                                : 0.0;
    const bool seconds_ok = seconds > 0.0 && end && *end == '\0';
    const std::string trace = args["--trace"];
    if (spec == nullptr || !seed_ok || !seconds_ok ||
        (trace != "0" && trace != "1")) {
        usage();
        return 2;
    }

    util::setQuiet(true);
    try {
        Bench bench(*spec, seed, seconds, trace == "1", args["--work-dir"]);
        return bench.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
