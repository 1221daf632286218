/**
 * @file
 * Ablation: quality-of-service under load.
 *
 * The paper argues TTFT variance hurts production QoS (Takeaway 2). This
 * study subjects the baseline and Hermes deployments to the same Poisson
 * query stream and reports tail latency — Hermes' shorter service times
 * keep the queue stable at arrival rates that drown the monolithic
 * baseline.
 *
 * The second table is live, not simulated: it stands up the threaded
 * broker over a Zipfian-skewed store and sweeps the node micro-batch cap
 * (`--max-batch=1,2,4,...`) at a fixed `--window-us`, reporting the
 * measured batch occupancy (requests per drained batch, same figure as
 * `batch_occupancy` in the /load report) against node throughput and
 * client-side tail latency — the occupancy -> throughput curve that the
 * list-major scan path is built to climb.
 */

#include "bench_common.hpp"

#include <algorithm>
#include <numeric>
#include <thread>

#include "core/search_strategy.hpp"
#include "obs/metrics.hpp"
#include "serve/broker.hpp"
#include "serve/node_client.hpp"
#include "sim/pipeline.hpp"
#include "sim/queue_sim.hpp"
#include "util/argparse.hpp"

namespace {

using namespace hermes;

/** TTFT-style service time model: encode + retrieve + prefill. */
std::function<double(std::size_t)>
serviceModel(sim::RetrievalMode mode, double tokens)
{
    return [mode, tokens](std::size_t batch) {
        sim::PipelineConfig config;
        config.datastore.tokens = tokens;
        config.batch = std::max<std::size_t>(batch, 1);
        config.retrieval = mode;
        return sim::RagPipelineSim(config).run().ttft;
    };
}

double
percentile(std::vector<double> &sorted_us, double pct)
{
    if (sorted_us.empty())
        return 0.0;
    std::sort(sorted_us.begin(), sorted_us.end());
    auto rank = static_cast<std::size_t>(
        pct / 100.0 * static_cast<double>(sorted_us.size() - 1) + 0.5);
    return sorted_us[std::min(rank, sorted_us.size() - 1)];
}

/**
 * Live broker sweep: same Zipfian client load at every micro-batch cap,
 * so the only variable is how many co-arrived requests each node drain
 * may coalesce into one list-major scan.
 */
void
runLiveSweep(const std::vector<std::size_t> &caps, double window_us,
             std::size_t num_docs, std::size_t dim, std::size_t nlist,
             std::size_t clients, std::size_t per_client)
{
    workload::CorpusConfig cc;
    cc.num_docs = num_docs;
    cc.dim = dim;
    cc.num_topics = 30;
    auto corpus = workload::generateCorpus(cc);

    core::HermesConfig config;
    config.num_clusters = 8;
    config.clusters_to_search = 3;
    config.sample_nprobe = 4;
    config.deep_nprobe = 32;
    config.partition.seeds_to_try = 2;
    config.nlist_per_cluster = nlist;
    auto store = core::DistributedStore::build(corpus.embeddings, config);

    workload::QueryConfig qc;
    qc.num_queries = clients * per_client;
    qc.topic_zipf = 1.0;
    auto queries = workload::generateQueries(corpus, qc);

    std::printf("live broker sweep: %zu docs x %zu dims (nlist %zu), "
                "%zu clients x %zu queries, window %.0f us\n\n",
                num_docs, dim, nlist, clients, per_client, window_us);
    util::TablePrinter table({10, 10, 10, 12, 12, 12});
    table.header({"max batch", "occupancy", "QPS", "p50 (us)", "p95 (us)",
                  "p99 (us)"});
    for (std::size_t cap : caps) {
        serve::BrokerConfig broker_config;
        broker_config.node.max_batch = cap;
        // cap 1 is the no-batching baseline; give it window 0 so it is
        // exactly the seed drain loop, not a pointless wait.
        broker_config.node.batch_window_us = cap > 1 ? window_us : 0.0;
        obs::Registry metrics; // each sweep point counts on its own
        serve::HermesBroker broker(store, broker_config, metrics);

        std::vector<std::vector<double>> latency_us(clients);
        util::Timer wall;
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < clients; ++t) {
            threads.emplace_back([&, t] {
                latency_us[t].reserve(per_client);
                for (std::size_t i = 0; i < per_client; ++i) {
                    std::size_t q = t * per_client + i;
                    util::Timer timer;
                    broker.search(queries.embeddings.row(q), 5);
                    latency_us[t].push_back(timer.elapsedSeconds() * 1e6);
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
        double elapsed = wall.elapsedSeconds();

        std::uint64_t requests = 0;
        std::uint64_t batches = 0;
        for (const auto &node : broker.stats().nodes) {
            requests += node.requests;
            batches += node.batches;
        }
        std::vector<double> all_us;
        for (auto &client : latency_us)
            all_us.insert(all_us.end(), client.begin(), client.end());
        double occupancy = batches > 0
            ? static_cast<double>(requests) / static_cast<double>(batches)
            : 0.0;
        table.row({util::TablePrinter::num(static_cast<double>(
                       broker_config.node.max_batch), 0),
                   util::TablePrinter::num(occupancy, 2),
                   util::TablePrinter::num(
                       static_cast<double>(clients * per_client) / elapsed,
                       0),
                   util::TablePrinter::num(percentile(all_us, 50.0), 0),
                   util::TablePrinter::num(percentile(all_us, 95.0), 0),
                   util::TablePrinter::num(percentile(all_us, 99.0), 0)});
    }
    std::printf("\nOccupancy climbs with the cap until the window runs "
                "dry of co-arrived\nrequests; every point of occupancy is "
                "a hot list streamed once instead of\nN times, which is "
                "where the QPS headroom comes from.\n\n");
}

/**
 * Replication/hedging sweep (`--hedge`): same Zipfian client load
 * against three brokers — unreplicated baseline, hot cluster at R=2
 * with power-of-two-choices routing, and R=2 with hedged sample probes
 * on top. The hot cluster is found deterministically by counting deep
 * requests over the query set with the in-process reference search, so
 * every run replicates the same cluster. The point of the table: with
 * the hot cluster's queue split over two replicas, client p99 tracks
 * the median node's latency instead of the hottest node's. To make the
 * effect visible even on a single core (where splitting a CPU-bound
 * queue buys nothing), the hot cluster's primary is additionally
 * degraded with a sleep-based straggler fault; the replica is clean.
 */

/** Straggler injected into the hot cluster's primary for the sweep. */
constexpr double kStragglerProbability = 0.05;
constexpr double kStragglerDelayMs = 25.0;

void
runReplicationSweep(std::size_t num_docs, std::size_t dim,
                    std::size_t nlist, std::size_t clients,
                    std::size_t per_client)
{
    workload::CorpusConfig cc;
    cc.num_docs = num_docs;
    cc.dim = dim;
    cc.num_topics = 30;
    auto corpus = workload::generateCorpus(cc);

    core::HermesConfig config;
    config.num_clusters = 8;
    config.clusters_to_search = 3;
    config.sample_nprobe = 4;
    config.deep_nprobe = 32;
    config.partition.seeds_to_try = 2;
    config.nlist_per_cluster = nlist;
    auto store = core::DistributedStore::build(corpus.embeddings, config);

    workload::QueryConfig qc;
    qc.num_queries = clients * per_client;
    qc.topic_zipf = 1.0;
    auto queries = workload::generateQueries(corpus, qc);

    // Hottest cluster under this exact query set, by deep-request count.
    core::HermesSearch reference(store);
    std::vector<std::uint64_t> deep_counts(config.num_clusters, 0);
    for (std::size_t q = 0; q < queries.embeddings.rows(); ++q) {
        auto result = reference.search(queries.embeddings.row(q), 5);
        for (std::uint32_t c : result.deep_clusters)
            ++deep_counts[c];
    }
    std::uint32_t hot = 0;
    for (std::uint32_t c = 1; c < config.num_clusters; ++c)
        if (deep_counts[c] > deep_counts[hot])
            hot = c;

    std::printf("replication sweep: %zu docs x %zu dims, %zu clients x "
                "%zu queries, hot cluster %u (%llu of %llu deep "
                "requests)\n"
                "hot cluster's primary node is degraded: +%.0f ms on "
                "%.0f%% of its requests\n\n",
                num_docs, dim, clients, per_client, hot,
                static_cast<unsigned long long>(deep_counts[hot]),
                static_cast<unsigned long long>(
                    std::accumulate(deep_counts.begin(), deep_counts.end(),
                                    std::uint64_t{0})),
                kStragglerDelayMs, kStragglerProbability * 100.0);

    struct Sweep
    {
        const char *label;
        bool replicate;
        bool hedge;
    };
    const Sweep sweeps[] = {
        {"R=1 baseline", false, false},
        {"R=2 p2c", true, false},
        {"R=2 p2c+hedge", true, true},
    };

    util::TablePrinter table({14, 10, 12, 12, 12, 14, 12});
    table.header({"deployment", "QPS", "p50 (us)", "p95 (us)", "p99 (us)",
                  "hedges (won)", "max/mean"});
    for (const Sweep &sweep : sweeps) {
        // Every row faces the same degraded fleet: the hot cluster's
        // PRIMARY node stalls on a few percent of its requests (a slow
        // disk, a noisy neighbor — sleeps, so this shows even on one
        // core where queue-splitting cannot). The replica added below
        // is clean; p2c moves half the traffic off the straggler,
        // hedging rescues the probes that still land on it.
        serve::BrokerConfig broker_config;
        broker_config.node_faults.resize(config.num_clusters);
        broker_config.node_faults[hot].delay_probability =
            kStragglerProbability;
        broker_config.node_faults[hot].delay_ms = kStragglerDelayMs;
        broker_config.hedge.enabled = sweep.hedge;
        // Hedging is gated on a finite node deadline (a hedge must fire
        // strictly before it); generous enough to never time a probe out.
        broker_config.node_deadline_ms = 5000.0;
        // A fresh registry per row: the hedge trigger warms up on this
        // row's probes only, not on the rows that ran before it.
        obs::Registry metrics;
        serve::HermesBroker broker(store, broker_config, metrics);
        if (sweep.replicate) {
            serve::NodeConfig clean;
            clean.node_id = broker.numNodes();
            broker.addReplica(hot,
                              std::make_unique<serve::LocalNodeClient>(
                                  store.clusterIndex(hot), clean));
        }

        std::vector<std::vector<double>> latency_us(clients);
        util::Timer wall;
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < clients; ++t) {
            threads.emplace_back([&, t] {
                latency_us[t].reserve(per_client);
                for (std::size_t i = 0; i < per_client; ++i) {
                    std::size_t q = t * per_client + i;
                    util::Timer timer;
                    broker.search(queries.embeddings.row(q), 5);
                    latency_us[t].push_back(timer.elapsedSeconds() * 1e6);
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
        double elapsed = wall.elapsedSeconds();

        auto stats = broker.stats();
        auto load = broker.loadReport();
        std::vector<double> all_us;
        for (auto &client : latency_us)
            all_us.insert(all_us.end(), client.begin(), client.end());
        char hedge_cell[32];
        std::snprintf(hedge_cell, sizeof(hedge_cell), "%llu (%llu)",
                      static_cast<unsigned long long>(stats.hedges_issued),
                      static_cast<unsigned long long>(stats.hedges_won));
        table.row({sweep.label,
                   util::TablePrinter::num(
                       static_cast<double>(clients * per_client) / elapsed,
                       0),
                   util::TablePrinter::num(percentile(all_us, 50.0), 0),
                   util::TablePrinter::num(percentile(all_us, 95.0), 0),
                   util::TablePrinter::num(percentile(all_us, 99.0), 0),
                   hedge_cell,
                   util::TablePrinter::num(load.max_mean_ratio, 2)});
    }
    std::printf("\nReplicating the hot cluster puts a clean, "
                "bit-identical second copy next to the\ndegraded "
                "primary: power-of-two-choices over live queue depth "
                "moves half the\ntraffic off the straggler (p95 "
                "drops), and hedging re-issues the probes that\nstill "
                "land on it once they outlive the windowed p95 of "
                "broker.sample_probe_us\n(p99 drops), for a bounded "
                "duplicate-work budget (the hedges column; results\n"
                "stay bit-identical either way). On a multi-core host "
                "the same mechanisms also\nsplit a purely queue-bound "
                "hot cluster; on one core that component is\n"
                "serialized away and the straggler dominates the "
                "tail.\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    util::setQuiet(true);

    util::ArgParser args("ablation_queue",
                         "serving QoS under load + live micro-batch sweep");
    args.addFlag("max-batch", "1,2,4,8,16,32",
                 "comma-separated micro-batch caps for the live sweep "
                 "(empty = skip)");
    args.addFlag("window-us", "200",
                 "micro-batch window for caps > 1, microseconds");
    args.addFlag("docs", "20000", "corpus size for the live sweep");
    args.addFlag("dim", "384",
                 "embedding width for the live sweep (list-major "
                 "amortization scales with per-row work; tiny dims make "
                 "the cap=1 baseline win)");
    args.addFlag("nlist", "16",
                 "per-node IVF list count for the live sweep (0 = sqrt "
                 "heuristic; fewer, larger lists amortize better)");
    args.addFlag("clients", "24",
                 "concurrent client threads (the cap only coalesces "
                 "requests that co-arrive, so the sweep needs enough "
                 "concurrency to keep node queues non-empty)");
    args.addFlag("queries", "60", "queries per client");
    args.addFlag("hedge", "0",
                 "also run the replication/hedging sweep: R=1 vs R=2 "
                 "power-of-two-choices vs R=2 + hedged sample probes "
                 "over the same Zipfian load");
    args.parse(argc, argv);
    std::vector<std::size_t> caps;
    for (const std::string &cap : args.getList("max-batch")) {
        std::size_t value = 0;
        if (!util::parseInt(cap, value) || value < 1)
            args.fail("flag --max-batch expects integers >= 1, got '" +
                      cap + "'");
        caps.push_back(value);
    }
    bench::banner(
        "Ablation", "Serving QoS: tail TTFT under Poisson load",
        "production systems care about TTFT distribution, not means "
        "(paper Takeaway 2); Hermes' lower retrieval latency keeps p99 "
        "bounded at arrival rates that saturate the monolithic baseline");

    const double tokens = 100e9;

    util::TablePrinter table({14, 14, 12, 12, 12, 12});
    table.header({"deployment", "arrival QPS", "p50 (s)", "p99 (s)",
                  "mean batch", "util"});
    for (double qps : {0.5, 2.0, 8.0}) {
        for (auto mode : {sim::RetrievalMode::Monolithic,
                          sim::RetrievalMode::Hermes}) {
            sim::QueueConfig queue;
            queue.arrival_qps = qps;
            queue.max_batch = 128;
            queue.max_wait = 0.25;
            queue.num_queries = 3000;
            auto result =
                sim::simulateQueue(queue, serviceModel(mode, tokens));
            table.row({mode == sim::RetrievalMode::Monolithic
                           ? "monolithic" : "hermes",
                       util::TablePrinter::num(qps, 1),
                       util::TablePrinter::num(
                           result.latency.percentile(50), 2),
                       util::TablePrinter::num(
                           result.latency.percentile(99), 2),
                       util::TablePrinter::num(result.batch_sizes.mean(),
                                               1),
                       util::TablePrinter::num(result.utilization, 2)});
        }
    }
    std::printf("\nThe monolithic deployment saturates (utilization -> 1, "
                "p99 explodes) at a few\nQPS; Hermes serves the same "
                "stream with a bounded tail — the QoS argument for\n"
                "optimizing TTFT itself rather than only steady-state "
                "throughput.\n\n");

    if (!caps.empty()) {
        runLiveSweep(caps, args.getDouble("window-us"),
                     static_cast<std::size_t>(args.getInt("docs")),
                     static_cast<std::size_t>(args.getInt("dim")),
                     static_cast<std::size_t>(args.getInt("nlist")),
                     static_cast<std::size_t>(args.getInt("clients")),
                     static_cast<std::size_t>(args.getInt("queries")));
    }
    if (args.getBool("hedge")) {
        runReplicationSweep(
            static_cast<std::size_t>(args.getInt("docs")),
            static_cast<std::size_t>(args.getInt("dim")),
            static_cast<std::size_t>(args.getInt("nlist")),
            static_cast<std::size_t>(args.getInt("clients")),
            static_cast<std::size_t>(args.getInt("queries")));
    }
    return 0;
}
