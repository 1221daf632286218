/**
 * @file
 * Online serving demo: stands up the threaded Hermes broker (one worker
 * per cluster node), drives it with concurrent client threads, and prints
 * per-node load — the deployment shape of Fig 9 in miniature.
 *
 * Usage: serving_demo [--flag=value ...]; --help lists the flags.
 *
 * --index-dir=DIR loads the store from a hermes_build_index deployment
 * manifest instead of partitioning and training at startup — the
 * "build once, serve many" path. Cluster indices are opened as
 * zero-copy mmap views (--index-heap=1 copies them to heap instead),
 * so a restart is ready in milliseconds regardless of store size. The
 * embedding dim and cluster count come from the manifest; the corpus
 * is still synthesized (with the manifest's dim) for query synthesis,
 * so build the deployment from the same corpus flags for meaningful
 * recall. Incompatible with --remote-nodes, which builds no store.
 *
 * --remote-nodes switches the broker to the out-of-process fleet: one
 * RemoteNodeClient per listed hermes_shard endpoint (in cluster order)
 * instead of in-process worker nodes. The demo then builds no store of
 * its own — only the corpus for query synthesis — and num_clusters
 * becomes the endpoint count, so launch the shards with a matching
 * --clusters (and matching corpus flags). The fault-injection flags
 * are ignored in this mode; inject faults on the shard processes
 * instead. On an identical fleet the merged results are bit-identical
 * to the in-process run.
 *
 * Replication and skew-aware routing: each endpoint may carry an
 * explicit cluster assignment, `host:port@cluster` (all endpoints or
 * none) — listing two endpoints with the same cluster makes them
 * replicas of that cluster, served by bit-identical hermes_shard
 * processes (same corpus flags + --cluster, see hermes_shard
 * --replica). In-process, --replicate=c:r,... spins up r worker nodes
 * over cluster c's shard index, and --auto-replicate=N lets the broker
 * add up to N replicas itself from its live load report
 * (--auto-replicate-after delays the decision until the Zipf fit has
 * data; default 2 s). Replicated clusters are routed by
 * power-of-two-choices over live queue depth, and straggling sample
 * probes are hedged to a second replica (--hedge=0 disables) — the
 * run summary prints the hedge counters, and any query returning
 * fewer than the requested top-k is counted as "short". Hedging (and
 * the per-node retry ladder) needs a finite node deadline:
 * --deadline-ms sets it explicitly (it is otherwise 0 = infinite
 * unless --drop-prob implies one), and for remote fleets it also
 * becomes each RPC's request deadline.
 *
 * --batch-window-us opts the nodes into micro-batching: concurrent
 * clients' requests landing on the same node within the window are
 * coalesced into one list-major shard scan (compare QPS and the
 * per-node batch_occupancy in the /load report against a window=0 run).
 * The amortization pays off in proportion to per-row scan work, so use
 * --dim to run at a realistic embedding width (the default 32 keeps the
 * demo fast but makes scans so cheap that the window's added queueing
 * outweighs the shared list streaming). --nlist overrides the per-node
 * IVF list count (0 = sqrt heuristic); fewer, larger lists give each
 * batched list visit more rows to amortize over.
 *
 * --perf=1 turns on hardware-grounded observability: per-phase
 * perf_event counter groups (IPC, cache miss rates) and RAPL energy
 * sampling, surfaced through the /perf endpoint and the perf.* metric
 * family. When the kernel denies access (perf_event_paranoid,
 * missing powercap) the run degrades gracefully — counters report
 * unavailable and the output is bit-identical to a --perf=0 run.
 *
 * --http-port starts the embedded metrics endpoint (0 = ephemeral; the
 * bound port is printed) serving /metrics, /metrics.json and the
 * broker's /load while the demo runs. --duration switches the clients
 * from a fixed query count to a wall-clock run (queries are reused
 * round-robin), which keeps the endpoint alive long enough to watch
 * with hermes_monitor or scrape from CI. --metrics-interval re-writes
 * the --metrics-json/--metrics-prom files periodically during the run.
 *
 * --fail-prob, --drop-prob and --delay-ms inject per-request failures,
 * drops (dead node: the broker's deadline fires) and delays into every
 * node, showing the broker's graceful degradation: queries still return
 * top-k from the surviving nodes, and the timeout/failure/degraded
 * counters account for what was lost.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hermes/hermes.hpp"
#include "util/argparse.hpp"

int
main(int argc, char **argv)
{
    using namespace hermes;
    util::setQuiet(true);

    util::ArgParser args("serving_demo",
                         "threaded Hermes broker under concurrent "
                         "Zipfian clients");
    args.addFlag("num-docs", "20000", "synthetic corpus size");
    args.addFlag("clients", "4", "concurrent client threads");
    args.addFlag("queries-per-client", "64", "queries each client sends");
    args.addFlag("fail-prob", "0", "per-request failure probability");
    args.addFlag("drop-prob", "0",
                 "per-request drop probability (dead node)");
    args.addFlag("delay-ms", "0",
                 "injected delay on 20% of requests (ms)");
    args.addFlag("dim", "32", "embedding dimensionality");
    args.addFlag("nlist", "0", "inverted lists per node (0 = sqrt(n))");
    args.addFlag("batch-window-us", "0",
                 "micro-batching window per node (us)");
    args.addFlag("max-batch", "0", "requests per batch (0 = node default)");
    args.addFlag("remote-nodes", "",
                 "comma-separated hermes_shard endpoints "
                 "host:port[@cluster]");
    args.addFlag("replicate", "", "in-process replicas, c:r,c:r,...");
    args.addFlag("auto-replicate", "0",
                 "replicas the broker may add from its load report");
    args.addFlag("auto-replicate-after", "2",
                 "seconds before the auto-replicate decision");
    args.addFlag("hedge", "1", "hedge straggling sample probes");
    args.addFlag("deadline-ms", "0", "node deadline (0 = infinite)");
    args.addFlag("index-dir", "",
                 "serve a hermes_build_index deployment");
    args.addFlag("index-heap", "0",
                 "with --index-dir, copy indices to heap instead of mmap");
    args.addFlag("http-port", "-1",
                 "metrics endpoint port (0 = ephemeral, -1 = off)");
    args.addFlag("duration", "0",
                 "run the clients for this many seconds instead of a "
                 "fixed query count");
    args.addFlag("metrics-json", "", "write the metrics registry as JSON");
    args.addFlag("metrics-prom", "", "write Prometheus metrics text");
    args.addFlag("metrics-interval", "0",
                 "re-write the metrics files every N seconds");
    args.addFlag("trace-out", "", "write a Chrome trace-event JSON");
    args.addFlag("trace-sample", "1", "trace one in N queries");
    args.addFlag("perf", "0", "per-phase perf counters and RAPL energy");
    args.parse(argc, argv);

    const auto num_docs = args.getInt<std::size_t>("num-docs", 1);
    const auto clients = args.getInt<std::size_t>("clients", 1);
    const auto per_client =
        args.getInt<std::size_t>("queries-per-client", 1);
    const double drop_prob = args.getDouble("drop-prob", 0.0, 1.0);
    const double delay_ms = args.getDouble("delay-ms", 0.0);
    auto dim = args.getInt<std::size_t>("dim", 1);
    const auto nlist = args.getInt<std::size_t>("nlist");
    const std::string replicate = args.get("replicate");
    const auto auto_replicate = args.getInt<std::size_t>("auto-replicate");
    const double auto_replicate_after =
        args.getDouble("auto-replicate-after", 0.0);
    const std::string index_dir = args.get("index-dir");
    const bool index_heap = args.getBool("index-heap");
    const int http_port = args.getInt<int>("http-port", -1, 65535);
    const double duration = args.getDouble("duration", 0.0);
    const std::string metrics_json = args.get("metrics-json");
    const std::string metrics_prom = args.get("metrics-prom");
    const double metrics_interval = args.getDouble("metrics-interval", 0.0);
    const std::string trace_out = args.get("trace-out");
    const auto trace_sample = args.getInt<std::size_t>("trace-sample", 1);

    // Remote fleet: one endpoint per node, optionally tagged with its
    // cluster, "host:port@cluster". Listing several endpoints with the
    // same cluster makes them replicas. All endpoints carry a tag or
    // none do (then endpoint i serves cluster i).
    std::vector<serve::RemoteNodeOptions> remotes;
    std::vector<std::uint32_t> endpoint_clusters;
    std::size_t tagged = 0;
    const std::vector<std::string> specs = args.getList("remote-nodes");
    for (std::string spec : specs) {
        std::uint32_t cluster =
            static_cast<std::uint32_t>(endpoint_clusters.size());
        std::size_t at = spec.rfind('@');
        if (at != std::string::npos) {
            if (!util::parseInt(std::string_view(spec).substr(at + 1),
                                cluster) ||
                cluster >= specs.size())
                args.fail("--remote-nodes: bad cluster tag in '" + spec +
                          "'");
            spec.resize(at);
            ++tagged;
        }
        serve::RemoteNodeOptions ro;
        if (!serve::parseEndpoint(spec, ro.host, ro.port))
            args.fail("--remote-nodes: bad endpoint '" + spec + "'");
        remotes.push_back(std::move(ro));
        endpoint_clusters.push_back(cluster);
    }
    if (tagged != 0 && tagged != remotes.size())
        args.fail("either every --remote-nodes endpoint carries @cluster "
                  "or none do");
    if (!index_dir.empty() && !remotes.empty())
        args.fail("--index-dir and --remote-nodes are mutually exclusive "
                  "(remote fleets load their own index files)");

    serve::BrokerConfig broker_config;
    broker_config.node.batch_window_us =
        args.getDouble("batch-window-us", 0.0);
    if (const auto max_batch = args.getInt<std::size_t>("max-batch"))
        broker_config.node.max_batch = max_batch;
    broker_config.node.faults.fail_probability =
        args.getDouble("fail-prob", 0.0, 1.0);
    broker_config.node.faults.drop_probability = drop_prob;
    broker_config.node.faults.delay_probability = delay_ms > 0.0 ? 0.2 : 0.0;
    broker_config.node.faults.delay_ms = delay_ms;
    if (drop_prob > 0.0)
        broker_config.node_deadline_ms = 250.0; // make dead nodes cheap
    if (const double deadline_ms = args.getDouble("deadline-ms", 0.0))
        broker_config.node_deadline_ms = deadline_ms;
    broker_config.hedge.enabled = args.getBool("hedge");
    if (!replicate.empty() &&
        !serve::ReplicaMap::parseSpec(replicate, broker_config.replicate))
        args.fail("bad --replicate spec (want c:r,c:r,...): " + replicate);
    if (tagged > 0) {
        serve::ReplicaMap map;
        for (std::size_t i = 0; i < remotes.size(); ++i)
            map.assign(endpoint_clusters[i], static_cast<std::uint32_t>(i));
        if (!map.complete())
            args.fail("--remote-nodes cluster tags must cover every "
                      "cluster from 0 up to the highest tag");
        broker_config.replica_map = std::move(map);
    }

    if (args.getBool("perf"))
        obs::setPerfEnabled(true);

    if (!trace_out.empty())
        obs::TraceRecorder::instance().start(trace_sample);

    // A deployment manifest pins the store geometry; the corpus below
    // is then only synthesized for query generation and must match the
    // manifest's embedding dim.
    std::optional<core::Manifest> manifest;
    if (!index_dir.empty()) {
        manifest = core::loadOrFatal(
            [&] { return core::Manifest::load(index_dir); });
        dim = manifest->dim;
    }

    // Build the corpus (and, when serving in-process, the store).
    workload::CorpusConfig cc;
    cc.num_docs = num_docs;
    cc.dim = dim;
    cc.num_topics = core::kDemoTopics;
    auto corpus = workload::generateCorpus(cc);

    std::size_t remote_clusters = 0;
    for (std::uint32_t c : endpoint_clusters)
        remote_clusters = std::max<std::size_t>(remote_clusters, c + 1);

    core::HermesConfig config = core::demoStoreConfig(
        manifest ? manifest->num_clusters
                 : (remotes.empty() ? 10 : remote_clusters),
        nlist);
    std::optional<core::DistributedStore> store;
    util::Timer store_timer;
    if (manifest) {
        store = core::loadOrFatal([&] {
            return core::loadStore(index_dir, *manifest, config,
                                   index_heap
                                       ? core::StoreLoadMode::kHeap
                                       : core::StoreLoadMode::kMapped);
        });
        config = store->config();
        std::printf("loaded %zu %s indices from %s in %.1f ms (%s)\n",
                    store->numClusters(), store->config().codec.c_str(),
                    index_dir.c_str(),
                    store_timer.elapsedSeconds() * 1e3,
                    index_heap ? "heap copies" : "zero-copy mmap");
    } else if (remotes.empty()) {
        store = core::DistributedStore::build(corpus.embeddings, config);
    }

    workload::QueryConfig qc;
    qc.num_queries = clients * per_client;
    qc.topic_zipf = 1.0;
    auto queries = workload::generateQueries(corpus, qc);

    // Per-node shard sizes for the load table: from the store when
    // in-process, from each shard's Health RPC when remote.
    std::vector<std::size_t> shard_sizes(config.num_clusters, 0);
    std::unique_ptr<serve::HermesBroker> broker;
    if (remotes.empty()) {
        for (std::size_t c = 0; c < config.num_clusters; ++c)
            shard_sizes[c] = store->clusterSize(c);
        broker = std::make_unique<serve::HermesBroker>(*store,
                                                       broker_config);
    } else {
        std::vector<std::unique_ptr<serve::NodeClient>> nodes;
        for (std::size_t c = 0; c < remotes.size(); ++c) {
            serve::RemoteNodeOptions ro = remotes[c];
            const std::string endpoint =
                ro.host + ":" + std::to_string(ro.port);
            ro.request_deadline_ms = broker_config.node_deadline_ms;
            auto client =
                std::make_unique<serve::RemoteNodeClient>(std::move(ro));
            // Wait briefly for the shard to answer health — fleets come
            // up process by process — then fail loudly on a dim
            // mismatch, which would otherwise surface as per-query
            // BadRequest noise.
            serve::rpc::HealthResponse health;
            bool up = false;
            for (int attempt = 0; attempt < 20 && !up; ++attempt) {
                up = client->health(&health);
                if (!up)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(250));
            }
            if (!up) {
                std::fprintf(stderr, "shard %s unreachable\n",
                             endpoint.c_str());
                return 1;
            }
            if (health.dim != dim) {
                std::fprintf(stderr,
                             "shard %s serves dim %llu, demo runs dim "
                             "%zu — corpus flags must match\n",
                             endpoint.c_str(),
                             static_cast<unsigned long long>(health.dim),
                             dim);
                return 1;
            }
            shard_sizes[endpoint_clusters[c]] =
                static_cast<std::size_t>(health.shard_vectors);
            nodes.push_back(std::move(client));
        }
        broker = std::make_unique<serve::HermesBroker>(
            config, std::move(nodes), broker_config);
    }

    std::size_t total_vectors = 0;
    for (std::size_t n : shard_sizes)
        total_vectors += n;
    const char *node_kind = remotes.empty() ? "node workers"
                                              : "remote shards";
    if (duration > 0.0) {
        std::printf("serving %zu vectors over %zu %s; %zu "
                    "clients for %.1f s\n", total_vectors,
                    broker->numNodes(), node_kind, clients, duration);
    } else {
        std::printf("serving %zu vectors over %zu %s; %zu "
                    "clients x %zu queries\n", total_vectors,
                    broker->numNodes(), node_kind, clients, per_client);
    }

    // Embedded observability: HTTP endpoint + periodic file flushes,
    // both alive for the whole serving run. Declared after the broker
    // so they stop before it (the /load handler dereferences it).
    std::unique_ptr<obs::Exporter> exporter;
    if (http_port >= 0) {
        obs::Exporter::Options options;
        options.port = static_cast<std::uint16_t>(http_port);
        exporter = std::make_unique<obs::Exporter>(options);
        exporter->setHandler("/load", [&broker] {
            return broker->loadReport().toJson();
        });
        if (exporter->start()) {
            std::printf("metrics endpoint: http://127.0.0.1:%u  "
                        "(/metrics, /metrics.json, /load)\n",
                        exporter->port());
            // Pollers wait on this line; with stdout redirected to a
            // file it would otherwise sit in the stdio buffer until exit.
            std::fflush(stdout);
        }
    }
    std::unique_ptr<obs::PeriodicFlusher> flusher;
    if (metrics_interval > 0.0 &&
        (!metrics_json.empty() || !metrics_prom.empty())) {
        flusher = std::make_unique<obs::PeriodicFlusher>(
            metrics_json, metrics_prom, metrics_interval);
    }

    // Dynamic replication: let the broker act on its own load report
    // once the Zipf fit has seen real traffic (in-process only; a
    // node-list broker has no shard index to clone).
    std::thread replicator;
    if (auto_replicate > 0 && remotes.empty()) {
        replicator = std::thread(
            [&broker, auto_replicate, auto_replicate_after] {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(auto_replicate_after));
                serve::ReplicationPolicy policy;
                policy.max_total_extras = auto_replicate;
                std::size_t added = broker->autoReplicate(policy);
                std::printf("auto-replicate: added %zu replicas\n",
                            added);
                std::fflush(stdout);
            });
    }

    const std::size_t top_k = 5;
    std::atomic<std::uint64_t> short_queries{0};
    util::Timer wall;
    std::vector<std::thread> threads;
    std::vector<double> client_seconds(clients, 0.0);
    for (std::size_t t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
            util::Timer timer;
            if (duration > 0.0) {
                // Wall-clock mode: reuse the query set round-robin so
                // the Zipfian skew persists for the whole window.
                std::size_t sent = 0;
                while (timer.elapsedSeconds() < duration) {
                    std::size_t q = (t * per_client + sent) %
                        queries.embeddings.rows();
                    auto hits =
                        broker->search(queries.embeddings.row(q), top_k);
                    if (hits.size() < top_k)
                        short_queries.fetch_add(1);
                    ++sent;
                }
            } else {
                for (std::size_t i = 0; i < per_client; ++i) {
                    std::size_t q = t * per_client + i;
                    auto hits =
                        broker->search(queries.embeddings.row(q), top_k);
                    if (hits.size() < top_k)
                        short_queries.fetch_add(1);
                }
            }
            client_seconds[t] = timer.elapsedSeconds();
        });
    }
    for (auto &thread : threads)
        thread.join();
    if (replicator.joinable())
        replicator.join();
    double elapsed = wall.elapsedSeconds();

    auto stats = broker->stats();
    std::printf("\nserved %llu queries in %.3f s => %.0f QPS aggregate\n",
                static_cast<unsigned long long>(stats.queries), elapsed,
                static_cast<double>(stats.queries) / elapsed);
    std::printf("deep requests: %llu (%.2f clusters/query)\n",
                static_cast<unsigned long long>(stats.deep_requests),
                static_cast<double>(stats.deep_requests) /
                    static_cast<double>(stats.queries));
    std::printf("faults: %llu timeouts, %llu failures, %llu degraded "
                "queries\n",
                static_cast<unsigned long long>(stats.timeouts),
                static_cast<unsigned long long>(stats.failures),
                static_cast<unsigned long long>(stats.degraded_queries));
    std::printf("hedges: %llu issued, %llu won, %llu wasted\n",
                static_cast<unsigned long long>(stats.hedges_issued),
                static_cast<unsigned long long>(stats.hedges_won),
                static_cast<unsigned long long>(stats.hedges_wasted));
    std::printf("short queries: %llu\n\n",
                static_cast<unsigned long long>(short_queries.load()));

    const struct {
        const char *label;
        const obs::LatencySummary &summary;
    } phases[] = {
        {"query latency", stats.query_latency},
        {"sample phase", stats.sample_phase},
        {"deep phase", stats.deep_phase},
        {"merge phase", stats.merge_phase},
    };
    std::printf("%-14s %10s %10s %10s %10s\n", "phase", "p50 (us)",
                "p95 (us)", "p99 (us)", "max (us)");
    for (const auto &phase : phases) {
        if (phase.summary.count == 0)
            continue;
        std::printf("%-14s %10.1f %10.1f %10.1f %10.1f\n", phase.label,
                    phase.summary.p50_us, phase.summary.p95_us,
                    phase.summary.p99_us, phase.summary.max_us);
    }
    std::printf("\n");

    std::printf("%-6s %-8s %-10s %-10s %-10s %-6s %-12s\n", "node",
                "cluster", "shard", "reqs", "batches", "occ",
                "busy (ms)");
    for (std::size_t i = 0; i < stats.nodes.size(); ++i) {
        const auto &node = stats.nodes[i];
        std::uint32_t cluster = i < stats.node_clusters.size()
            ? stats.node_clusters[i]
            : static_cast<std::uint32_t>(i);
        double occ = node.batches > 0
            ? static_cast<double>(node.requests) /
                static_cast<double>(node.batches)
            : 0.0;
        std::printf("%-6zu %-8u %-10zu %-10llu %-10llu %-6.2f %-12.1f\n",
                    i, cluster, shard_sizes[cluster],
                    static_cast<unsigned long long>(node.requests),
                    static_cast<unsigned long long>(node.batches), occ,
                    node.busy_seconds * 1e3);
    }
    std::printf("\nZipf-popular topics load their home nodes harder — the "
                "access imbalance of\nFig 13, live. Compare 'reqs' across "
                "nodes: sampling adds a uniform floor of one\nrequest per "
                "query per node; the surplus is deep-search skew.\n");

    // Fleet summary from the same LoadReport the /load endpoint serves.
    auto load = broker->loadReport();
    std::printf("\nload report: max/mean deep load %.2f, fitted zipf "
                "~%.2f, modeled energy %.1f J (%.2f J/query)\n",
                load.max_mean_ratio, load.zipf_exponent,
                load.total_energy_joules,
                load.queries ? load.total_energy_joules /
                        static_cast<double>(load.queries)
                             : 0.0);
    // Hardware-grounded lines print only when the measurement actually
    // succeeded, so a --perf=1 run with counters/powercap denied stays
    // bit-identical to --perf=0.
    if (load.measured_energy_valid) {
        std::printf("measured energy: %.1f J package, %.1f J dram "
                    "(measured/modeled %.2f)\n",
                    load.measured_package_joules,
                    load.measured_dram_joules,
                    load.energy_model_error_ratio);
    }
    if (obs::perfCountersAvailable()) {
        std::printf("perf counters: per-phase IPC and miss rates live "
                    "in perf.* metrics and at /perf\n");
    }

    flusher.reset(); // final flush before the one-shot writes below
    if (!metrics_json.empty()) {
        obs::Registry::instance().writeJson(metrics_json);
        std::printf("\nmetrics written to %s\n", metrics_json.c_str());
    }
    if (!metrics_prom.empty()) {
        obs::Registry::instance().writePrometheus(metrics_prom);
        std::printf("prometheus metrics written to %s\n",
                    metrics_prom.c_str());
    }
    if (!trace_out.empty()) {
        auto &recorder = obs::TraceRecorder::instance();
        recorder.stop();
        // The "process" tag labels this dump as the broker side for
        // hermes_trace_merge (its rpc.clock_sync instants align the
        // shard dumps onto this clock).
        recorder.writeChromeTrace(trace_out, {{"process", "broker", false}});
        std::printf("trace (%zu spans) written to %s\n",
                    recorder.spanCount(), trace_out.c_str());
    }
    return 0;
}
