/**
 * @file
 * Shard-per-process serving: builds one cluster of the deterministic
 * demo store and serves it over the framed RPC protocol (ShardServer).
 *
 * A fleet is N of these plus a broker wired with --remote-nodes (see
 * serving_demo): every process regenerates the same corpus from the
 * same seed and partitions it with the same config, then keeps only its
 * --cluster slice — so the fleet's union is bit-identical to the
 * in-process store without any index files changing hands. Corpus and
 * partition flags must therefore match across the fleet and the broker.
 *
 * The same determinism makes replication free: two hermes_shard
 * processes with identical corpus flags and the same --cluster serve
 * bit-identical shards, so a broker may list both as replicas of that
 * cluster (serving_demo --remote-nodes=...@cluster) and route/hedge
 * between them without any result drift. --replica=N is a purely
 * cosmetic ordinal that distinguishes the copies in logs, the ready
 * line and /shard.
 *
 * Usage: hermes_shard --cluster=N [--flag=value ...]; --help lists the
 * flags.
 *
 * --index-file=PATH skips the in-process corpus + partition build and
 * serves a pre-built v3 index file instead: the file is opened as a
 * zero-copy mmap view (millisecond cold starts — the "build once,
 * serve many" path; see hermes_build_index). --index-heap=1 copies the
 * file into heap storage instead, --prefault=1 touches every mapped
 * page up front so first-query latency never pays demand faults. The
 * corpus/partition flags are ignored in this mode; --cluster only
 * labels the ready line, /shard and traces.
 *
 * Prints one machine-parseable line once serving:
 *   hermes_shard ready cluster=<c> vectors=<n> port=<p>
 * (with " replica=<r>" appended when --replica is nonzero — new fields
 * only ever append so existing launchers keep matching), then runs
 * until SIGTERM/SIGINT. --http-port adds the obs exporter
 * (/healthz for liveness probes, /metrics, /trace.json with the shard's
 * span dump tagged by cluster, plus /shard with the node's counters),
 * so a supervisor can watch recovery after a restart. --perf=1 (or
 * HERMES_PERF=1) arms the perf_event/RAPL samplers; the exporter's
 * /perf route reports per-phase scan counters and measured energy.
 *
 * Tracing: --trace-sample=N (or HERMES_TRACE_SAMPLE) enables the span
 * recorder before the server starts, so remote trace contexts adopted
 * from a v2 broker are recorded from the first request. --trace-out
 * (or HERMES_TRACE_OUT) writes the dump — tagged with this shard's
 * cluster id so hermes_trace_merge can clock-align it — on the
 * SIGINT/SIGTERM drain path; --metrics-json (or HERMES_METRICS_JSON)
 * does the same for the registry.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hermes/hermes.hpp"
#include "util/argparse.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hermes;
    util::setQuiet(true);

    util::ArgParser args("hermes_shard",
                         "serve one cluster of the demo store over RPC");
    args.addFlag("cluster", "", "cluster this shard serves (required)");
    args.addFlag("replica", "0", "replica ordinal, for labels only");
    args.addFlag("port", "0", "RPC port (0 = ephemeral)");
    args.addFlag("bind", "127.0.0.1", "bind address");
    args.addFlag("index-file", "", "serve this pre-built v3 index file");
    args.addFlag("index-heap", "0",
                 "with --index-file, copy to heap instead of mmap");
    args.addFlag("prefault", "0",
                 "with --index-file, touch every mapped page up front");
    args.addFlag("num-docs", "20000", "synthetic corpus size");
    args.addFlag("dim", "32", "embedding dimensionality");
    args.addFlag("topics", std::to_string(core::kDemoTopics),
                 "latent topics in the corpus");
    args.addFlag("clusters", "10", "clusters in the fleet");
    args.addFlag("nlist", "0", "inverted lists per cluster (0 = sqrt(n))");
    args.addFlag("batch-window-us", "0", "micro-batching window (us)");
    args.addFlag("max-batch", "0", "requests per batch (0 = node default)");
    args.addFlag("fail-prob", "0", "per-request failure probability");
    args.addFlag("drop-prob", "0", "per-request drop probability");
    args.addFlag("delay-ms", "0", "injected delay on 20% of requests (ms)");
    args.addFlag("http-port", "-1",
                 "metrics endpoint port (0 = ephemeral, -1 = off)");
    args.addFlag("trace-out", "",
                 "write the span dump here on SIGINT/SIGTERM "
                 "(or HERMES_TRACE_OUT)");
    args.addFlag("trace-sample", "0",
                 "record spans, one in N local traces "
                 "(0 = HERMES_TRACE_SAMPLE or off)");
    args.addFlag("metrics-json", "",
                 "write the metrics registry here on SIGINT/SIGTERM "
                 "(or HERMES_METRICS_JSON)");
    args.addFlag("perf", "0", "per-phase perf counters and RAPL energy");
    args.parse(argc, argv);

    const std::string index_file = args.get("index-file");
    const bool index_heap = args.getBool("index-heap");
    index::IvfIndex::MmapOptions mopts;
    mopts.prefault = args.getBool("prefault");
    const auto clusters = args.getInt<std::size_t>("clusters", 1);
    if (!args.given("cluster"))
        args.fail("--cluster is required");
    // With --index-file the cluster id only labels the shard.
    const auto cluster = args.getInt<std::size_t>(
        "cluster", 0,
        index_file.empty() ? clusters - 1
                           : std::numeric_limits<std::uint32_t>::max());
    const auto replica = args.getInt<std::size_t>("replica");
    const int http_port = args.getInt<int>("http-port", -1, 65535);
    std::string trace_out = args.get("trace-out");
    auto trace_sample = args.getInt<std::size_t>("trace-sample");
    std::string metrics_json = args.get("metrics-json");

    workload::CorpusConfig cc;
    cc.num_docs = args.getInt<std::size_t>("num-docs", 1);
    cc.dim = args.getInt<std::size_t>("dim", 1);
    cc.num_topics = args.getInt<std::size_t>("topics", 1);
    const auto nlist = args.getInt<std::size_t>("nlist");

    serve::ShardServerOptions options;
    options.bind_address = args.get("bind");
    options.port = args.getInt<std::uint16_t>("port");
    options.node.node_id = cluster;
    options.node.batch_window_us = args.getDouble("batch-window-us", 0.0);
    if (const auto max_batch = args.getInt<std::size_t>("max-batch"))
        options.node.max_batch = max_batch;
    options.node.faults.fail_probability =
        args.getDouble("fail-prob", 0.0, 1.0);
    options.node.faults.drop_probability =
        args.getDouble("drop-prob", 0.0, 1.0);
    options.node.faults.delay_ms = args.getDouble("delay-ms", 0.0);
    options.node.faults.delay_probability =
        options.node.faults.delay_ms > 0.0 ? 0.2 : 0.0;

    // Flags win; env vars fill the gaps so a supervisor can arm capture
    // fleet-wide without touching each shard's command line.
    if (trace_out.empty()) {
        if (const char *env = std::getenv("HERMES_TRACE_OUT"))
            trace_out = env;
    }
    if (metrics_json.empty()) {
        if (const char *env = std::getenv("HERMES_METRICS_JSON"))
            metrics_json = env;
    }
    if (trace_sample == 0) {
        const char *env = std::getenv("HERMES_TRACE_SAMPLE");
        if (env != nullptr && !util::parseInt(env, trace_sample))
            args.fail(std::string("HERMES_TRACE_SAMPLE expects a "
                                  "non-negative integer, got '") +
                      env + "'");
    }
    if (args.getBool("perf"))
        obs::setPerfEnabled(true); // HERMES_PERF=1 works without the flag
    // Start the recorder before the server: adopted remote contexts are
    // gated on the shard's own recorder, so spans must be recordable by
    // the time the first RPC lands. Shard-side "sampling" is decided by
    // the broker (it only propagates contexts for queries it sampled);
    // the local sample rate only affects locally-initiated traces.
    if (!trace_out.empty() || trace_sample > 0)
        obs::TraceRecorder::instance().start(std::max<std::size_t>(
            trace_sample, 1));
    // Dump metadata lets hermes_trace_merge label this process and match
    // it to the broker's rpc.clock_sync record for its node id.
    const std::vector<obs::TraceArg> trace_metadata = {
        {"process", "hermes_shard", false},
        {"cluster", std::to_string(cluster), true},
    };

    std::optional<core::DistributedStore> store;
    std::unique_ptr<index::IvfIndex> loaded;
    const index::AnnIndex *shard = nullptr;
    if (!index_file.empty()) {
        // Cold-start path: serve a pre-built v3 index file. The mmap
        // open touches only the 256-byte header plus the tiny centroid
        // section, so restart-to-ready is milliseconds regardless of
        // shard size; scan kernels then run directly on mapped bytes.
        loaded = core::loadOrFatal([&] {
            return index_heap
                       ? index::IvfIndex::load(index_file)
                       : index::IvfIndex::openMapped(index_file, mopts);
        });
        shard = loaded.get();
    } else {
        // Same deterministic corpus + partition as serving_demo / the
        // tests: matching flags on every process of the fleet reproduce
        // the exact in-process store, which is what makes the
        // out-of-process path bit-comparable.
        auto corpus = workload::generateCorpus(cc);
        store.emplace(core::DistributedStore::build(
            corpus.embeddings, core::demoStoreConfig(clusters, nlist)));
        shard = &store->clusterIndex(cluster);
    }

    serve::ShardServer server(*shard, options);
    if (!server.start())
        return 1;

    std::unique_ptr<obs::Exporter> exporter;
    if (http_port >= 0) {
        obs::Exporter::Options eopts;
        eopts.bind_address = options.bind_address;
        eopts.port = static_cast<std::uint16_t>(http_port);
        exporter = std::make_unique<obs::Exporter>(eopts);
        // Shadow the builtin /trace.json so fetched dumps carry the
        // same process/cluster metadata as the drain-path file.
        exporter->setHandler("/trace.json", [trace_metadata] {
            return obs::TraceRecorder::instance().toJson(trace_metadata);
        });
        exporter->setHandler("/shard", [&server, cluster, replica] {
            auto node = server.nodeStats();
            auto srv = server.stats();
            char buf[256];
            std::snprintf(
                buf, sizeof(buf),
                "{\"cluster\": %zu, \"replica\": %zu, \"requests\": %llu, "
                "\"batches\": %llu, "
                "\"connections\": %llu, \"errors\": %llu}",
                cluster, replica,
                static_cast<unsigned long long>(node.requests),
                static_cast<unsigned long long>(node.batches),
                static_cast<unsigned long long>(srv.connections_accepted),
                static_cast<unsigned long long>(srv.errors_returned));
            return std::string(buf);
        });
        if (exporter->start())
            std::printf("hermes_shard metrics http://%s:%u\n",
                        options.bind_address.c_str(), exporter->port());
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // Launchers (CI fleet-smoke, tests) block on this line to learn the
    // bound port, so it must escape the stdio buffer immediately. New
    // fields (replica=) only ever append, keeping old launchers happy.
    if (replica > 0)
        std::printf("hermes_shard ready cluster=%zu vectors=%zu port=%u "
                    "replica=%zu\n",
                    cluster, shard->size(), server.port(), replica);
    else
        std::printf("hermes_shard ready cluster=%zu vectors=%zu port=%u\n",
                    cluster, shard->size(), server.port());
    std::fflush(stdout);

    while (!g_stop)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    server.stop();
    // Drain-path capture: a TERM'd shard still leaves its spans and
    // counters behind for post-mortem merging.
    if (!trace_out.empty())
        obs::TraceRecorder::instance().writeChromeTrace(trace_out,
                                                        trace_metadata);
    if (!metrics_json.empty())
        obs::Registry::instance().writeJson(metrics_json);
    auto stats = server.stats();
    std::printf("hermes_shard exit cluster=%zu requests=%llu "
                "connections=%llu errors=%llu\n",
                cluster,
                static_cast<unsigned long long>(stats.requests_served),
                static_cast<unsigned long long>(stats.connections_accepted),
                static_cast<unsigned long long>(stats.errors_returned));
    return 0;
}
