/**
 * @file
 * Merge per-process Chrome trace dumps into one fleet-wide trace.
 *
 * The broker dump carries `rpc.clock_sync` instants (one per Health
 * handshake) that record each shard's trace-clock offset, so this tool
 * can align every shard's timestamps onto the broker's clock with no
 * cooperation from the shards beyond handing over their dumps.
 *
 * Usage: hermes_trace_merge --broker-trace=FILE [--shards=host:port,...]
 *                           [--shard-file=FILE]... [--out=FILE]
 * (--help lists the flags).
 *
 * --shards fetches /trace.json from each listed obs exporter endpoint
 * (a live fleet); --shard-file reads a dump a shard wrote on drain
 * (HERMES_TRACE_OUT / --trace-out). Both may be combined. The merged
 * trace goes to --out (default merged_trace.json) and loads in
 * chrome://tracing or https://ui.perfetto.dev with one row of
 * processes: broker pid 1, shards pid 2+.
 *
 * Exit status: 0 on success or --help (even with per-shard warnings,
 * which go to stderr), 1 when the broker dump is missing or
 * unparseable, 2 on bad usage.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/exporter.hpp"
#include "serve/remote_node.hpp"
#include "serve/trace_merge.hpp"
#include "util/argparse.hpp"

int
main(int argc, char **argv)
{
    using namespace hermes;

    util::ArgParser args("hermes_trace_merge",
                         "merge per-process trace dumps into one fleet "
                         "trace");
    args.addFlag("broker-trace", "", "the broker's trace dump (required)");
    args.addFlag("shards", "",
                 "comma-separated host:port list of live shard exporters");
    args.addFlag("shard-file", "",
                 "a shard's drain-path trace dump (repeatable)");
    args.addFlag("out", "merged_trace.json", "merged trace output");
    args.parse(argc, argv);
    if (!args.given("broker-trace"))
        args.fail("--broker-trace is required");
    const std::string broker_path = args.get("broker-trace");
    const std::string out_path = args.get("out");

    serve::TraceDumpInput broker;
    if (!serve::readTraceDump(broker_path, broker)) {
        std::fprintf(stderr, "error: cannot read broker trace %s\n",
                     broker_path.c_str());
        return 1;
    }

    std::vector<serve::TraceDumpInput> shards;
    for (const auto &endpoint : args.getList("shards")) {
        std::string host;
        std::uint16_t port = 0;
        if (!serve::parseEndpoint(endpoint, host, port))
            args.fail("--shards: bad host:port '" + endpoint + "'");
        serve::TraceDumpInput dump;
        dump.source = endpoint;
        if (!obs::httpGet(host, port, "/trace.json", &dump.json)) {
            std::fprintf(stderr,
                         "warning: fetch of %s/trace.json failed; "
                         "skipping that shard\n",
                         endpoint.c_str());
            continue;
        }
        shards.push_back(std::move(dump));
    }
    for (const auto &path : args.getAll("shard-file")) {
        serve::TraceDumpInput dump;
        if (!serve::readTraceDump(path, dump)) {
            std::fprintf(stderr,
                         "warning: cannot read %s; skipping that shard\n",
                         path.c_str());
            continue;
        }
        shards.push_back(std::move(dump));
    }

    serve::TraceMergeResult merged = serve::mergeTraces(broker, shards);
    for (const auto &warning : merged.warnings)
        std::fprintf(stderr, "warning: %s\n", warning.c_str());
    if (!merged.ok) {
        std::fprintf(stderr, "error: %s\n", merged.error.c_str());
        return 1;
    }

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out || !(out << merged.json)) {
        std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
        return 1;
    }
    out.close();
    std::printf("hermes_trace_merge wrote %s events=%zu processes=%zu\n",
                out_path.c_str(), merged.events, merged.processes);
    return 0;
}
