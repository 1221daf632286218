/**
 * @file
 * Fold Chrome trace dumps into flame-graph stacks.
 *
 * Input is any mix of TraceRecorder dumps (serving_demo --trace-out,
 * hermes_shard --trace-out, a /trace.json scrape) and merged fleet
 * traces from hermes_trace_merge. Ancestry is reconstructed from the
 * span identity each event carries (span_id/parent_span_id), so a
 * merged trace folds across processes: broker.query;rpc.search;
 * shard.search;node.search. Weights are self-time microseconds.
 *
 * Usage: hermes_flame [--trace=FILE]... [--endpoint=host:port]...
 *                     [--out=FILE]
 * (at least one input; --help lists the flags).
 *
 * --endpoint fetches /trace.json from a live obs exporter instead of
 * (or alongside) files. Output goes to --out or stdout and loads
 * directly in speedscope (https://speedscope.app) or through
 * flamegraph.pl.
 *
 * Exit status: 0 on success or --help (warnings on stderr), 1 when no
 * input parses or the output cannot be written, 2 on bad usage.
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

    util::ArgParser args("hermes_flame",
                         "fold Chrome trace dumps into flame-graph stacks");
    args.addFlag("trace", "", "trace dump file (repeatable)");
    args.addFlag("endpoint", "",
                 "host:port of a live exporter's /trace.json (repeatable)");
    args.addFlag("out", "", "output file (default: stdout)");
    args.parse(argc, argv);
    if (!args.given("trace") && !args.given("endpoint"))
        args.fail("give at least one --trace or --endpoint");
    const std::string out_path = args.get("out");

    std::vector<serve::TraceDumpInput> dumps;
    for (const auto &path : args.getAll("trace")) {
        serve::TraceDumpInput dump;
        if (!serve::readTraceDump(path, dump)) {
            std::fprintf(stderr,
                         "warning: cannot read %s; skipping\n",
                         path.c_str());
            continue;
        }
        dumps.push_back(std::move(dump));
    }
    for (const auto &endpoint : args.getAll("endpoint")) {
        std::string host;
        std::uint16_t port = 0;
        if (!serve::parseEndpoint(endpoint, host, port))
            args.fail("--endpoint: bad host:port '" + endpoint + "'");
        serve::TraceDumpInput dump;
        dump.source = endpoint;
        if (!obs::httpGet(host, port, "/trace.json", &dump.json)) {
            std::fprintf(stderr,
                         "warning: fetch of %s/trace.json failed; "
                         "skipping\n",
                         endpoint.c_str());
            continue;
        }
        dumps.push_back(std::move(dump));
    }

    serve::FlameFoldResult fold = serve::foldStacks(dumps);
    for (const auto &warning : fold.warnings)
        std::fprintf(stderr, "warning: %s\n", warning.c_str());
    if (!fold.ok) {
        std::fprintf(stderr, "error: %s\n", fold.error.c_str());
        return 1;
    }

    if (out_path.empty()) {
        std::fputs(fold.folded.c_str(), stdout);
    } else {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        if (!out || !(out << fold.folded)) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
    }
    std::fprintf(stderr,
                 "hermes_flame folded %zu spans into %zu stacks%s%s\n",
                 fold.spans, fold.stacks,
                 out_path.empty() ? "" : " -> ",
                 out_path.c_str());
    return 0;
}
