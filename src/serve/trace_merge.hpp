/**
 * @file
 * Merging per-process Chrome trace dumps into one fleet-wide trace.
 *
 * Every hermes process records spans against its own TraceRecorder
 * epoch (steady_clock at start()). The broker's RemoteNodeClient
 * measures each shard's epoch offset during the Health handshake and
 * drops it into its own span stream as an `rpc.clock_sync` instant
 * (args: node_id, offset_us, rtt_us) — so a broker dump carries
 * everything needed to align the shard dumps that its queries touched,
 * even after every process has exited.
 *
 * mergeTraces() takes the broker dump plus N shard dumps (fetched from
 * their /trace.json endpoints or read from HERMES_TRACE_OUT files),
 * shifts each shard's timestamps by its measured offset, assigns each
 * process a distinct Chrome pid with a process_name metadata row, and
 * emits one trace-event JSON. Span identity (trace_id/span_id/
 * parent_span_id args) is preserved verbatim, so a query's tree spans
 * processes: broker.query > rpc.search > shard.search > node.search.
 *
 * Lives in serve (not obs) because it consumes JSON via util::minijson
 * and obs sits below util in the library stack.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hermes {
namespace serve {

/** One shard's clock alignment, recovered from a broker trace dump. */
struct TraceClockSync
{
    std::uint32_t node_id = 0;

    /** Shard trace-clock + offset_us = broker trace-clock. */
    double offset_us = 0.0;

    /** Handshake RTT; the alignment error is bounded by rtt_us / 2. */
    double rtt_us = 0.0;
};

/** One process's trace dump handed to the merger. */
struct TraceDumpInput
{
    /** Where it came from, for labels and warnings ("host:port",
     *  "file:shard1.json"). */
    std::string source;

    /** The dump itself (TraceRecorder::toJson() output). */
    std::string json;
};

/** Outcome of a merge. */
struct TraceMergeResult
{
    bool ok = false;
    std::string error; ///< set when !ok (unparseable broker dump)

    /** Merged Chrome trace-event JSON. */
    std::string json;

    std::size_t events = 0;    ///< trace events emitted (sans metadata)
    std::size_t processes = 0; ///< broker + shard dumps merged

    /** Non-fatal problems (unparseable shard dump, missing clock sync —
     *  the shard is merged unshifted in the latter case). */
    std::vector<std::string> warnings;
};

/**
 * Best clock sync per node_id from the `rpc.clock_sync` instants of a
 * broker trace dump: lowest RTT among the samples of each node's most
 * recent clock epoch (a restarted shard resets its trace clock, so
 * pre-restart samples are discarded rather than allowed to win on
 * RTT). Empty when the dump is unparseable or recorded no handshakes.
 */
std::vector<TraceClockSync> extractClockSyncs(const std::string &broker_json);

/**
 * Read the dump a process wrote to @p path into @p out (source = path).
 * False when the file cannot be read.
 */
bool readTraceDump(const std::string &path, TraceDumpInput &out);

/**
 * Merge @p broker and @p shards into one Chrome trace. The broker
 * becomes pid 1; shard i becomes pid 2+i, labelled from its dump's
 * metadata ("process"/"cluster") or its source. Shard timestamps are
 * shifted onto the broker's clock via extractClockSyncs(); a shard
 * whose cluster has no recorded handshake merges unshifted with a
 * warning. Only an unparseable *broker* dump fails the merge.
 */
TraceMergeResult mergeTraces(const TraceDumpInput &broker,
                             const std::vector<TraceDumpInput> &shards);

/** Outcome of folding trace dumps into flame-graph stacks. */
struct FlameFoldResult
{
    bool ok = false;
    std::string error; ///< set when !ok (no dump parsed)

    /**
     * Folded-stack lines, "root;child;leaf <self_us>\n", sorted by
     * stack for determinism — the input format of flamegraph.pl and of
     * speedscope's "folded stacks" importer. Weights are self
     * microseconds (span duration minus direct children), so a stack's
     * total equals its spans' wall time without double counting.
     */
    std::string folded;

    std::size_t spans = 0;  ///< duration spans folded
    std::size_t stacks = 0; ///< distinct stacks emitted

    /** Non-fatal problems (an unparseable dump is skipped). */
    std::vector<std::string> warnings;
};

/**
 * Aggregate Chrome trace dumps (TraceRecorder::toJson() or
 * mergeTraces() output — any mix) into folded stacks. Ancestry comes
 * from the span identity each event carries in its args
 * (span_id/parent_span_id hex strings), not from timestamp nesting, so
 * stacks follow a query across threads and processes: a shard's
 * node.search folds under the broker's rpc.search even when the dumps
 * were recorded on different machines. Spans without identity (and
 * spans whose parent was sampled out) become roots; instants and
 * metadata rows are ignored.
 */
FlameFoldResult foldStacks(const std::vector<TraceDumpInput> &dumps);

} // namespace serve
} // namespace hermes
