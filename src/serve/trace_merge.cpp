#include "serve/trace_merge.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/minijson.hpp"

namespace hermes {
namespace serve {

namespace {

using util::json::Value;

/** Re-serialize a parsed JSON subtree (args objects ride through the
 *  merge verbatim; minijson has no writer of its own). */
void
writeValue(const Value &value, std::string &out)
{
    switch (value.type()) {
      case Value::Type::Null:
        out += "null";
        return;
      case Value::Type::Bool:
        out += value.boolOr(false) ? "true" : "false";
        return;
      case Value::Type::Number:
        out += obs::detail::jsonNumber(value.numberOr(0.0));
        return;
      case Value::Type::String:
        out += "\"" + obs::detail::jsonEscape(value.stringOr("")) + "\"";
        return;
      case Value::Type::Array: {
        out += "[";
        for (std::size_t i = 0; i < value.items().size(); ++i) {
            if (i)
                out += ", ";
            writeValue(value.items()[i], out);
        }
        out += "]";
        return;
      }
      case Value::Type::Object: {
        out += "{";
        for (std::size_t i = 0; i < value.keys().size(); ++i) {
            if (i)
                out += ", ";
            out += "\"" + obs::detail::jsonEscape(value.keys()[i]) +
                "\": ";
            writeValue(value.items()[i], out);
        }
        out += "}";
        return;
      }
    }
}

/**
 * Emit one trace event under a new pid, shifting its "ts" by
 * @p offset_us. Every other field (name, ph, tid, dur, args, ...)
 * passes through unmodified, so span identity survives the merge.
 */
void
writeEvent(const Value &event, int pid, double offset_us, std::string &out)
{
    out += "{\"pid\": " + std::to_string(pid);
    const auto &keys = event.keys();
    const auto &items = event.items();
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::string &key = keys[i];
        if (key == "pid")
            continue;
        out += ", \"" + obs::detail::jsonEscape(key) + "\": ";
        if (key == "ts" && items[i].isNumber())
            out += obs::detail::jsonNumber(items[i].numberOr(0.0) +
                                           offset_us);
        else
            writeValue(items[i], out);
    }
    out += "}";
}

/** Chrome process_name metadata row for @p pid. */
void
writeProcessName(int pid, const std::string &label, std::string &out)
{
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
        std::to_string(pid) + ", \"args\": {\"name\": \"" +
        obs::detail::jsonEscape(label) + "\"}}";
}

const Value *
traceEvents(const Value &root)
{
    const Value *events = root.find("traceEvents");
    return events && events->isArray() ? events : nullptr;
}

/** A dump's display label: metadata.process [+ cluster], else fallback. */
std::string
dumpLabel(const Value &root, const std::string &fallback)
{
    const Value *meta = root.find("metadata");
    if (!meta)
        return fallback;
    std::string label = meta->find("process")
        ? meta->find("process")->stringOr(fallback)
        : fallback;
    const Value *cluster = meta->find("cluster");
    if (cluster && cluster->isNumber()) {
        label += " " + std::to_string(static_cast<long long>(
                           cluster->numberOr(0.0)));
    }
    return label;
}

/** metadata.cluster as a node id; negative when absent. */
long long
dumpCluster(const Value &root)
{
    const Value *cluster = root.at({"metadata", "cluster"});
    if (cluster && cluster->isNumber())
        return static_cast<long long>(cluster->numberOr(-1.0));
    return -1;
}

} // namespace

std::vector<TraceClockSync>
extractClockSyncs(const std::string &broker_json)
{
    std::vector<TraceClockSync> syncs;
    auto parsed = util::json::parse(broker_json);
    if (!parsed.ok)
        return syncs;
    const Value *events = traceEvents(parsed.value);
    if (!events)
        return syncs;
    std::vector<TraceClockSync> samples;
    for (const auto &event : events->items()) {
        const Value *name = event.find("name");
        if (!name || name->stringOr("") != "rpc.clock_sync")
            continue;
        const Value *args = event.find("args");
        if (!args)
            continue;
        const Value *node = args->find("node_id");
        const Value *offset = args->find("offset_us");
        const Value *rtt = args->find("rtt_us");
        if (!node || !node->isNumber() || !offset || !offset->isNumber())
            continue;
        TraceClockSync sync;
        sync.node_id =
            static_cast<std::uint32_t>(node->numberOr(0.0));
        sync.offset_us = offset->numberOr(0.0);
        sync.rtt_us = rtt ? rtt->numberOr(0.0) : 0.0;
        samples.push_back(sync);
    }
    // A shard restart resets its trace clock, so older samples for the
    // same node can be off by whole seconds and must not win on RTT.
    // The dump we merge belongs to the process alive at the end of the
    // run, so: anchor on each node's LAST sample (append order = time
    // order), then take the lowest-RTT sample from the same epoch —
    // i.e. whose offset sits within the restart-jump threshold of the
    // anchor. kEpochToleranceUs mirrors the client-side epoch detector.
    constexpr double kEpochToleranceUs = 1e6;
    for (std::size_t i = samples.size(); i-- > 0;) {
        const auto &anchor = samples[i];
        bool seen = false;
        for (const auto &existing : syncs)
            seen = seen || existing.node_id == anchor.node_id;
        if (seen)
            continue;
        TraceClockSync best = anchor;
        for (const auto &sample : samples) {
            if (sample.node_id != anchor.node_id)
                continue;
            if (std::fabs(sample.offset_us - anchor.offset_us) >
                kEpochToleranceUs)
                continue;
            // Lowest RTT wins within the epoch: its midpoint estimate
            // has the tightest error bound.
            if (sample.rtt_us <= best.rtt_us)
                best = sample;
        }
        syncs.push_back(best);
    }
    return syncs;
}

bool
readTraceDump(const std::string &path, TraceDumpInput &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out.source = path;
    out.json = buf.str();
    return true;
}

TraceMergeResult
mergeTraces(const TraceDumpInput &broker,
            const std::vector<TraceDumpInput> &shards)
{
    TraceMergeResult result;
    auto broker_parsed = util::json::parse(broker.json);
    if (!broker_parsed.ok) {
        result.error = "broker dump (" + broker.source +
            ") unparseable: " + broker_parsed.error;
        return result;
    }
    const Value *broker_events = traceEvents(broker_parsed.value);
    if (!broker_events) {
        result.error = "broker dump (" + broker.source +
            ") has no traceEvents array";
        return result;
    }
    auto syncs = extractClockSyncs(broker.json);

    std::string out = "{\"traceEvents\": [";
    bool first = true;
    auto emit = [&](const std::string &piece) {
        out += first ? "\n  " : ",\n  ";
        out += piece;
        first = false;
    };

    {
        std::string row;
        writeProcessName(
            1, dumpLabel(broker_parsed.value, "broker"), row);
        emit(row);
    }
    for (const auto &event : broker_events->items()) {
        std::string row;
        writeEvent(event, 1, 0.0, row);
        emit(row);
        ++result.events;
    }
    result.processes = 1;

    for (std::size_t s = 0; s < shards.size(); ++s) {
        const auto &shard = shards[s];
        auto parsed = util::json::parse(shard.json);
        if (!parsed.ok) {
            result.warnings.push_back("shard dump (" + shard.source +
                                      ") unparseable: " + parsed.error +
                                      "; skipped");
            continue;
        }
        const Value *events = traceEvents(parsed.value);
        if (!events) {
            result.warnings.push_back("shard dump (" + shard.source +
                                      ") has no traceEvents; skipped");
            continue;
        }
        const int pid = static_cast<int>(2 + s);
        long long cluster = dumpCluster(parsed.value);
        double offset = 0.0;
        bool aligned = false;
        for (const auto &sync : syncs) {
            if (cluster >= 0 &&
                sync.node_id == static_cast<std::uint32_t>(cluster)) {
                offset = sync.offset_us;
                aligned = true;
                break;
            }
        }
        if (!aligned) {
            result.warnings.push_back(
                "shard dump (" + shard.source +
                ") has no rpc.clock_sync match in the broker dump; "
                "merged with unaligned timestamps");
        }
        {
            std::string row;
            writeProcessName(pid, dumpLabel(parsed.value, shard.source),
                             row);
            emit(row);
        }
        for (const auto &event : events->items()) {
            std::string row;
            writeEvent(event, pid, offset, row);
            emit(row);
            ++result.events;
        }
        ++result.processes;
    }

    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    result.json = std::move(out);
    result.ok = true;
    return result;
}

namespace {

/** Hex span id out of an event's args ("00c0ffee…"); 0 when absent. */
std::uint64_t
argHexId(const Value &event, const char *key)
{
    const Value *args = event.find("args");
    if (!args)
        return 0;
    const Value *id = args->find(key);
    if (!id || !id->isString())
        return 0;
    return std::strtoull(id->stringOr("").c_str(), nullptr, 16);
}

/** One duration span lifted out of a dump for folding. */
struct FoldSpan
{
    std::string name;
    double dur_us = 0.0;
    double child_us = 0.0; ///< sum of direct children's durations
    std::uint64_t span_id = 0;
    std::uint64_t parent_span_id = 0;
};

} // namespace

FlameFoldResult
foldStacks(const std::vector<TraceDumpInput> &dumps)
{
    FlameFoldResult result;

    std::vector<FoldSpan> spans;
    std::size_t parsed_dumps = 0;
    for (const auto &dump : dumps) {
        auto parsed = util::json::parse(dump.json);
        if (!parsed.ok) {
            result.warnings.push_back("dump (" + dump.source +
                                      ") unparseable: " + parsed.error +
                                      "; skipped");
            continue;
        }
        const Value *events = traceEvents(parsed.value);
        if (!events) {
            result.warnings.push_back("dump (" + dump.source +
                                      ") has no traceEvents; skipped");
            continue;
        }
        ++parsed_dumps;
        for (const auto &event : events->items()) {
            const Value *ph = event.find("ph");
            if (!ph || ph->stringOr("") != "X")
                continue; // instants and metadata carry no duration
            const Value *name = event.find("name");
            const Value *dur = event.find("dur");
            if (!name || !dur || !dur->isNumber())
                continue;
            FoldSpan span;
            span.name = name->stringOr("");
            // The folded format reserves ';' (frame separator) and
            // ' ' (weight separator).
            std::replace(span.name.begin(), span.name.end(), ';', '_');
            std::replace(span.name.begin(), span.name.end(), ' ', '_');
            if (span.name.empty())
                continue;
            span.dur_us = std::max(0.0, dur->numberOr(0.0));
            span.span_id = argHexId(event, "span_id");
            span.parent_span_id = argHexId(event, "parent_span_id");
            spans.push_back(std::move(span));
        }
    }
    if (parsed_dumps == 0) {
        result.error = "no dump parsed";
        return result;
    }

    std::unordered_map<std::uint64_t, std::size_t> by_id;
    by_id.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].span_id != 0)
            by_id.emplace(spans[i].span_id, i);
    }
    for (const FoldSpan &span : spans) {
        if (span.parent_span_id == 0)
            continue;
        auto it = by_id.find(span.parent_span_id);
        if (it != by_id.end())
            spans[it->second].child_us += span.dur_us;
    }

    // Each span contributes its *self* time under its full ancestor
    // chain. Parallel children (a fan-out's node spans overlap in wall
    // time) can sum past the parent's duration; clamping at zero keeps
    // the parent from going negative rather than inventing time.
    constexpr std::size_t kMaxDepth = 128;
    std::map<std::string, double> folded; // ordered => deterministic output
    for (const FoldSpan &span : spans) {
        double self_us = std::max(0.0, span.dur_us - span.child_us);
        std::vector<const std::string *> chain;
        chain.push_back(&span.name);
        std::uint64_t parent = span.parent_span_id;
        while (parent != 0 && chain.size() < kMaxDepth) {
            auto it = by_id.find(parent);
            if (it == by_id.end())
                break; // parent sampled out or from an absent dump
            chain.push_back(&spans[it->second].name);
            parent = spans[it->second].parent_span_id;
        }
        std::string stack;
        for (std::size_t i = chain.size(); i-- > 0;) {
            if (!stack.empty())
                stack += ';';
            stack += *chain[i];
        }
        folded[stack] += self_us;
        ++result.spans;
    }

    for (const auto &[stack, weight_us] : folded) {
        long long weight = std::llround(weight_us);
        if (weight <= 0)
            continue; // sub-microsecond leftovers are noise, drop them
        result.folded += stack + " " + std::to_string(weight) + "\n";
        ++result.stacks;
    }
    result.ok = true;
    return result;
}

} // namespace serve
} // namespace hermes
