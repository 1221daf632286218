#include "serve/rpc.hpp"

#include "util/serialize.hpp"

namespace hermes {
namespace serve {
namespace rpc {

namespace {

/** Encoded size of one Hit: i64 id + f32 score. */
constexpr std::size_t kHitWireBytes = 12;

/** Minimum encoded size of one NodeResponse: empty-hit u32 + 4 stats u64s. */
constexpr std::size_t kMinResponseWireBytes = 36;

void
encodeParams(util::ByteWriter &writer, std::size_t k,
             const index::SearchParams &params, double deadline_ms)
{
    writer.u64(k);
    writer.u64(params.nprobe);
    writer.u64(params.ef_search);
    writer.f64(params.prune_ratio);
    writer.u64(params.batch_min_scan_floats);
    writer.f64(deadline_ms);
}

void
decodeParams(util::ByteReader &reader, std::size_t &k,
             index::SearchParams &params, double &deadline_ms)
{
    k = reader.u64();
    params.nprobe = reader.u64();
    params.ef_search = reader.u64();
    params.prune_ratio = reader.f64();
    params.batch_min_scan_floats = reader.u64();
    deadline_ms = reader.f64();
}

void
encodeStats(util::ByteWriter &writer, const index::SearchStats &stats)
{
    writer.u64(stats.lists_probed);
    writer.u64(stats.vectors_scanned);
    writer.u64(stats.distance_computations);
    writer.u64(stats.bytes_scanned);
}

index::SearchStats
decodeStats(util::ByteReader &reader)
{
    index::SearchStats stats;
    stats.lists_probed = reader.u64();
    stats.vectors_scanned = reader.u64();
    stats.distance_computations = reader.u64();
    stats.bytes_scanned = reader.u64();
    return stats;
}

void
encodeHits(util::ByteWriter &writer, const vecstore::HitList &hits)
{
    writer.u32(static_cast<std::uint32_t>(hits.size()));
    for (const auto &hit : hits) {
        writer.i64(hit.id);
        writer.f32(hit.score);
    }
}

vecstore::HitList
decodeHits(util::ByteReader &reader)
{
    std::uint32_t n = reader.u32();
    // Bound the claimed count by the bytes actually present before
    // reserving: a corrupt frame claiming ~4e9 hits must fail as a
    // FormatError, not as a multi-GB allocation attempt.
    reader.needCount(n, kHitWireBytes);
    vecstore::HitList hits;
    hits.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        vecstore::Hit hit;
        hit.id = reader.i64();
        hit.score = reader.f32();
        hits.push_back(hit);
    }
    return hits;
}

void
encodeOneResponse(util::ByteWriter &writer, const NodeResponse &response)
{
    encodeHits(writer, response.hits);
    encodeStats(writer, response.stats);
}

NodeResponse
decodeOneResponse(util::ByteReader &reader)
{
    NodeResponse response;
    response.hits = decodeHits(reader);
    response.stats = decodeStats(reader);
    return response;
}

/** Trailing trace-context block marker (SearchRequest v2). */
constexpr std::uint8_t kTraceContextFlag = 1;

} // namespace

std::string
encodeSearchRequest(const SearchRequest &request)
{
    util::ByteWriter writer;
    encodeParams(writer, request.k, request.params, request.deadline_ms);
    writer.vec(request.query);
    if (request.trace.active) {
        // Optional trailing block: a v2 shard reads it, a v1 shard
        // never receives it (Health-gated injection).
        writer.u8(kTraceContextFlag);
        writer.u64(request.trace.trace_id);
        writer.u64(request.trace.parent_span_id);
    }
    return writer.take();
}

SearchRequest
decodeSearchRequest(std::string_view payload)
{
    util::ByteReader reader(payload);
    SearchRequest request;
    decodeParams(reader, request.k, request.params, request.deadline_ms);
    request.query = reader.vec<float>();
    if (!reader.atEnd()) {
        if (reader.u8() != kTraceContextFlag)
            reader.fail(util::FormatErrorCode::Corrupt,
                        "bad trace-context flag");
        request.trace.active = true;
        request.trace.trace_id = reader.u64();
        request.trace.parent_span_id = reader.u64();
    }
    reader.expectEnd();
    return request;
}

std::string
encodeSearchBatchRequest(const SearchBatchRequest &request)
{
    util::ByteWriter writer;
    encodeParams(writer, request.k, request.params, request.deadline_ms);
    writer.u64(request.dim);
    writer.vec(request.queries);
    std::uint32_t active = 0;
    for (const auto &trace : request.traces)
        active += trace.active ? 1 : 0;
    if (active > 0) {
        // Sparse trailing list: only traced slots go on the wire.
        writer.u32(active);
        for (std::size_t i = 0; i < request.traces.size(); ++i) {
            if (!request.traces[i].active)
                continue;
            writer.u32(static_cast<std::uint32_t>(i));
            writer.u64(request.traces[i].trace_id);
            writer.u64(request.traces[i].parent_span_id);
        }
    }
    return writer.take();
}

SearchBatchRequest
decodeSearchBatchRequest(std::string_view payload)
{
    util::ByteReader reader(payload);
    SearchBatchRequest request;
    decodeParams(reader, request.k, request.params, request.deadline_ms);
    request.dim = reader.u64();
    request.queries = reader.vec<float>();
    if (request.dim == 0 || request.queries.size() % request.dim != 0)
        reader.fail(util::FormatErrorCode::Corrupt,
                    "batch query block not a multiple of dim");
    if (!reader.atEnd()) {
        const std::size_t q = request.numQueries();
        std::uint32_t n = reader.u32();
        // 20 wire bytes per entry; bound the claimed count by both the
        // remaining payload and the batch size before allocating.
        reader.needCount(n, 20);
        if (n > q)
            reader.fail(util::FormatErrorCode::Corrupt,
                        "more trace contexts than queries");
        request.traces.assign(q, obs::TraceContextSnapshot{});
        for (std::uint32_t e = 0; e < n; ++e) {
            std::uint32_t slot = reader.u32();
            if (slot >= q)
                reader.fail(util::FormatErrorCode::Corrupt,
                            "trace context slot out of range");
            auto &trace = request.traces[slot];
            trace.active = true;
            trace.trace_id = reader.u64();
            trace.parent_span_id = reader.u64();
        }
    }
    reader.expectEnd();
    return request;
}

std::string
encodeSearchResponse(const NodeResponse &response)
{
    util::ByteWriter writer;
    encodeOneResponse(writer, response);
    return writer.take();
}

NodeResponse
decodeSearchResponse(std::string_view payload)
{
    util::ByteReader reader(payload);
    NodeResponse response = decodeOneResponse(reader);
    reader.expectEnd();
    return response;
}

std::string
encodeSearchBatchResponse(const std::vector<NodeResponse> &responses)
{
    util::ByteWriter writer;
    writer.u32(static_cast<std::uint32_t>(responses.size()));
    for (const auto &response : responses)
        encodeOneResponse(writer, response);
    return writer.take();
}

std::vector<NodeResponse>
decodeSearchBatchResponse(std::string_view payload)
{
    util::ByteReader reader(payload);
    std::uint32_t n = reader.u32();
    reader.needCount(n, kMinResponseWireBytes);
    std::vector<NodeResponse> responses;
    responses.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        responses.push_back(decodeOneResponse(reader));
    reader.expectEnd();
    return responses;
}

std::string
encodeStatsResponse(const StatsResponse &response)
{
    util::ByteWriter writer;
    writer.u64(response.stats.requests);
    writer.u64(response.stats.batches);
    writer.f64(response.stats.busy_seconds);
    writer.u64(response.stats.vectors_scanned);
    writer.u64(response.stats.failures);
    writer.u64(response.stats.dropped);
    writer.u64(response.stats.hits_returned);
    writer.f64(response.stats.energy_joules);
    writer.u64(response.queue_depth);
    writer.u64(response.shard_vectors);
    return writer.take();
}

StatsResponse
decodeStatsResponse(std::string_view payload)
{
    util::ByteReader reader(payload);
    StatsResponse response;
    response.stats.requests = reader.u64();
    response.stats.batches = reader.u64();
    response.stats.busy_seconds = reader.f64();
    response.stats.vectors_scanned = reader.u64();
    response.stats.failures = reader.u64();
    response.stats.dropped = reader.u64();
    response.stats.hits_returned = reader.u64();
    response.stats.energy_joules = reader.f64();
    response.queue_depth = reader.u64();
    response.shard_vectors = reader.u64();
    reader.expectEnd();
    return response;
}

std::string
encodeHealthRequest(std::uint32_t client_version)
{
    util::ByteWriter writer;
    writer.u32(client_version);
    return writer.take();
}

std::uint32_t
decodeHealthRequest(std::string_view payload)
{
    // v1 clients send an empty Health payload (and v1 shards ignore the
    // payload entirely, which is what makes sending a version safe).
    if (payload.empty())
        return 1;
    util::ByteReader reader(payload);
    std::uint32_t version = reader.u32();
    reader.expectEnd();
    if (version == 0)
        reader.fail(util::FormatErrorCode::Corrupt,
                    "health request version 0");
    return version;
}

std::string
encodeHealthResponse(const HealthResponse &response)
{
    util::ByteWriter writer;
    writer.u32(response.protocol_version);
    writer.u32(response.node_id);
    writer.u32(response.dim);
    writer.u64(response.shard_vectors);
    if (response.has_clock)
        writer.f64(response.trace_now_us);
    return writer.take();
}

HealthResponse
decodeHealthResponse(std::string_view payload)
{
    util::ByteReader reader(payload);
    HealthResponse response;
    response.protocol_version = reader.u32();
    response.node_id = reader.u32();
    response.dim = reader.u32();
    response.shard_vectors = reader.u64();
    if (!reader.atEnd()) {
        response.trace_now_us = reader.f64();
        response.has_clock = true;
    }
    reader.expectEnd();
    return response;
}

std::string
encodeError(ErrorCode code, const std::string &message)
{
    util::ByteWriter writer;
    writer.u32(static_cast<std::uint32_t>(code));
    writer.str(message);
    return writer.take();
}

ErrorBody
decodeError(std::string_view payload)
{
    util::ByteReader reader(payload);
    ErrorBody body;
    body.code = static_cast<ErrorCode>(reader.u32());
    body.message = reader.str();
    reader.expectEnd();
    return body;
}

} // namespace rpc
} // namespace serve
} // namespace hermes
