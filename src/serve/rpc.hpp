/**
 * @file
 * The broker <-> shard RPC vocabulary: message types and their binary
 * encodings over net::Frame payloads (util::ByteWriter/ByteReader).
 *
 * Four request/response pairs carry the whole serving protocol:
 *
 *   Search        one query       -> hits + SearchStats
 *   SearchBatch   Q queries       -> Q x (hits + SearchStats), the wire
 *                                    twin of RetrievalNode micro-batching
 *   Stats         -               -> NodeStats + queue depth + shard size
 *   Health        -               -> protocol version, dim, shard size
 *
 * plus a typed Error response (timeout / bad request / internal /
 * shutting down). Request ids live in the frame header and are echoed
 * verbatim, so a client can match late responses after it has already
 * given up on them.
 *
 * Encoding invariants: decode functions throw util::FormatError on any
 * truncated, over-long or trailing-garbage payload — a torn frame can
 * never silently decode into a shorter hit list.
 *
 * Protocol v2 (distributed tracing) extends v1 with *optional trailing*
 * fields, so every v1 payload is also a valid v2 payload:
 *
 *   SearchRequest       ... v1 fields ... [u8 flag=1, u64 trace_id,
 *                                          u64 parent_span_id]
 *   SearchBatchRequest  ... v1 fields ... [u32 n, n x (u32 slot,
 *                                          u64 trace_id, u64 parent)]
 *   HealthRequest       v1: empty; v2: u32 client protocol version
 *   HealthResponse      ... v1 fields ... [f64 trace_now_us]
 *
 * Compat rule (Health-gated): the shard answers a Health request with
 * protocol_version = min(client_version, kProtocolVersion) and only
 * appends v2 fields for v2+ clients; a client only injects trace
 * context once a Health handshake has established the peer speaks v2.
 * So v2 client + v1 shard degrades to untraced (the shard never sees
 * trailing bytes it cannot parse), and v1 client + v2 shard sees an
 * exact v1 conversation.
 */

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "index/ann_index.hpp"
#include "obs/trace.hpp"
#include "serve/node.hpp"

namespace hermes {
namespace serve {
namespace rpc {

/** Bump when the wire encoding changes; negotiated via Health. */
constexpr std::uint32_t kProtocolVersion = 2;

/** Oldest peer protocol this build still interoperates with. */
constexpr std::uint32_t kMinProtocolVersion = 1;

/** Frame types (net::Frame::type). Responses = request | 0x100. */
enum class Type : std::uint32_t {
    SearchRequest = 1,
    SearchBatchRequest = 2,
    StatsRequest = 3,
    HealthRequest = 4,

    SearchResponse = 0x101,
    SearchBatchResponse = 0x102,
    StatsResponse = 0x103,
    HealthResponse = 0x104,

    ErrorResponse = 0x1FF,
};

/** Typed failure classes carried by an ErrorResponse. */
enum class ErrorCode : std::uint32_t {
    Timeout = 1,    ///< Shard-side wait on the node future expired.
    BadRequest = 2, ///< Undecodable payload or dimension mismatch.
    Internal = 3,   ///< Shard search threw (real or injected fault).
    Shutdown = 4,   ///< Shard is stopping; retry elsewhere/later.
};

/** One search request (SearchRequest / per-query slice of a batch). */
struct SearchRequest
{
    std::size_t k = 0;
    index::SearchParams params;

    /**
     * Client-side deadline budget in ms; the shard bounds its wait on
     * the node future by this (plus slack) so a dropped request cannot
     * wedge the connection. <= 0 means no deadline (wait forever).
     */
    double deadline_ms = 0.0;

    std::vector<float> query;

    /**
     * Propagated trace context (v2). Encoded as an optional trailing
     * block only when trace.active; absent on the wire decodes as an
     * inactive context, so v1 frames round-trip unchanged.
     */
    obs::TraceContextSnapshot trace;
};

/** A batched search: Q queries sharing (k, params). */
struct SearchBatchRequest
{
    std::size_t k = 0;
    index::SearchParams params;
    double deadline_ms = 0.0;
    std::size_t dim = 0;

    /** Row-major Q x dim query block. */
    std::vector<float> queries;

    /**
     * Per-query trace contexts (v2): empty, or exactly numQueries()
     * entries (inactive slots for untraced members). Encoded sparsely
     * as a trailing (slot, trace_id, parent_span_id) list of the
     * active entries only; an empty list is omitted entirely.
     */
    std::vector<obs::TraceContextSnapshot> traces;

    std::size_t
    numQueries() const
    {
        return dim ? queries.size() / dim : 0;
    }
};

/** Stats reply: the node's counters plus instantaneous queue/shard. */
struct StatsResponse
{
    NodeStats stats;
    std::uint64_t queue_depth = 0;
    std::uint64_t shard_vectors = 0;
};

/** Health reply: who am I, do we speak the same protocol. */
struct HealthResponse
{
    /** min(client version, shard version) — what this conversation
     *  will speak. A v1 client therefore sees exactly "1". */
    std::uint32_t protocol_version = kProtocolVersion;
    std::uint32_t node_id = 0;
    std::uint32_t dim = 0;
    std::uint64_t shard_vectors = 0;

    /**
     * v2: the shard's TraceRecorder clock ("microseconds since its
     * trace epoch") read while encoding this reply. The client brackets
     * the RPC on its own trace clock and derives the epoch offset
     * (error bounded by RTT/2) used to align merged traces.
     */
    double trace_now_us = 0.0;
    bool has_clock = false;
};

/** Typed error body. */
struct ErrorBody
{
    ErrorCode code = ErrorCode::Internal;
    std::string message;
};

std::string encodeSearchRequest(const SearchRequest &request);
SearchRequest decodeSearchRequest(std::string_view payload);

std::string encodeSearchBatchRequest(const SearchBatchRequest &request);
SearchBatchRequest decodeSearchBatchRequest(std::string_view payload);

std::string encodeSearchResponse(const NodeResponse &response);
NodeResponse decodeSearchResponse(std::string_view payload);

std::string
encodeSearchBatchResponse(const std::vector<NodeResponse> &responses);
std::vector<NodeResponse>
decodeSearchBatchResponse(std::string_view payload);

std::string encodeStatsResponse(const StatsResponse &response);
StatsResponse decodeStatsResponse(std::string_view payload);

/** v2 Health request body (client announces its protocol version).
 *  v1 clients send an empty payload. */
std::string encodeHealthRequest(std::uint32_t client_version);

/** Empty payload (v1 client) decodes as version 1. */
std::uint32_t decodeHealthRequest(std::string_view payload);

std::string encodeHealthResponse(const HealthResponse &response);
HealthResponse decodeHealthResponse(std::string_view payload);

std::string encodeError(ErrorCode code, const std::string &message);
ErrorBody decodeError(std::string_view payload);

} // namespace rpc
} // namespace serve
} // namespace hermes
