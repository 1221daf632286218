#include "serve/remote_node.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "obs/metric_names.hpp"
#include "util/argparse.hpp"
#include "util/logging.hpp"

namespace hermes {
namespace serve {

namespace {

/** Send budget for one request frame (the peer should always drain). */
constexpr double kSendBudgetMs = 5000.0;

/** Control-channel (stats/health) round-trip budget. */
constexpr double kControlBudgetMs = 2000.0;

/** Offset jump (µs) that marks a peer clock-epoch change (restart).
 *  Same-process drift + RTT noise over a serving run stays well under
 *  this; a process restart resets the trace clock by whole seconds. */
constexpr double kEpochJumpUs = 1e6;

std::runtime_error
remoteError(const std::string &what)
{
    return std::runtime_error("remote node: " + what);
}

const char *
errorCodeName(rpc::ErrorCode code)
{
    switch (code) {
      case rpc::ErrorCode::Timeout: return "timeout";
      case rpc::ErrorCode::BadRequest: return "bad_request";
      case rpc::ErrorCode::Internal: return "internal";
      case rpc::ErrorCode::Shutdown: return "shutdown";
    }
    return "unknown";
}

} // namespace

bool
parseEndpoint(const std::string &spec, std::string &host,
              std::uint16_t &port)
{
    std::size_t colon = spec.rfind(':');
    std::string port_str;
    if (colon == std::string::npos) {
        host = "127.0.0.1";
        port_str = spec;
    } else {
        host = colon == 0 ? std::string("127.0.0.1") : spec.substr(0, colon);
        port_str = spec.substr(colon + 1);
    }
    std::uint16_t value = 0;
    if (!util::parseInt(port_str, value) || value == 0)
        return false;
    port = value;
    return true;
}

RemoteNodeClient::RemoteNodeClient(RemoteNodeOptions options)
    : options_(std::move(options)),
      endpoint_(options_.host + ":" + std::to_string(options_.port))
{
    HERMES_ASSERT(options_.connections >= 1,
                  "remote node needs at least one connection");
    auto &registry = obs::Registry::instance();
    m_rpcs_ = &registry.counter(obs::names::kRpcRpcs);
    m_request_bytes_ = &registry.counter(obs::names::kRpcRequestBytes);
    m_response_bytes_ = &registry.counter(obs::names::kRpcResponseBytes);
    m_redials_ = &registry.counter(obs::names::kRpcRedials);
    m_transport_failures_ =
        &registry.counter(obs::names::kRpcTransportFailures);
    m_remote_errors_ = &registry.counter(obs::names::kRpcRemoteErrors);
    m_round_trip_us_ = &registry.histogram(obs::names::kRpcRoundTripUs);
    m_batch_size_ = &registry.histogram(obs::names::kRpcBatchSize);
    workers_.reserve(options_.connections);
    for (std::size_t i = 0; i < options_.connections; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

RemoteNodeClient::~RemoteNodeClient()
{
    std::deque<Pending> abandoned;
    {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        stopping_ = true;
        abandoned.swap(queue_);
    }
    queue_cv_.notify_all();
    for (auto &pending : abandoned) {
        pending.promise.set_exception(
            std::make_exception_ptr(remoteError("client shutting down")));
    }
    for (auto &worker : workers_)
        worker.join();
}

std::future<NodeResponse>
RemoteNodeClient::submit(vecstore::VecView query, std::size_t k,
                         const index::SearchParams &params)
{
    Pending pending;
    pending.query.assign(query.begin(), query.end());
    pending.k = k;
    pending.params = params;
    pending.trace = obs::currentTraceContext();
    auto future = pending.promise.get_future();
    {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        if (stopping_) {
            pending.promise.set_exception(std::make_exception_ptr(
                remoteError("client shutting down")));
            return future;
        }
        queue_.push_back(std::move(pending));
    }
    queue_cv_.notify_one();
    return future;
}

std::size_t
RemoteNodeClient::queueDepth() const
{
    std::unique_lock<std::mutex> lock(queue_mutex_);
    return queue_.size();
}

std::size_t
RemoteNodeClient::shardSize() const
{
    std::size_t cached = shard_vectors_.load();
    if (cached == 0) {
        // First ask (or an unreachable shard): try a health probe.
        health();
        cached = shard_vectors_.load();
    }
    return cached;
}

NodeStats
RemoteNodeClient::stats() const
{
    net::Frame reply;
    if (!controlRoundTrip(rpc::Type::StatsRequest, {}, reply) ||
        static_cast<rpc::Type>(reply.type) != rpc::Type::StatsResponse)
        return NodeStats{};
    try {
        rpc::StatsResponse decoded =
            rpc::decodeStatsResponse(reply.payload);
        shard_vectors_.store(
            static_cast<std::size_t>(decoded.shard_vectors));
        return decoded.stats;
    } catch (const std::exception &) {
        // std::exception, not just FormatError: a decode throw of any
        // kind on a broker thread must degrade, never terminate.
        return NodeStats{};
    }
}

bool
RemoteNodeClient::health(rpc::HealthResponse *out) const
{
    auto &recorder = obs::TraceRecorder::instance();
    // Bracket the RPC on the local trace clock: the shard's
    // trace_now_us was read somewhere inside [t0, t1], so mapping it
    // to the midpoint bounds the epoch-offset error by RTT/2.
    auto t0 = obs::TraceRecorder::Clock::now();
    net::Frame reply;
    if (!controlRoundTrip(rpc::Type::HealthRequest,
                          rpc::encodeHealthRequest(rpc::kProtocolVersion),
                          reply) ||
        static_cast<rpc::Type>(reply.type) != rpc::Type::HealthResponse)
        return false;
    auto t1 = obs::TraceRecorder::Clock::now();
    try {
        rpc::HealthResponse decoded =
            rpc::decodeHealthResponse(reply.payload);
        if (decoded.protocol_version < rpc::kMinProtocolVersion ||
            decoded.protocol_version > rpc::kProtocolVersion)
            return false;
        peer_version_.store(decoded.protocol_version,
                            std::memory_order_relaxed);
        shard_vectors_.store(
            static_cast<std::size_t>(decoded.shard_vectors));
        if (decoded.has_clock) {
            double local_t0 = recorder.toMicros(t0);
            double local_t1 = recorder.toMicros(t1);
            double rtt = local_t1 - local_t0;
            double offset =
                (local_t0 + local_t1) / 2.0 - decoded.trace_now_us;
            bool kept = false;
            {
                std::unique_lock<std::mutex> lock(stats_mutex_);
                // A big jump in the measured offset means the peer's
                // trace epoch moved — a restarted shard process — so
                // the old sample (however tight its RTT) refers to a
                // clock that no longer exists and must be replaced.
                bool epoch_changed = clock_sync_.valid &&
                    std::fabs(offset - clock_sync_.offset_us) >
                        kEpochJumpUs;
                if (!clock_sync_.valid || epoch_changed ||
                    rtt <= clock_sync_.rtt_us) {
                    clock_sync_.valid = true;
                    clock_sync_.node_id = decoded.node_id;
                    clock_sync_.offset_us = offset;
                    clock_sync_.rtt_us = rtt;
                    kept = true;
                }
            }
            // The gauge mirrors the kept (lowest-RTT) estimate, not
            // every raw handshake — a slow scrape-time handshake must
            // not overwrite a tight earlier measurement.
            if (kept) {
                obs::Registry::instance()
                    .gauge(obs::names::rpcNodeMetric(
                        decoded.node_id, obs::names::kRpcClockOffsetUs))
                    .set(offset);
            }
            if (recorder.enabled()) {
                // Drop the measurement into the local span stream: the
                // trace-merge tool reads rpc.clock_sync events out of
                // the broker dump to align each shard's timestamps,
                // long after this process has exited.
                obs::TraceSpan sync;
                sync.name = "rpc.clock_sync";
                sync.tid = obs::TraceRecorder::currentThreadId();
                sync.ts_us = local_t1;
                sync.instant = true;
                sync.args = {
                    {"node_id", std::to_string(decoded.node_id), true},
                    {"endpoint", endpoint_, false},
                    {"offset_us", obs::detail::jsonNumber(offset), true},
                    {"rtt_us", obs::detail::jsonNumber(rtt), true}};
                recorder.record(std::move(sync));
            }
        }
        if (out)
            *out = decoded;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

RemoteClockSync
RemoteNodeClient::clockSync() const
{
    std::unique_lock<std::mutex> lock(stats_mutex_);
    return clock_sync_;
}

RemoteNodeClientStats
RemoteNodeClient::clientStats() const
{
    std::unique_lock<std::mutex> lock(stats_mutex_);
    return client_stats_;
}

bool
RemoteNodeClient::compatible(const Pending &a, const Pending &b)
{
    return a.k == b.k && a.params == b.params &&
        a.query.size() == b.query.size();
}

void
RemoteNodeClient::workerLoop()
{
    net::Socket socket; // worker-owned connection, re-dialed on demand
    for (;;) {
        std::vector<Pending> group;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            group.push_back(std::move(queue_.front()));
            queue_.pop_front();
            // Wire-level micro-batching: whatever compatible requests
            // are already queued ride the same RPC (no added waiting —
            // the shard's own batch window supplies the hold).
            while (!queue_.empty() && group.size() < options_.max_batch &&
                   compatible(queue_.front(), group.front())) {
                group.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
        }
        runRpc(socket, group);
    }
}

void
RemoteNodeClient::failGroup(std::vector<Pending> &group,
                            const std::string &reason)
{
    for (auto &pending : group) {
        pending.promise.set_exception(
            std::make_exception_ptr(remoteError(reason)));
    }
    group.clear();
}

void
RemoteNodeClient::countRemoteError(rpc::ErrorCode code) const
{
    m_remote_errors_->add(1);
    // Error replies are rare; the per-code lookup can afford the
    // registry lock (unlike the cached hot-path counters above).
    obs::Registry::instance()
        .counter(obs::names::rpcErrorMetric(errorCodeName(code)))
        .add(1);
}

bool
RemoteNodeClient::ensureConnected(net::Socket &socket)
{
    if (socket.valid())
        return true;
    std::string error;
    socket = net::connectTo(options_.host, options_.port,
                            options_.connect_timeout_ms, &error);
    if (!socket.valid()) {
        HERMES_DEBUG("remote node dial failed: ", error);
        return false;
    }
    m_redials_->add(1);
    {
        std::unique_lock<std::mutex> lock(stats_mutex_);
        ++client_stats_.reconnects;
    }
    // Automatic version handshake on every successful dial: callers
    // that never health-gate explicitly (plain submit() traffic) still
    // negotiate v2 and get trace propagation, and a redial after a
    // shard restart re-measures the new process's clock epoch (the old
    // offset is meaningless against it). A failed attempt just leaves
    // the peer version unknown (= inject nothing), never blocks
    // traffic; dials are rare so the extra control RPC is noise.
    health();
    return true;
}

bool
RemoteNodeClient::roundTrip(net::Socket &socket, rpc::Type type,
                            std::string_view payload, net::Frame &reply)
{
    std::uint64_t id = next_id_.fetch_add(1);
    m_rpcs_->add(1);
    m_request_bytes_->add(net::kFrameHeaderBytes + payload.size());
    {
        std::unique_lock<std::mutex> lock(stats_mutex_);
        ++client_stats_.rpcs_sent;
    }
    auto rpc_start = obs::TraceRecorder::Clock::now();
    net::IoStatus sent =
        net::sendFrame(socket, static_cast<std::uint32_t>(type), id,
                       payload, net::Deadline::after(kSendBudgetMs));
    if (sent != net::IoStatus::Ok) {
        socket.close();
        m_transport_failures_->add(1);
        std::unique_lock<std::mutex> lock(stats_mutex_);
        ++client_stats_.transport_failures;
        return false;
    }
    double budget = options_.request_deadline_ms > 0.0
        ? options_.request_deadline_ms + options_.response_slack_ms
        : options_.max_response_wait_ms;
    net::IoStatus got = net::recvFrame(socket, reply,
                                       net::Deadline::after(budget));
    // One outstanding RPC per connection, so the reply id must match;
    // anything else means the stream is desynced — poison the socket
    // so the next request starts from a clean dial.
    if (got != net::IoStatus::Ok || reply.id != id) {
        socket.close();
        m_transport_failures_->add(1);
        std::unique_lock<std::mutex> lock(stats_mutex_);
        ++client_stats_.transport_failures;
        return false;
    }
    m_response_bytes_->add(net::kFrameHeaderBytes + reply.payload.size());
    m_round_trip_us_->observe(
        std::chrono::duration<double, std::micro>(
            obs::TraceRecorder::Clock::now() - rpc_start)
            .count());
    return true;
}

void
RemoteNodeClient::retrySingles(net::Socket &socket,
                               std::vector<Pending> &group)
{
    const bool inject = peerVersion() >= 2;
    for (std::size_t i = 0; i < group.size(); ++i) {
        auto &pending = group[i];
        rpc::SearchRequest request;
        request.k = pending.k;
        request.params = pending.params;
        request.deadline_ms = options_.request_deadline_ms;
        request.query = pending.query;
        net::Frame reply;
        bool ok;
        {
            // rpc.search spans the wire round trip; the injected
            // context's parent is the span itself, so shard-side spans
            // nest under it. Scope closes before the reply is acted on
            // so a per-query retry never runs inside another request's
            // context.
            std::optional<obs::TraceContext> trace_context;
            std::optional<obs::ScopedSpan> span;
            if (pending.trace.active) {
                trace_context.emplace(pending.trace);
                span.emplace("rpc.search");
                span->arg("endpoint", endpoint_);
                if (inject) {
                    request.trace = obs::currentTraceContext();
                } else {
                    span->arg("peer_untraced", std::string("v1"));
                }
            }
            m_batch_size_->observe(1.0);
            ok = ensureConnected(socket) &&
                roundTrip(socket, rpc::Type::SearchRequest,
                          rpc::encodeSearchRequest(request), reply);
        }
        if (!ok) {
            pending.promise.set_exception(std::make_exception_ptr(
                remoteError("transport failure to " + options_.host + ":" +
                            std::to_string(options_.port))));
            continue;
        }
        if (static_cast<rpc::Type>(reply.type) ==
            rpc::Type::SearchResponse) {
            try {
                pending.promise.set_value(
                    rpc::decodeSearchResponse(reply.payload));
                continue;
            } catch (const std::exception &e) {
                socket.close();
                pending.promise.set_exception(
                    std::make_exception_ptr(remoteError(e.what())));
                continue;
            }
        }
        std::string reason = "unexpected frame type " +
            std::to_string(reply.type);
        if (static_cast<rpc::Type>(reply.type) ==
            rpc::Type::ErrorResponse) {
            rpc::ErrorCode code = rpc::ErrorCode::Internal;
            try {
                rpc::ErrorBody body = rpc::decodeError(reply.payload);
                reason = body.message;
                code = body.code;
            } catch (const std::exception &) {
            }
            countRemoteError(code);
            {
                std::unique_lock<std::mutex> lock(stats_mutex_);
                ++client_stats_.remote_errors;
            }
        } else {
            socket.close();
        }
        pending.promise.set_exception(
            std::make_exception_ptr(remoteError(reason)));
    }
    group.clear();
}

void
RemoteNodeClient::runRpc(net::Socket &socket, std::vector<Pending> &group)
{
    if (!ensureConnected(socket)) {
        failGroup(group, "cannot reach " + options_.host + ":" +
                             std::to_string(options_.port));
        return;
    }

    if (group.size() == 1) {
        retrySingles(socket, group); // the single path IS the retry path
        return;
    }

    const auto &head = group.front();
    rpc::SearchBatchRequest request;
    request.k = head.k;
    request.params = head.params;
    request.deadline_ms = options_.request_deadline_ms;
    request.dim = head.query.size();
    request.queries.reserve(group.size() * request.dim);
    for (const auto &pending : group) {
        request.queries.insert(request.queries.end(),
                               pending.query.begin(), pending.query.end());
    }
    {
        std::unique_lock<std::mutex> lock(stats_mutex_);
        ++client_stats_.batched_rpcs;
        client_stats_.batched_requests += group.size();
    }

    net::Frame reply;
    bool sent_ok;
    {
        // One rpc.search_batch span per coalesced RPC, opened in the
        // first traced member's context. Members of *other* traces (a
        // coalesced RPC can mix them) keep their own identity on the
        // wire, parented to their original broker-side span.
        std::optional<obs::TraceContext> trace_context;
        std::optional<obs::ScopedSpan> span;
        obs::TraceContextSnapshot span_ctx;
        for (const auto &pending : group) {
            if (pending.trace.active) {
                span_ctx = pending.trace;
                break;
            }
        }
        if (span_ctx.active) {
            trace_context.emplace(span_ctx);
            span.emplace("rpc.search_batch");
            span->arg("endpoint", endpoint_);
            span->arg("requests",
                      static_cast<std::uint64_t>(group.size()));
        }
        if (peerVersion() >= 2 && span && span->active()) {
            request.traces.resize(group.size());
            for (std::size_t i = 0; i < group.size(); ++i) {
                const auto &trace = group[i].trace;
                if (!trace.active)
                    continue;
                request.traces[i] = trace;
                if (trace.trace_id == span_ctx.trace_id)
                    request.traces[i].parent_span_id = span->spanId();
            }
        }
        m_batch_size_->observe(static_cast<double>(group.size()));
        sent_ok = roundTrip(socket, rpc::Type::SearchBatchRequest,
                            rpc::encodeSearchBatchRequest(request), reply);
    }
    if (!sent_ok) {
        failGroup(group, "transport failure to " + options_.host + ":" +
                             std::to_string(options_.port));
        return;
    }

    switch (static_cast<rpc::Type>(reply.type)) {
      case rpc::Type::SearchBatchResponse: {
        std::vector<NodeResponse> responses;
        try {
            responses = rpc::decodeSearchBatchResponse(reply.payload);
        } catch (const std::exception &e) {
            socket.close();
            failGroup(group, e.what());
            return;
        }
        if (responses.size() != group.size()) {
            socket.close();
            failGroup(group, "batch response cardinality mismatch");
            return;
        }
        for (std::size_t i = 0; i < group.size(); ++i)
            group[i].promise.set_value(std::move(responses[i]));
        group.clear();
        return;
      }
      case rpc::Type::ErrorResponse: {
        rpc::ErrorCode code = rpc::ErrorCode::Internal;
        try {
            code = rpc::decodeError(reply.payload).code;
        } catch (const std::exception &) {
        }
        countRemoteError(code);
        {
            std::unique_lock<std::mutex> lock(stats_mutex_);
            ++client_stats_.remote_errors;
        }
        // A batch-level fault (one poisoned query, a shard-side
        // timeout) must not fail its neighbours: retry each request
        // as its own RPC so only the guilty one carries the error.
        retrySingles(socket, group);
        return;
      }
      default:
        socket.close();
        failGroup(group,
                  "unexpected frame type " + std::to_string(reply.type));
        return;
    }
}

bool
RemoteNodeClient::controlRoundTrip(rpc::Type type,
                                   std::string_view payload,
                                   net::Frame &reply) const
{
    std::unique_lock<std::mutex> lock(control_mutex_);
    auto attempt = [&](bool &dialed) {
        dialed = false;
        if (!control_socket_.valid()) {
            std::string error;
            control_socket_ = net::connectTo(
                options_.host, options_.port,
                options_.connect_timeout_ms, &error);
            if (!control_socket_.valid())
                return false;
            dialed = true;
        }
        std::uint64_t id = next_id_.fetch_add(1);
        net::IoStatus sent = net::sendFrame(
            control_socket_, static_cast<std::uint32_t>(type), id,
            payload, net::Deadline::after(kControlBudgetMs));
        if (sent != net::IoStatus::Ok) {
            control_socket_.close();
            return false;
        }
        net::IoStatus got = net::recvFrame(
            control_socket_, reply,
            net::Deadline::after(kControlBudgetMs));
        if (got != net::IoStatus::Ok || reply.id != id) {
            control_socket_.close();
            return false;
        }
        return true;
    };
    bool dialed = false;
    if (attempt(dialed))
        return true;
    // A failure over a pre-existing connection usually means the socket
    // went stale behind our back (shard restarted since the last stats
    // call); one fresh dial answers instead of reporting the shard down.
    return !dialed && attempt(dialed);
}

} // namespace serve
} // namespace hermes
