/**
 * @file
 * Tests for the net:: transport (deadline I/O, framing, wire codec),
 * the shard RPC protocol, the out-of-process serving path (ShardServer
 * + RemoteNodeClient, including broker-level bit-parity with the
 * in-process path), and regression coverage for the HTTP exporter's
 * socket-layer fixes.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <pthread.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/distributed_store.hpp"
#include "net/frame.hpp"
#include "net/net.hpp"
#include "obs/exporter.hpp"
#include "serve/broker.hpp"
#include "serve/remote_node.hpp"
#include "serve/replica_map.hpp"
#include "serve/rpc.hpp"
#include "serve/shard_server.hpp"
#include "util/minijson.hpp"
#include "util/serialize.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

/** Listener + connected client/server socket pair on loopback. */
struct Loopback
{
    net::Listener listener;
    net::Socket client;
    net::Socket server;

    Loopback()
    {
        std::string error;
        EXPECT_TRUE(listener.open("127.0.0.1", 0, 16, &error)) << error;
        client = net::connectTo("127.0.0.1", listener.port(), 1000.0,
                                &error);
        EXPECT_TRUE(client.valid()) << error;
        server = listener.acceptFor(1000.0);
        EXPECT_TRUE(server.valid());
    }
};

/** Shared corpus/store for the serving-over-the-wire tests. */
struct NetServeData
{
    workload::Corpus corpus;
    workload::QuerySet queries;
    core::HermesConfig config;
    std::unique_ptr<core::DistributedStore> store;
};

const NetServeData &
netServeData()
{
    static NetServeData data = [] {
        NetServeData out;
        workload::CorpusConfig cc;
        cc.num_docs = 4000;
        cc.dim = 16;
        cc.num_topics = 12;
        cc.seed = 77;
        out.corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 32;
        qc.seed = 78;
        out.queries = workload::generateQueries(out.corpus, qc);

        out.config.num_clusters = 6;
        out.config.clusters_to_search = 2;
        out.config.sample_nprobe = 2;
        out.config.deep_nprobe = 16;
        out.config.partition.seeds_to_try = 2;
        out.store = std::make_unique<core::DistributedStore>(
            core::DistributedStore::build(out.corpus.embeddings,
                                          out.config));
        return out;
    }();
    return data;
}

} // namespace

// ---------------------------------------------------------------------------
// Wire codec (util::ByteWriter / ByteReader)

TEST(Wire, RoundTrip)
{
    util::ByteWriter writer;
    writer.u8(7);
    writer.u32(0xdeadbeefu);
    writer.u64(0x0123456789abcdefull);
    writer.i64(-42);
    writer.f32(1.5f);
    writer.f64(-2.25);
    writer.str("hello");
    std::vector<float> floats = {0.0f, -1.0f, 3.25f};
    writer.vec(floats);
    std::string payload = writer.take();

    util::ByteReader reader(payload);
    EXPECT_EQ(reader.u8(), 7u);
    EXPECT_EQ(reader.u32(), 0xdeadbeefu);
    EXPECT_EQ(reader.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(reader.i64(), -42);
    EXPECT_EQ(reader.f32(), 1.5f);
    EXPECT_EQ(reader.f64(), -2.25);
    EXPECT_EQ(reader.str(), "hello");
    EXPECT_EQ(reader.vec<float>(), floats);
    EXPECT_TRUE(reader.atEnd());
    EXPECT_NO_THROW(reader.expectEnd());
}

TEST(Wire, TruncationAndTrailingGarbageThrow)
{
    util::ByteWriter writer;
    writer.u64(1);
    writer.str("payload");
    std::string payload = writer.take();

    // Every proper prefix must throw, never decode short.
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        util::ByteReader reader(
            std::string_view(payload.data(), cut));
        EXPECT_THROW(
            {
                reader.u64();
                reader.str();
            },
            util::FormatError)
            << "prefix length " << cut;
    }

    std::string padded = payload + '\0';
    util::ByteReader reader(padded);
    reader.u64();
    reader.str();
    EXPECT_THROW(reader.expectEnd(), util::FormatError);
}

TEST(Wire, FloatCountOverflowThrowsInsteadOfAllocating)
{
    // A count chosen so n * sizeof(float) wraps mod 2^64 to 4: the old
    // need(n * 4) check passed, then std::vector<float>(n) threw
    // length_error — which escaped catches of the codec's own error
    // type and std::terminate'd the connection thread. It must be a
    // FormatError raised before any allocation is sized from n.
    util::ByteWriter writer;
    writer.u64((1ull << 62) + 1);
    writer.f32(0.0f); // the 4 "available" bytes the wrapped check saw
    util::ByteReader reader(writer.buffer());
    EXPECT_THROW(reader.vec<float>(), util::FormatError);

    // A huge non-wrapping count must also be rejected pre-allocation.
    util::ByteWriter big;
    big.u64(0xffffffffffffffffull);
    util::ByteReader big_reader(big.buffer());
    EXPECT_THROW(big_reader.vec<float>(), util::FormatError);
}

// ---------------------------------------------------------------------------
// Framing

TEST(Frame, RoundTripOverLoopback)
{
    Loopback pair;
    std::string payload = "framed payload";
    ASSERT_EQ(net::sendFrame(pair.client, 3, 99, payload,
                             net::Deadline::after(1000.0)),
              net::IoStatus::Ok);

    net::Frame frame;
    ASSERT_EQ(net::recvFrame(pair.server, frame,
                             net::Deadline::after(1000.0)),
              net::IoStatus::Ok);
    EXPECT_EQ(frame.type, 3u);
    EXPECT_EQ(frame.id, 99u);
    EXPECT_EQ(frame.payload, payload);
}

TEST(Frame, LargePayloadSurvivesShortWrites)
{
    Loopback pair;
    // Well past any socket buffer, so writeAll must take many partial
    // sends and poll for writability in between.
    std::string payload(8u << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 2654435761u >> 16);

    std::thread sender([&] {
        EXPECT_EQ(net::sendFrame(pair.client, 1, 7, payload,
                                 net::Deadline::after(10000.0)),
                  net::IoStatus::Ok);
    });
    net::Frame frame;
    ASSERT_EQ(net::recvFrame(pair.server, frame,
                             net::Deadline::after(10000.0)),
              net::IoStatus::Ok);
    sender.join();
    ASSERT_EQ(frame.payload.size(), payload.size());
    EXPECT_EQ(frame.payload, payload);
}

TEST(Frame, TornFrameIsClosedNotShortOk)
{
    Loopback pair;
    // A valid header promising 100 bytes, then only 10 and a close.
    std::string torn;
    auto putU32 = [&](std::uint32_t v) {
        char buf[4];
        std::memcpy(buf, &v, 4);
        torn.append(buf, 4);
    };
    auto putU64 = [&](std::uint64_t v) {
        char buf[8];
        std::memcpy(buf, &v, 8);
        torn.append(buf, 8);
    };
    putU32(net::kFrameMagic);
    putU32(1);
    putU64(5);
    putU64(100);
    torn.append(10, 'x');
    ASSERT_TRUE(net::writeAll(pair.client, torn.data(), torn.size(),
                              net::Deadline::after(1000.0))
                    .ok());
    pair.client.close();

    net::Frame frame;
    EXPECT_EQ(net::recvFrame(pair.server, frame,
                             net::Deadline::after(1000.0)),
              net::IoStatus::Closed);
}

TEST(Frame, BadMagicAndOversizedLengthAreErrors)
{
    {
        Loopback pair;
        std::string garbage(net::kFrameHeaderBytes, '\x5a');
        ASSERT_TRUE(net::writeAll(pair.client, garbage.data(),
                                  garbage.size(),
                                  net::Deadline::after(1000.0))
                        .ok());
        net::Frame frame;
        EXPECT_EQ(net::recvFrame(pair.server, frame,
                                 net::Deadline::after(1000.0)),
                  net::IoStatus::Error);
    }
    {
        Loopback pair;
        std::string header;
        auto putU32 = [&](std::uint32_t v) {
            char buf[4];
            std::memcpy(buf, &v, 4);
            header.append(buf, 4);
        };
        auto putU64 = [&](std::uint64_t v) {
            char buf[8];
            std::memcpy(buf, &v, 8);
            header.append(buf, 8);
        };
        putU32(net::kFrameMagic);
        putU32(1);
        putU64(1);
        putU64(1u << 20); // over the 64 KiB cap below
        ASSERT_TRUE(net::writeAll(pair.client, header.data(),
                                  header.size(),
                                  net::Deadline::after(1000.0))
                        .ok());
        net::Frame frame;
        EXPECT_EQ(net::recvFrame(pair.server, frame,
                                 net::Deadline::after(1000.0),
                                 /*max_payload=*/64u << 10),
                  net::IoStatus::Error);
    }
}

TEST(Frame, DeadlineExpiryIsTimeout)
{
    Loopback pair;
    auto start = std::chrono::steady_clock::now();
    net::Frame frame;
    EXPECT_EQ(net::recvFrame(pair.server, frame,
                             net::Deadline::after(50.0)),
              net::IoStatus::Timeout);
    double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(waited_ms, 40.0);
    EXPECT_LE(waited_ms, 2000.0);
}

// ---------------------------------------------------------------------------
// EINTR robustness

namespace {
void
noopHandler(int)
{
}
} // namespace

TEST(Net, TransferSurvivesSignalStorm)
{
    // Install a SIGUSR1 handler WITHOUT SA_RESTART, so every signal
    // makes blocking syscalls fail with EINTR — the regression the old
    // exporter write loop had.
    struct sigaction action{};
    struct sigaction previous{};
    action.sa_handler = noopHandler;
    action.sa_flags = 0;
    sigemptyset(&action.sa_mask);
    ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

    Loopback pair;
    std::string payload(4u << 20, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<char>(i * 40503u >> 8);

    std::atomic<bool> sender_done{false};
    std::atomic<bool> receiver_done{false};
    std::string received;
    std::thread sender([&] {
        EXPECT_EQ(net::sendFrame(pair.client, 1, 1, payload,
                                 net::Deadline::after(15000.0)),
                  net::IoStatus::Ok);
        sender_done.store(true);
    });
    std::thread receiver([&] {
        net::Frame frame;
        EXPECT_EQ(net::recvFrame(pair.server, frame,
                                 net::Deadline::after(15000.0)),
                  net::IoStatus::Ok);
        received = std::move(frame.payload);
        receiver_done.store(true);
    });
    // Handles taken on this thread, before the storm starts — no
    // cross-thread handoff to race on. Signaling stops before the
    // joins below, so the handles are live (or zombie, which
    // pthread_kill tolerates) for every kill.
    pthread_t sender_thread = sender.native_handle();
    pthread_t receiver_thread = receiver.native_handle();

    std::thread storm([&] {
        // Hammer both I/O threads with signals for the whole transfer.
        while (!sender_done.load() || !receiver_done.load()) {
            if (!sender_done.load())
                pthread_kill(sender_thread, SIGUSR1);
            if (!receiver_done.load())
                pthread_kill(receiver_thread, SIGUSR1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    storm.join();
    sender.join();
    receiver.join();
    sigaction(SIGUSR1, &previous, nullptr);

    EXPECT_EQ(received, payload);
}

TEST(Net, AcceptForNonPositiveTimeoutPollsWithoutBlocking)
{
    net::Listener listener;
    std::string error;
    ASSERT_TRUE(listener.open("127.0.0.1", 0, 16, &error)) << error;

    // Contract: acceptFor(<= 0) is a non-blocking poll. It used to
    // feed 0 into Deadline::after(), which reads <= 0 as infinite and
    // blocked in poll() forever.
    auto start = std::chrono::steady_clock::now();
    net::Socket none = listener.acceptFor(0.0);
    double elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_FALSE(none.valid());
    EXPECT_LT(elapsed_ms, 1000.0);

    // With a connection pending, the zero-timeout poll must accept it.
    net::Socket client =
        net::connectTo("127.0.0.1", listener.port(), 1000.0, &error);
    ASSERT_TRUE(client.valid()) << error;
    net::Socket accepted;
    for (int i = 0; i < 200 && !accepted.valid(); ++i) {
        accepted = listener.acceptFor(0.0);
        if (!accepted.valid())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(accepted.valid());
}

// ---------------------------------------------------------------------------
// RPC codec

TEST(Rpc, SearchRequestRoundTrip)
{
    serve::rpc::SearchRequest request;
    request.k = 7;
    request.params.nprobe = 9;
    request.params.ef_search = 33;
    request.params.prune_ratio = 0.75;
    request.params.batch_min_scan_floats = 4096;
    request.deadline_ms = 1234.5;
    request.query = {1.0f, -2.0f, 0.25f};

    auto decoded = serve::rpc::decodeSearchRequest(
        serve::rpc::encodeSearchRequest(request));
    EXPECT_EQ(decoded.k, request.k);
    EXPECT_EQ(decoded.params.nprobe, request.params.nprobe);
    EXPECT_EQ(decoded.params.ef_search, request.params.ef_search);
    EXPECT_EQ(decoded.params.prune_ratio, request.params.prune_ratio);
    EXPECT_EQ(decoded.params.batch_min_scan_floats,
              request.params.batch_min_scan_floats);
    EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
    EXPECT_EQ(decoded.query, request.query);
}

TEST(Rpc, ResponsesAndErrorsRoundTrip)
{
    serve::NodeResponse response;
    response.hits.push_back({42, 0.125f});
    response.hits.push_back({7, -3.5f});
    response.stats.vectors_scanned = 100;
    response.stats.lists_probed = 4;

    auto decoded = serve::rpc::decodeSearchResponse(
        serve::rpc::encodeSearchResponse(response));
    ASSERT_EQ(decoded.hits.size(), 2u);
    EXPECT_EQ(decoded.hits[0].id, 42);
    EXPECT_EQ(decoded.hits[0].score, 0.125f);
    EXPECT_EQ(decoded.hits[1].id, 7);
    EXPECT_EQ(decoded.hits[1].score, -3.5f);
    EXPECT_EQ(decoded.stats.vectors_scanned, 100u);
    EXPECT_EQ(decoded.stats.lists_probed, 4u);

    auto batch = serve::rpc::decodeSearchBatchResponse(
        serve::rpc::encodeSearchBatchResponse({response, response}));
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[1].hits.size(), 2u);

    auto error = serve::rpc::decodeError(serve::rpc::encodeError(
        serve::rpc::ErrorCode::Timeout, "deadline blown"));
    EXPECT_EQ(error.code, serve::rpc::ErrorCode::Timeout);
    EXPECT_EQ(error.message, "deadline blown");
}

TEST(Rpc, DecodeRejectsTruncatedAndTrailingBytes)
{
    serve::rpc::SearchRequest request;
    request.k = 3;
    request.query = {1.0f, 2.0f};
    std::string payload = serve::rpc::encodeSearchRequest(request);

    EXPECT_THROW(serve::rpc::decodeSearchRequest(
                     std::string_view(payload.data(), payload.size() - 1)),
                 util::FormatError);
    EXPECT_THROW(serve::rpc::decodeSearchRequest(payload + 'x'),
                 util::FormatError);
}

TEST(Rpc, DecodeBoundsClaimedCountsByPayloadSize)
{
    // Hit/response counts are untrusted u32s off the wire; a claim of
    // ~4e9 elements over a tiny payload must throw FormatError before
    // reserve() attempts a multi-GB allocation (bad_alloc previously
    // escaped the codec-error-only catches on broker worker threads).
    util::ByteWriter hits;
    hits.u32(0xfffffffeu);
    hits.i64(3);
    hits.f32(1.0f);
    EXPECT_THROW(serve::rpc::decodeSearchResponse(hits.buffer()),
                 util::FormatError);

    util::ByteWriter batch;
    batch.u32(0xfffffffeu);
    EXPECT_THROW(serve::rpc::decodeSearchBatchResponse(batch.buffer()),
                 util::FormatError);
}

// ---------------------------------------------------------------------------
// Shard server + remote client

TEST(ShardRpc, RemoteSearchMatchesDirectShard)
{
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(0);
    serve::ShardServer server(shard, {});
    ASSERT_TRUE(server.start());

    serve::RemoteNodeOptions options;
    options.port = server.port();
    serve::RemoteNodeClient client(options);

    serve::rpc::HealthResponse health;
    ASSERT_TRUE(client.health(&health));
    EXPECT_EQ(health.protocol_version, serve::rpc::kProtocolVersion);
    EXPECT_EQ(health.dim, 16u);
    EXPECT_EQ(health.shard_vectors, shard.size());
    EXPECT_EQ(client.shardSize(), shard.size());

    index::SearchParams params;
    params.nprobe = 8;
    for (std::size_t q = 0; q < 8; ++q) {
        auto remote =
            client.submit(data.queries.embeddings.row(q), 5, params)
                .get();
        auto direct =
            shard.search(data.queries.embeddings.row(q), 5, params);
        ASSERT_EQ(remote.hits.size(), direct.size());
        for (std::size_t i = 0; i < direct.size(); ++i) {
            EXPECT_EQ(remote.hits[i].id, direct[i].id);
            EXPECT_EQ(remote.hits[i].score, direct[i].score);
        }
    }

    auto stats = client.stats();
    EXPECT_EQ(stats.requests, 8u);
    server.stop();
}

TEST(ShardRpc, ConcurrentSubmitsCoalesceIntoBatchRpcs)
{
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(1);
    serve::ShardServer server(shard, {});
    ASSERT_TRUE(server.start());

    serve::RemoteNodeOptions options;
    options.port = server.port();
    options.connections = 1; // one wire => queue backs up => coalescing
    serve::RemoteNodeClient client(options);

    index::SearchParams params;
    params.nprobe = 4;
    std::vector<std::future<serve::NodeResponse>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(client.submit(
            data.queries.embeddings.row(i % 32), 3, params));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        auto remote = futures[i].get();
        auto direct = shard.search(
            data.queries.embeddings.row(i % 32), 3, params);
        ASSERT_EQ(remote.hits.size(), direct.size());
        for (std::size_t j = 0; j < direct.size(); ++j) {
            EXPECT_EQ(remote.hits[j].id, direct[j].id);
            EXPECT_EQ(remote.hits[j].score, direct[j].score);
        }
    }

    auto cs = client.clientStats();
    EXPECT_GT(cs.batched_rpcs, 0u) << "no SearchBatch RPC ever formed";
    EXPECT_GT(cs.batched_requests, cs.batched_rpcs);
    EXPECT_EQ(cs.transport_failures, 0u);
    EXPECT_EQ(cs.remote_errors, 0u);
    server.stop();
}

TEST(ShardRpc, PeerDisconnectMidResponseFailsTheFuture)
{
    // A fake shard that accepts, reads the request frame, then hangs up
    // without answering — the client must fail the future (broker
    // semantics: counted failure, retried), not hang or crash.
    net::Listener listener;
    ASSERT_TRUE(listener.open("127.0.0.1", 0));
    std::thread fake([&] {
        for (int i = 0; i < 2; ++i) {
            net::Socket conn = listener.acceptFor(5000.0);
            if (!conn.valid())
                continue;
            net::Frame frame;
            net::recvFrame(conn, frame, net::Deadline::after(2000.0));
            conn.close(); // mid-RPC hangup
        }
    });

    serve::RemoteNodeOptions options;
    options.port = listener.port();
    options.connections = 1;
    options.request_deadline_ms = 1000.0;
    serve::RemoteNodeClient client(options);

    std::vector<float> query(16, 0.5f);
    index::SearchParams params;
    auto future = client.submit(
        vecstore::VecView(query.data(), query.size()), 3, params);
    EXPECT_THROW(future.get(), std::exception);
    fake.join();
}

TEST(ShardRpc, ClientReconnectsAfterShardRestart)
{
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(2);

    auto server = std::make_unique<serve::ShardServer>(
        shard, serve::ShardServerOptions{});
    ASSERT_TRUE(server->start());
    std::uint16_t port = server->port();

    serve::RemoteNodeOptions options;
    options.port = port;
    options.connections = 1;
    options.request_deadline_ms = 1000.0;
    serve::RemoteNodeClient client(options);

    index::SearchParams params;
    params.nprobe = 4;
    auto query = data.queries.embeddings.row(0);
    auto before = client.submit(query, 3, params).get();

    // Kill the shard: in-flight/new requests fail (the broker would
    // count failures and degrade) ...
    server->stop();
    server.reset();
    EXPECT_THROW(client.submit(query, 3, params).get(), std::exception);

    // ... and a restart on the same port is picked up by the client's
    // dial-on-demand without any explicit reset.
    serve::ShardServerOptions reopts;
    reopts.port = port;
    server = std::make_unique<serve::ShardServer>(shard, reopts);
    ASSERT_TRUE(server->start());

    serve::NodeResponse after;
    bool recovered = false;
    for (int attempt = 0; attempt < 5 && !recovered; ++attempt) {
        try {
            after = client.submit(query, 3, params).get();
            recovered = true;
        } catch (const std::exception &) {
        }
    }
    ASSERT_TRUE(recovered);
    ASSERT_EQ(after.hits.size(), before.hits.size());
    for (std::size_t i = 0; i < after.hits.size(); ++i) {
        EXPECT_EQ(after.hits[i].id, before.hits[i].id);
        EXPECT_EQ(after.hits[i].score, before.hits[i].score);
    }
    EXPECT_GT(client.clientStats().reconnects, 0u);
    server->stop();
}

TEST(ShardRpc, OverflowingLengthPrefixAnsweredAsBadRequest)
{
    // Regression for the wire-codec overflow: a crafted SearchRequest
    // whose float-count prefix wraps n * sizeof(float) mod 2^64 used
    // to throw std::length_error past the codec-error-only catch in
    // dispatch(), escaping the connection thread and std::terminate'ing
    // the shard process. It must answer BadRequest and keep serving.
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(0);
    serve::ShardServer server(shard, {});
    ASSERT_TRUE(server.start());

    std::string error;
    net::Socket client =
        net::connectTo("127.0.0.1", server.port(), 1000.0, &error);
    ASSERT_TRUE(client.valid()) << error;

    util::ByteWriter evil;
    evil.u64(1);                // k
    evil.u64(1);                // nprobe
    evil.u64(0);                // ef_search
    evil.f64(0.0);              // prune_ratio
    evil.u64(0);                // batch_min_scan_floats
    evil.f64(0.0);              // deadline_ms
    evil.u64((1ull << 62) + 1); // query float count: * 4 wraps to 4
    evil.f32(0.0f);
    ASSERT_EQ(net::sendFrame(
                  client,
                  static_cast<std::uint32_t>(
                      serve::rpc::Type::SearchRequest),
                  7, evil.buffer(), net::Deadline::after(1000.0)),
              net::IoStatus::Ok);

    net::Frame reply;
    ASSERT_EQ(net::recvFrame(client, reply, net::Deadline::after(5000.0)),
              net::IoStatus::Ok);
    ASSERT_EQ(static_cast<serve::rpc::Type>(reply.type),
              serve::rpc::Type::ErrorResponse);
    EXPECT_EQ(serve::rpc::decodeError(reply.payload).code,
              serve::rpc::ErrorCode::BadRequest);

    // Same connection, well-formed request: the shard must still serve.
    serve::rpc::SearchRequest request;
    request.k = 3;
    request.params.nprobe = 1;
    request.query.assign(shard.dim(), 0.0f);
    ASSERT_EQ(net::sendFrame(
                  client,
                  static_cast<std::uint32_t>(
                      serve::rpc::Type::SearchRequest),
                  8, serve::rpc::encodeSearchRequest(request),
                  net::Deadline::after(1000.0)),
              net::IoStatus::Ok);
    ASSERT_EQ(net::recvFrame(client, reply, net::Deadline::after(5000.0)),
              net::IoStatus::Ok);
    EXPECT_EQ(static_cast<serve::rpc::Type>(reply.type),
              serve::rpc::Type::SearchResponse);
    EXPECT_EQ(reply.id, 8u);
    server.stop();
}

TEST(ShardRpc, FinishedConnectionHandlersAreReaped)
{
    // A long-lived shard serving many short connections must join
    // handler threads as they finish, not hoard them until stop().
    const auto &data = netServeData();
    const auto &shard = data.store->clusterIndex(0);
    serve::ShardServer server(shard, {});
    ASSERT_TRUE(server.start());

    constexpr int kConnections = 4;
    for (int i = 0; i < kConnections; ++i) {
        std::string error;
        net::Socket client =
            net::connectTo("127.0.0.1", server.port(), 1000.0, &error);
        ASSERT_TRUE(client.valid()) << error;
        client.close();
    }

    // Handlers notice the close within an idle tick (~100 ms) and the
    // accept loop reaps on its next tick.
    bool reaped = false;
    for (int i = 0; i < 100 && !reaped; ++i) {
        reaped = server.stats().connections_reaped >= kConnections;
        if (!reaped)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(reaped) << "reaped " << server.stats().connections_reaped
                        << " of " << kConnections;
    server.stop();
}

TEST(ShardRpc, BrokerBitParityInProcessVsRemote)
{
    const auto &data = netServeData();

    // One ShardServer per cluster, a RemoteNodeClient each, and a
    // broker on top — against the reference broker over in-process
    // nodes on the same store. Hit lists must match bit for bit.
    std::vector<std::unique_ptr<serve::ShardServer>> servers;
    std::vector<std::unique_ptr<serve::NodeClient>> remotes;
    for (std::size_t c = 0; c < data.store->numClusters(); ++c) {
        serve::ShardServerOptions options;
        options.node.node_id = c;
        servers.push_back(std::make_unique<serve::ShardServer>(
            data.store->clusterIndex(c), options));
        ASSERT_TRUE(servers.back()->start());

        serve::RemoteNodeOptions ro;
        ro.port = servers.back()->port();
        ro.request_deadline_ms = 2000.0;
        remotes.push_back(
            std::make_unique<serve::RemoteNodeClient>(ro));
    }

    serve::HermesBroker local(*data.store, {});
    obs::Registry metrics;
    serve::HermesBroker remote(data.config, std::move(remotes), {},
                               metrics);

    for (std::size_t q = 0; q < 16; ++q) {
        auto query = data.queries.embeddings.row(q);
        auto expect = local.search(query, 10);
        auto got = remote.search(query, 10);
        ASSERT_EQ(got.size(), expect.size()) << "query " << q;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got[i].id, expect[i].id) << "query " << q;
            EXPECT_EQ(got[i].score, expect[i].score) << "query " << q;
        }
    }

    auto stats = remote.stats();
    EXPECT_EQ(stats.queries, 16u);
    EXPECT_EQ(stats.failures, 0u);
    EXPECT_EQ(stats.timeouts, 0u);
    for (auto &server : servers)
        server->stop();
}

TEST(ShardRpc, ReplicatedRemoteBrokerParityAndFailover)
{
    const auto &data = netServeData();

    // Fleet: one ShardServer per cluster plus a second, bit-identical
    // copy of cluster 1 (same immutable shard, node index 6). The
    // broker's replica map routes cluster 1 over both copies via p2c.
    std::vector<std::unique_ptr<serve::ShardServer>> servers;
    std::vector<std::unique_ptr<serve::NodeClient>> remotes;
    auto addServer = [&](std::size_t cluster) {
        serve::ShardServerOptions options;
        options.node.node_id = cluster;
        servers.push_back(std::make_unique<serve::ShardServer>(
            data.store->clusterIndex(cluster), options));
        ASSERT_TRUE(servers.back()->start());
        serve::RemoteNodeOptions ro;
        ro.port = servers.back()->port();
        ro.request_deadline_ms = 1000.0;
        remotes.push_back(std::make_unique<serve::RemoteNodeClient>(ro));
    };
    for (std::size_t c = 0; c < data.store->numClusters(); ++c)
        addServer(c);
    addServer(1); // replica of cluster 1

    serve::BrokerConfig bc;
    bc.replica_map = serve::ReplicaMap::identity(data.store->numClusters());
    bc.replica_map.assign(1, 6);
    bc.node_deadline_ms = 1500.0;
    bc.max_retries = 1;
    bc.hedge.min_samples = 4;
    serve::HermesBroker local(*data.store, {});
    obs::Registry metrics;
    serve::HermesBroker remote(data.config, std::move(remotes), bc, metrics);

    auto expectParity = [&](std::size_t q) {
        auto query = data.queries.embeddings.row(q);
        auto expect = local.search(query, 10);
        auto got = remote.search(query, 10);
        ASSERT_EQ(got.size(), expect.size()) << "query " << q;
        for (std::size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got[i].id, expect[i].id) << "query " << q;
            EXPECT_EQ(got[i].score, expect[i].score) << "query " << q;
        }
    };

    for (std::size_t q = 0; q < 12; ++q)
        expectParity(q);

    // Kill the replica mid-run (SIGKILL equivalent: server torn down,
    // connections die). Every later query must still return the full,
    // bit-identical top-k off the surviving copy — routed-to-dead
    // probes fail fast or time out and fail over.
    servers.back()->stop();
    for (std::size_t q = 12; q < 24; ++q)
        expectParity(q);

    // Queries that hit the dead copy count failures/timeouts (and are
    // flagged degraded — that flag means "saw a fault", not "lost
    // hits"), but every one of them recovered to the full top-k above.
    auto stats = remote.stats();
    EXPECT_EQ(stats.queries, 24u);
    EXPECT_GT(stats.failures + stats.timeouts, 0u);
    ASSERT_EQ(stats.node_clusters.size(), 7u);
    EXPECT_EQ(stats.node_clusters[6], 1u);
    for (auto &server : servers)
        server->stop();
}

// ---------------------------------------------------------------------------
// HTTP exporter regressions

namespace {

/** Raw one-shot HTTP exchange against the exporter. */
std::string
rawHttpExchange(std::uint16_t port, const std::string &request)
{
    net::Socket socket = net::connectTo("127.0.0.1", port, 1000.0);
    EXPECT_TRUE(socket.valid());
    EXPECT_TRUE(net::writeAll(socket, request.data(), request.size(),
                              net::Deadline::after(1000.0))
                    .ok());
    std::string response;
    char buf[4096];
    for (;;) {
        auto got = net::readSome(socket, buf, sizeof(buf),
                                 net::Deadline::after(3000.0));
        if (!got.ok())
            break;
        response.append(buf, got.bytes);
    }
    return response;
}

} // namespace

TEST(HttpExporter, BareLfRequestHeadIsServed)
{
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());
    std::string response = rawHttpExchange(
        exporter.port(), "GET /healthz HTTP/1.0\nHost: x\n\n");
    EXPECT_NE(response.find(" 200 "), std::string::npos) << response;
    EXPECT_NE(response.find("ok"), std::string::npos);
    exporter.stop();
}

TEST(HttpExporter, OversizedHeadGets400)
{
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());
    std::string request = "GET /healthz HTTP/1.0\r\nX-Pad: " +
        std::string(10000, 'a') + "\r\n\r\n";
    std::string response = rawHttpExchange(exporter.port(), request);
    EXPECT_NE(response.find(" 400 "), std::string::npos) << response;
    exporter.stop();
}

TEST(HttpExporter, GarbageHeadGets400)
{
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());
    std::string response = rawHttpExchange(
        exporter.port(), std::string("\x01\x02\x03 binary\r\n\r\n"));
    EXPECT_NE(response.find(" 400 "), std::string::npos) << response;
    exporter.stop();
}

TEST(HttpExporter, NotFoundHeadIsPlainTextWithJsonBody)
{
    // The 404 contract: a text/plain head (curl prints it as-is) whose
    // body is still machine-parseable JSON naming the bad path.
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());
    std::string response = rawHttpExchange(
        exporter.port(), "GET /no-such-route HTTP/1.0\r\nHost: x\r\n\r\n");
    EXPECT_NE(response.find(" 404 "), std::string::npos) << response;
    EXPECT_NE(response.find("Content-Type: text/plain"),
              std::string::npos)
        << response;
    std::size_t body_at = response.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    auto parsed = util::json::parse(response.substr(body_at + 4));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.value.find("error")->stringOr(""), "unknown path");
    EXPECT_EQ(parsed.value.find("path")->stringOr(""), "/no-such-route");
    exporter.stop();
}

TEST(HttpExporter, HttpGetRoundTripAgainstExporter)
{
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());
    std::string body;
    std::string status;
    ASSERT_TRUE(obs::httpGet("127.0.0.1", exporter.port(), "/healthz",
                             &body, &status));
    EXPECT_EQ(body, "ok\n"); // exact: Content-Length honored
    EXPECT_NE(status.find("200"), std::string::npos);
    exporter.stop();
}

TEST(HttpExporter, HttpGetRejectsTruncatedBody)
{
    // A server that advertises 100 bytes, sends 10, and hangs up.
    net::Listener listener;
    ASSERT_TRUE(listener.open("127.0.0.1", 0));
    std::thread fake([&] {
        net::Socket conn = listener.acceptFor(5000.0);
        ASSERT_TRUE(conn.valid());
        char buf[1024];
        net::readSome(conn, buf, sizeof(buf),
                      net::Deadline::after(2000.0));
        std::string response = "HTTP/1.0 200 OK\r\n"
                               "Content-Length: 100\r\n"
                               "Connection: close\r\n\r\n"
                               "only ten b";
        net::writeAll(conn, response.data(), response.size(),
                      net::Deadline::after(2000.0));
        conn.close();
    });

    std::string body;
    std::string status;
    EXPECT_FALSE(obs::httpGet("127.0.0.1", listener.port(), "/x", &body,
                              &status));
    EXPECT_TRUE(body.empty());
    fake.join();
}
