/**
 * @file
 * Canonical metric-name catalog.
 *
 * Every instrumentation site references these constants instead of
 * spelling the string inline, so the full metric surface is greppable
 * in one place and a typo becomes a compile error instead of a silently
 * forked time series. docs/MONITORING.md documents the semantics of
 * each name.
 *
 * Per-cluster series are parameterized: nodeMetric(c, kNodeEnergyJoules)
 * yields "node.<c>.energy_j". Callers on hot paths must resolve the
 * name once (constructor / first loop iteration) and cache the metric
 * reference — Registry lookups take a lock.
 */

#pragma once

#include <cstddef>
#include <string>

namespace hermes {
namespace obs {
namespace names {

// --- broker (serve/broker.cpp) -------------------------------------------
inline constexpr const char *kBrokerQueries = "broker.queries";
inline constexpr const char *kBrokerDeepRequests = "broker.deep_requests";
inline constexpr const char *kBrokerTimeouts = "broker.timeouts";
inline constexpr const char *kBrokerFailures = "broker.failures";
inline constexpr const char *kBrokerDegradedQueries =
    "broker.degraded_queries";
inline constexpr const char *kBrokerQueryLatencyUs =
    "broker.query_latency_us";
inline constexpr const char *kBrokerSamplePhaseUs = "broker.sample_phase_us";
inline constexpr const char *kBrokerDeepPhaseUs = "broker.deep_phase_us";
inline constexpr const char *kBrokerMergePhaseUs = "broker.merge_phase_us";
/** Per-probe sample-phase completion latency (windowed; feeds the
 *  p95 hedge trigger). */
inline constexpr const char *kBrokerSampleProbeUs =
    "broker.sample_probe_us";
/** Hedged sample probes: duplicates issued past the windowed p95... */
inline constexpr const char *kBrokerHedgesIssued = "broker.hedges_issued";
/** ...won by the duplicate (the hedge paid off)... */
inline constexpr const char *kBrokerHedgesWon = "broker.hedges_won";
/** ...or lost to the primary after all (duplicate work discarded). */
inline constexpr const char *kBrokerHedgesWasted = "broker.hedges_wasted";

/** "broker.route.<cluster>.<slot>" — requests routed to each replica
 *  slot of a cluster by power-of-two-choices (slot 0 = primary). */
inline std::string
routeMetric(std::size_t cluster, std::size_t slot)
{
    return "broker.route." + std::to_string(cluster) + "." +
        std::to_string(slot);
}

// --- node, process-wide (serve/node.cpp) ---------------------------------
inline constexpr const char *kNodeQueueWaitUs = "node.queue_wait_us";
inline constexpr const char *kNodeBatchExecUs = "node.batch_exec_us";

// --- node, per-cluster suffixes (use nodeMetric()) -----------------------
// The first three are counted by the broker, in its own registry.
inline constexpr const char *kNodeSampleRequests = "sample_requests";
inline constexpr const char *kNodeDeepRequests = "deep_requests";
inline constexpr const char *kNodeHitsReturned = "hits_returned";
inline constexpr const char *kNodeQueueDepth = "queue_depth";
inline constexpr const char *kNodeBusySeconds = "busy_seconds";
inline constexpr const char *kNodeEnergyJoules = "energy_j";
inline constexpr const char *kNodeBatchOccupancy = "batch_occupancy";

/** "node.<cluster>.<suffix>" — the per-cluster series family. */
inline std::string
nodeMetric(std::size_t cluster, const char *suffix)
{
    return "node." + std::to_string(cluster) + "." + suffix;
}

// --- remote node client (serve/remote_node.cpp) --------------------------
/** Request frames sent (header + payload), both singles and batches. */
inline constexpr const char *kRpcRpcs = "rpc.rpcs";
inline constexpr const char *kRpcRequestBytes = "rpc.request_bytes";
inline constexpr const char *kRpcResponseBytes = "rpc.response_bytes";
/** Wall time of one wire round trip (send -> matched reply). */
inline constexpr const char *kRpcRoundTripUs = "rpc.round_trip_us";
/** Requests coalesced per RPC (1 = uncoalesced single). */
inline constexpr const char *kRpcBatchSize = "rpc.batch_size";
/** Successful (re)dials of a pooled data connection. */
inline constexpr const char *kRpcRedials = "rpc.redials";
inline constexpr const char *kRpcTransportFailures =
    "rpc.transport_failures";
/** Typed ErrorResponse frames received (any code). */
inline constexpr const char *kRpcRemoteErrors = "rpc.remote_errors";
/** Estimated clock offset (us) of shard <c>'s trace epoch relative to
 *  this process's, measured by the Health handshake (use rpcNodeMetric). */
inline constexpr const char *kRpcClockOffsetUs = "clock_offset_us";

/** "rpc.error.<code>" — per-error-code counter family. */
inline std::string
rpcErrorMetric(const char *code)
{
    return std::string("rpc.error.") + code;
}

/** "rpc.node.<cluster>.<suffix>" — per-remote-node series family. */
inline std::string
rpcNodeMetric(std::size_t cluster, const char *suffix)
{
    return "rpc.node." + std::to_string(cluster) + "." + suffix;
}

// --- trace recorder (obs/trace.cpp) --------------------------------------
/** Spans currently buffered in the TraceRecorder. */
inline constexpr const char *kTraceBufferSpans = "trace.buffer_spans";
/** Spans discarded because the buffer cap was hit (truncation alarm). */
inline constexpr const char *kTraceDroppedSpans = "trace.dropped_spans";

// --- index (index/ivf_index.cpp) -----------------------------------------
inline constexpr const char *kIvfCoarseUs = "ivf.coarse_us";
inline constexpr const char *kIvfScanUs = "ivf.scan_us";

// --- thread pool (util/threadpool.cpp) -----------------------------------
inline constexpr const char *kPoolParallelForUs = "pool.parallel_for_us";
inline constexpr const char *kPoolParallelForItems =
    "pool.parallel_for_items";

// --- core strategies (core/search_strategy.cpp) --------------------------
inline constexpr const char *kCoreQueryLatencyUs = "core.query_latency_us";
inline constexpr const char *kCoreSamplePhaseUs = "core.sample_phase_us";
inline constexpr const char *kCoreDeepPhaseUs = "core.deep_phase_us";

// --- RAG pipeline (rag/rag_system.cpp) -----------------------------------
inline constexpr const char *kRagStrideTotalUs = "rag.stride_total_us";
inline constexpr const char *kRagStrideRetrievalUs =
    "rag.stride_retrieval_us";
inline constexpr const char *kRagStrides = "rag.strides";

// --- hardware counters (obs/perf.cpp), per-phase suffixes ----------------
// Families are "perf.<phase>.<suffix>" where <phase> is one of
// sample / deep / merge / scan (obs::perfPhaseName). Created only when
// a measurement actually succeeds — an unavailable run never emits
// them (see obs/perf.hpp).
inline constexpr const char *kPerfCycles = "cycles";
inline constexpr const char *kPerfInstructions = "instructions";
inline constexpr const char *kPerfCacheMisses = "cache_misses";
inline constexpr const char *kPerfLlcLoadMisses = "llc_load_misses";
inline constexpr const char *kPerfBranchMisses = "branch_misses";
inline constexpr const char *kPerfTaskClockUs = "task_clock_us";
inline constexpr const char *kPerfIpc = "ipc";
inline constexpr const char *kPerfCacheMpki = "cache_mpki";
inline constexpr const char *kPerfLlcMpki = "llc_mpki";
inline constexpr const char *kPerfBranchMpki = "branch_mpki";

/** "perf.<phase>.<suffix>" — the per-phase hardware-counter family. */
inline std::string
perfMetric(const char *phase, const char *suffix)
{
    return std::string("perf.") + phase + "." + suffix;
}

// --- measured energy (obs/perf.cpp RAPL, serve/broker.cpp) ---------------
/** Wraparound-corrected package joules since the sampler started. */
inline constexpr const char *kEnergyPackageJoulesMeasured =
    "energy.package_joules_measured";
/** Same, for the dram powercap domains. */
inline constexpr const char *kEnergyDramJoulesMeasured =
    "energy.dram_joules_measured";
/** measured package joules / modeled joules of the same report — the
 *  live falsifiability signal for the Fig 18 energy model. */
inline constexpr const char *kEnergyModelErrorRatio =
    "energy.model_error_ratio";

// --- process self-stats (obs/process_stats.cpp) --------------------------
inline constexpr const char *kProcessRssBytes = "process.rss_bytes";
inline constexpr const char *kProcessVmBytes = "process.vm_bytes";
inline constexpr const char *kProcessCpuUserSeconds =
    "process.cpu_user_seconds";
inline constexpr const char *kProcessCpuSystemSeconds =
    "process.cpu_system_seconds";
inline constexpr const char *kProcessThreads = "process.threads";
inline constexpr const char *kProcessUptimeSeconds =
    "process.uptime_seconds";
/** Cumulative page faults serviced without IO (getrusage ru_minflt). */
inline constexpr const char *kProcessMinorFaults = "process.minor_faults";
/** Cumulative page faults that required IO (getrusage ru_majflt) — the
 *  cost signal of scanning an mmap-backed datastore beyond RAM. */
inline constexpr const char *kProcessMajorFaults = "process.major_faults";

// --- mmap-backed datastore (util/mmap_file.cpp) --------------------------
// Minted lazily on the first successful mapping; a process that never
// maps an index exports neither series.
/** Total bytes of live read-only index mappings. */
inline constexpr const char *kMmapMappedBytes = "mmap.mapped_bytes";
/** Bytes of those mappings currently memory-resident (mincore). */
inline constexpr const char *kMmapResidentBytes = "mmap.resident_bytes";

} // namespace names
} // namespace obs
} // namespace hermes
