/**
 * @file
 * The Hermes scheduler/broker (paper Fig 9: "Hermes Scheduler").
 *
 * Owns a fleet of NodeClients — in-process RetrievalNode workers or
 * RemoteNodeClients speaking the framed protocol to hermes_shard
 * processes — and executes the hierarchical search protocol across
 * them:
 *   1. broadcast a cheap sampling request to every cluster (in parallel),
 *   2. rank clusters by their best sampled document,
 *   3. send deep-search requests to the top clusters (in parallel),
 *   4. merge, dedupe and truncate to the final top-k.
 *
 * On a fault-free run, results are bit-identical to core::HermesSearch on
 * the same store; the broker adds the concurrency and queueing of a real
 * deployment.
 *
 * Skew mitigation (paper §6 turned from observation into action): a
 * cluster may be served by R > 1 bit-identical replicas (ReplicaMap).
 * Each probe for a replicated cluster is routed by power-of-two-choices
 * over live queue depth — sample two replicas, pick the shallower queue
 * — which bounds the hot cluster's queueing tail at a fraction of the
 * cost of tracking global state. Straggling sample-phase probes are
 * hedged: once a probe outlives the windowed p95 of recent probe
 * latencies, a duplicate is sent to a second replica and the first
 * response wins; the loser's future is simply abandoned (futures are
 * promise-backed on both node client kinds, so discarding a late
 * response never blocks or leaks). Replicas hold copies of the same
 * immutable index, so routing and hedging cannot change results.
 *
 * Every probe, sample or deep, hedged or not, is awaited by one loop:
 * a race of lanes, one lane per submitted request, where an unhedged
 * probe is the one-lane case.
 *   - Each lane's deadline runs from its own submit.
 *   - A ready lane is taken before its deadline is checked.
 *   - A timeout or failure counts once and retires the lane.
 *   - With no lane live, a failover lane opens on the next replica
 *     (round-robin from the primary) while max_retries allows.
 *   - One hedge lane at most, outside the retry budget.
 * One live lane blocks until its deadline or the hedge time; two live
 * lanes are polled every 100 us.
 *
 * Fault model: a node that times out or throws is logged and counted
 * (BrokerStats::timeouts / failures); with replicas, failover rotates
 * to the next replica so a dead node's traffic drains to its peers. The
 * query degrades gracefully by merging whatever partial results
 * arrived — padded with the sampling hits when a deep node was lost —
 * and only returns fewer than k hits when every deep node failed
 * (BrokerStats::degraded_queries observes all such queries).
 */

#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "core/distributed_store.hpp"
#include "obs/obs.hpp"
#include "serve/load_report.hpp"
#include "serve/node.hpp"
#include "serve/node_client.hpp"
#include "serve/replica_map.hpp"

namespace hermes {
namespace serve {

/** Hedged-request tuning for straggling sample-phase probes. */
struct HedgeConfig
{
    /** Master switch; off = every probe is a one-lane race (deadline
     *  and failover only). */
    bool enabled = true;

    /** Probe-latency percentile that arms the hedge (p95: a probe
     *  slower than 95% of its recent peers is a straggler). */
    double quantile = 95.0;

    /** Probe latencies that must be in the window before the trigger
     *  is trusted (cold brokers never hedge). */
    std::size_t min_samples = 32;

    /** Floor on the trigger so microsecond-fast fleets don't hedge
     *  every probe on scheduling jitter. */
    double min_trigger_us = 200.0;
};

/** Broker configuration. */
struct BrokerConfig
{
    /** Per-node queue/batching parameters. Opt into micro-batching by
     *  setting node.batch_window_us > 0: concurrent search() callers
     *  whose sample/deep requests land on the same node within the
     *  window are coalesced into one list-major shard scan. The window
     *  bounds the latency it can add per request, so PR 1 deadlines and
     *  degradation semantics are unchanged (the deadline clock starts at
     *  submit and already covers queue time). */
    NodeConfig node;

    /**
     * Per-node fault-injection overrides (tests/benches): when
     * non-empty, node c uses node_faults[c] instead of node.faults,
     * letting a single cluster of many be failed. Shorter-than-numNodes
     * vectors leave the remaining nodes on node.faults. Replicas built
     * by `replicate` inherit their cluster's override.
     */
    std::vector<FaultInjector> node_faults;

    /**
     * Deadline in milliseconds for each node request (sampling and deep
     * search alike), measured from that request's submit, so it covers
     * queueing and the wait behind other clusters' probes. A request
     * that is not ready by then counts as a timeout and is failed over
     * or abandoned. 0 waits forever (a dead node then hangs the query)
     * and disables hedging.
     */
    double node_deadline_ms = 2000.0;

    /** Failover resubmits after every lane of a request timed out or
     *  failed (per request; a hedge does not count against it). */
    std::size_t max_retries = 1;

    /**
     * Static replication for the store-backed constructor: (cluster,
     * total replicas) pairs; each listed cluster is served by that many
     * LocalNodeClients over the same immutable shard index. Counts of
     * 0/1 are no-ops. Ignored by the node-list constructor (use
     * replica_map there).
     */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> replicate;

    /**
     * Cluster->node assignment for the node-list constructor. Empty =
     * identity (node i serves cluster i, the pre-replication shape).
     * When set it must be complete() and reference exactly the nodes
     * passed in.
     */
    ReplicaMap replica_map;

    /** Hedged-request policy for sample-phase probes. Only engages for
     *  clusters with >= 2 replicas; unreplicated clusters always wait
     *  on a single lane. */
    HedgeConfig hedge;
};

/** Aggregate serving statistics. */
struct BrokerStats
{
    /** Queries served end-to-end. */
    std::uint64_t queries = 0;

    /** Deep-search requests issued (queries x clusters searched). */
    std::uint64_t deep_requests = 0;

    /** Node waits that missed their deadline (a retry that times out
     *  again counts twice). */
    std::uint64_t timeouts = 0;

    /** Node requests that completed with an exception. */
    std::uint64_t failures = 0;

    /** Queries that lost at least one node (timeout or failure) and
     *  were answered from partial results. */
    std::uint64_t degraded_queries = 0;

    /** Hedged sample probes issued / won by the duplicate / issued but
     *  the primary still won (duplicate work discarded). */
    std::uint64_t hedges_issued = 0;
    std::uint64_t hedges_won = 0;
    std::uint64_t hedges_wasted = 0;

    /**
     * Latency digests sourced from the process-wide obs histograms
     * (`broker.query_latency_us` and friends). Note these aggregate
     * over every broker in the process — with a single broker, which
     * is the deployment shape, they are exactly this broker's.
     */
    obs::LatencySummary query_latency;   ///< end-to-end search()
    obs::LatencySummary sample_phase;    ///< sampling broadcast + collect
    obs::LatencySummary deep_phase;      ///< deep fan-out + collect
    obs::LatencySummary merge_phase;     ///< final merge/dedupe/truncate

    /** Per-node runtime statistics, in node order (replicas included). */
    std::vector<NodeStats> nodes;

    /** Cluster served by each node in `nodes` (node_clusters[i] is the
     *  cluster of nodes[i]; identity when unreplicated). */
    std::vector<std::uint32_t> node_clusters;
};

/** Distributed hierarchical-search front end. */
class HermesBroker
{
  public:
    /**
     * @param store  Distributed store whose cluster indices the nodes
     *               serve (must outlive the broker).
     * @param config Broker parameters; config.replicate adds extra
     *               in-process replicas over the same shard indices.
     */
    explicit HermesBroker(const core::DistributedStore &store,
                          const BrokerConfig &config = {});

    /**
     * Placement-agnostic constructor: NodeClients assigned to clusters
     * by config.replica_map (empty = one node per cluster, in
     * cluster-id order). This is how an out-of-process fleet is wired —
     * RemoteNodeClients pointing at hermes_shard endpoints — but any
     * mix of local and remote nodes works; scheduling, deadlines,
     * retries and degradation are identical either way.
     *
     * @param hermes_config The store configuration (sampling / deep
     *                      depths, clusters_to_search, ...). Must match
     *                      what the shards were built with for results
     *                      to mean anything.
     */
    HermesBroker(const core::HermesConfig &hermes_config,
                 std::vector<std::unique_ptr<NodeClient>> nodes,
                 const BrokerConfig &config = {});

    ~HermesBroker();

    HermesBroker(const HermesBroker &) = delete;
    HermesBroker &operator=(const HermesBroker &) = delete;

    /**
     * Execute one hierarchical search. Sampling and deep-search requests
     * run concurrently across node workers; the calling thread blocks
     * only on aggregation. Safe to call from many threads at once.
     * Never throws on node faults; see the file-level fault model.
     */
    vecstore::HitList search(vecstore::VecView query, std::size_t k) const;

    /** Like search(), but also reports which clusters were deep-searched. */
    vecstore::HitList search(vecstore::VecView query, std::size_t k,
                             std::vector<std::uint32_t>
                                 &deep_clusters) const;

    /**
     * Attach another replica of @p cluster at runtime (any NodeClient;
     * its shard must be a bit-identical copy of the cluster's index).
     * In-flight queries keep the topology snapshot they started with
     * and see the new replica on their next search.
     */
    void addReplica(std::uint32_t cluster,
                    std::unique_ptr<NodeClient> node);

    /**
     * Act on the live load report: plan extra replicas for hot clusters
     * (ReplicaMap::planFromLoad) and spin up LocalNodeClients over the
     * store's shard indices. Only available on store-backed brokers
     * (the node-list constructor has no shard to clone; returns 0).
     * Returns the number of replicas added.
     */
    std::size_t autoReplicate(const ReplicationPolicy &policy = {});

    /** Replicas currently serving @p cluster. */
    std::size_t replicaCount(std::uint32_t cluster) const;

    /** Snapshot of serving statistics. */
    BrokerStats stats() const;

    /**
     * Fleet-level load snapshot: per-cluster traffic/queue/energy plus
     * skew diagnostics over the deep-request distribution. @p window_s
     * bounds the windowed QPS/latency figures (clamped to the ring).
     * Safe to call concurrently with search().
     */
    LoadReport loadReport(
        std::size_t window_s = obs::kDefaultWindowSeconds) const;

    /** Number of serving nodes (replicas included). */
    std::size_t numNodes() const;

    /** Number of clusters (fixed at construction). */
    std::size_t numClusters() const { return cluster_counters_.size(); }

  private:
    /** One replica of one cluster, as seen by the router. */
    struct ReplicaSlot
    {
        /** Borrowed from nodes_; valid for the broker's lifetime
         *  (nodes are never removed, only added). */
        NodeClient *node = nullptr;

        /** Index into nodes_ / BrokerStats::nodes. */
        std::uint32_t node_index = 0;

        /** Canonical broker.route.<cluster>.<slot> counter. */
        obs::Counter *routed = nullptr;
    };

    /** Per-cluster replica slots; copied per query under a shared lock
     *  so addReplica() can grow it concurrently. */
    using Topology = std::vector<std::vector<ReplicaSlot>>;

    /** Outcome of one node request after deadline/retry handling. */
    struct NodeOutcome
    {
        bool ok = false;
        NodeResponse response;
    };

    /** One submitted node request. */
    struct Probe
    {
        std::future<NodeResponse> future;
        std::size_t slot = 0; ///< replica slot it was sent to
        std::chrono::steady_clock::time_point submitted; ///< deadline anchor
    };

    /** One query's fault and hedge tallies (see BrokerStats). */
    struct ProbeCounters
    {
        std::uint64_t timeouts = 0;
        std::uint64_t failures = 0;
        std::uint64_t hedges_issued = 0;
        std::uint64_t hedges_won = 0;
        std::uint64_t hedges_wasted = 0;
    };

    /**
     * Power-of-two-choices: with one slot return it outright (no RNG —
     * the unreplicated path stays byte-for-byte deterministic);
     * otherwise sample two distinct slots uniformly and take the
     * shallower queue, ties to the first (itself uniformly random, so
     * idle fleets spread uniformly instead of pinning slot 0).
     */
    std::size_t pickSlot(const std::vector<ReplicaSlot> &slots) const;

    /** Submit to @p slots[@p slot], stamping the submit time. Route
     *  counters are the caller's. */
    Probe submitProbe(const std::vector<ReplicaSlot> &slots,
                      std::size_t slot, vecstore::VecView query,
                      std::size_t k,
                      const index::SearchParams &params) const;

    /**
     * Wait for @p probe by the lane race in the file comment. A hedge
     * lane opens @p hedge_trigger_us after submit when the trigger is
     * positive and @p slots has another replica. Returns !ok once every
     * lane is retired and the failover budget is spent.
     */
    NodeOutcome awaitProbe(Probe probe,
                           const std::vector<ReplicaSlot> &slots,
                           double hedge_trigger_us, vecstore::VecView query,
                           std::size_t k, const index::SearchParams &params,
                           ProbeCounters &counters) const;

    /** Build topology_/node_clusters_ from @p map (constructors). */
    void initTopology(const ReplicaMap &map);

    /** Shared tail of both constructors (registry counters). */
    void initCounters();

    core::HermesConfig hermes_config_;
    BrokerConfig config_;

    /** Shard source for autoReplicate(); null for node-list brokers. */
    const core::DistributedStore *store_ = nullptr;

    /** All node clients, primaries first (node index = position).
     *  Append-only: replicas are pushed, never removed, so borrowed
     *  NodeClient pointers in topology snapshots stay valid. */
    std::vector<std::unique_ptr<NodeClient>> nodes_;

    /** Cluster -> replica slots; guarded by topology_mutex_ together
     *  with nodes_ and node_clusters_. */
    Topology topology_;
    std::vector<std::uint32_t> node_clusters_;
    mutable std::shared_mutex topology_mutex_;

    /** Cached refs into the process-wide metrics registry (stable).
     *  Query latency and query count carry rolling windows so the live
     *  endpoints can report last-N-seconds QPS/percentiles; the
     *  per-probe histogram feeds the hedge trigger. */
    obs::WindowedHistogram &h_query_latency_;
    obs::Histogram &h_sample_phase_;
    obs::Histogram &h_deep_phase_;
    obs::Histogram &h_merge_phase_;
    obs::WindowedCounter &c_queries_;
    obs::WindowedHistogram &h_sample_probe_us_;

    /** Per-cluster request accounting (index = cluster id). */
    struct ClusterCounters
    {
        obs::Counter &sample_requests;
        obs::Counter &deep_requests;
        obs::Counter &hits_returned;
    };
    std::vector<ClusterCounters> cluster_counters_;

    /** Construction time, for uptime/utilization in loadReport(). */
    std::chrono::steady_clock::time_point start_time_;

    mutable std::mutex stats_mutex_;
    mutable std::uint64_t queries_ = 0;
    mutable std::uint64_t deep_requests_ = 0;
    mutable std::uint64_t timeouts_ = 0;
    mutable std::uint64_t failures_ = 0;
    mutable std::uint64_t degraded_queries_ = 0;
    mutable std::uint64_t hedges_issued_ = 0;
    mutable std::uint64_t hedges_won_ = 0;
    mutable std::uint64_t hedges_wasted_ = 0;
};

} // namespace serve
} // namespace hermes
