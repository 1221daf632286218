#include "serve/broker.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <numeric>
#include <thread>

#include "cluster/imbalance.hpp"
#include "obs/perf.hpp"
#include "sim/hardware.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hermes {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/** Poll period of a race between two live lanes. */
constexpr std::chrono::microseconds kRacePoll{100};

std::chrono::microseconds
microsFromDouble(double us)
{
    return std::chrono::microseconds(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(us)));
}

/** An in-process node @p node_id over the store's shard of @p cluster,
 *  with that cluster's node_faults override. */
std::unique_ptr<NodeClient>
localNode(const core::DistributedStore &store, const BrokerConfig &config,
          std::size_t cluster, std::size_t node_id)
{
    NodeConfig node_config = config.node;
    if (cluster < config.node_faults.size())
        node_config.faults = config.node_faults[cluster];
    node_config.node_id = node_id;
    return std::make_unique<LocalNodeClient>(store.clusterIndex(cluster),
                                             node_config);
}

/** One local node per cluster, node i serving cluster i. */
std::vector<std::unique_ptr<NodeClient>>
localFleet(const core::DistributedStore &store, const BrokerConfig &config)
{
    std::vector<std::unique_ptr<NodeClient>> nodes;
    nodes.reserve(store.numClusters());
    for (std::size_t c = 0; c < store.numClusters(); ++c)
        nodes.push_back(localNode(store, config, c, c));
    return nodes;
}

/** @p config with replica_map cleared: a store-backed broker always
 *  places its fleet one node per cluster (replicate adds the rest). */
BrokerConfig
identityPlacement(BrokerConfig config)
{
    config.replica_map = ReplicaMap();
    return config;
}

} // namespace

HermesBroker::HermesBroker(const core::DistributedStore &store,
                           const BrokerConfig &config,
                           obs::Registry &metrics)
    : HermesBroker(store.config(), localFleet(store, config),
                   identityPlacement(config), metrics)
{
    store_ = &store;
    // Static replication: extra LocalNodeClients over the same immutable
    // shard indices — bit-identical replicas by construction.
    for (const auto &[cluster, total] : config_.replicate) {
        HERMES_ASSERT(cluster < store.numClusters(),
                      "replicate spec names a cluster the store lacks");
        for (std::uint32_t r = 1; r < total; ++r)
            addReplica(cluster,
                       localNode(store, config_, cluster, numNodes()));
    }
}

HermesBroker::HermesBroker(const core::HermesConfig &hermes_config,
                           std::vector<std::unique_ptr<NodeClient>> nodes,
                           const BrokerConfig &config,
                           obs::Registry &metrics)
    : hermes_config_(hermes_config),
      plan_{hermes_config.clusters_to_search,
            hermes_config.adaptive_epsilon},
      config_(config),
      nodes_(std::move(nodes)),
      metrics_(metrics),
      h_query_latency_(
          metrics.windowedHistogram(obs::names::kBrokerQueryLatencyUs)),
      h_sample_phase_(metrics.histogram(obs::names::kBrokerSamplePhaseUs)),
      h_deep_phase_(metrics.histogram(obs::names::kBrokerDeepPhaseUs)),
      h_merge_phase_(metrics.histogram(obs::names::kBrokerMergePhaseUs)),
      h_sample_probe_us_(
          metrics.windowedHistogram(obs::names::kBrokerSampleProbeUs)),
      c_queries_(metrics.windowedCounter(obs::names::kBrokerQueries)),
      c_deep_requests_(metrics.counter(obs::names::kBrokerDeepRequests)),
      c_timeouts_(metrics.counter(obs::names::kBrokerTimeouts)),
      c_failures_(metrics.counter(obs::names::kBrokerFailures)),
      c_degraded_queries_(
          metrics.counter(obs::names::kBrokerDegradedQueries)),
      c_hedges_issued_(metrics.counter(obs::names::kBrokerHedgesIssued)),
      c_hedges_won_(metrics.counter(obs::names::kBrokerHedgesWon)),
      c_hedges_wasted_(metrics.counter(obs::names::kBrokerHedgesWasted)),
      start_time_(Clock::now())
{
    HERMES_ASSERT(!nodes_.empty(), "broker needs at least one node");
    if (!config_.replica_map.empty()) {
        HERMES_ASSERT(config_.replica_map.complete(),
                      "replica map must cover every cluster with "
                      "disjoint nodes");
        HERMES_ASSERT(config_.replica_map.numNodes() == nodes_.size(),
                      "replica map references a different node count "
                      "than was passed in");
    }
    const ReplicaMap map = config_.replica_map.empty()
        ? ReplicaMap::identity(nodes_.size())
        : config_.replica_map;
    topology_.resize(map.numClusters());
    node_clusters_.assign(nodes_.size(), 0);
    cluster_counters_.reserve(map.numClusters());
    for (std::size_t c = 0; c < map.numClusters(); ++c) {
        const std::vector<std::uint32_t> &replicas = map.replicas(c);
        topology_[c].reserve(replicas.size());
        for (std::size_t slot = 0; slot < replicas.size(); ++slot) {
            std::uint32_t node = replicas[slot];
            topology_[c].push_back(ReplicaSlot{
                nodes_[node].get(), node,
                &metrics_.counter(obs::names::routeMetric(c, slot))});
            node_clusters_[node] = static_cast<std::uint32_t>(c);
        }
        cluster_counters_.push_back(ClusterCounters{
            metrics_.counter(obs::names::nodeMetric(
                c, obs::names::kNodeSampleRequests)),
            metrics_.counter(obs::names::nodeMetric(
                c, obs::names::kNodeDeepRequests)),
            metrics_.counter(obs::names::nodeMetric(
                c, obs::names::kNodeHitsReturned)),
        });
    }
}

HermesBroker::~HermesBroker() = default;

void
HermesBroker::addReplica(std::uint32_t cluster,
                         std::unique_ptr<NodeClient> node)
{
    std::unique_lock<std::shared_mutex> lock(topology_mutex_);
    HERMES_ASSERT(cluster < topology_.size(),
                  "addReplica: cluster out of range");
    const std::uint32_t node_index =
        static_cast<std::uint32_t>(nodes_.size());
    const std::size_t slot = topology_[cluster].size();
    nodes_.push_back(std::move(node));
    node_clusters_.push_back(cluster);
    topology_[cluster].push_back(ReplicaSlot{
        nodes_.back().get(), node_index,
        &metrics_.counter(obs::names::routeMetric(cluster, slot))});
    HERMES_INFORM("cluster ", cluster, " now served by ",
                topology_[cluster].size(), " replicas (node ", node_index,
                " attached)");
}

std::size_t
HermesBroker::autoReplicate(const ReplicationPolicy &policy)
{
    if (store_ == nullptr) {
        HERMES_WARN("autoReplicate: no store to clone shards from "
                    "(node-list broker); ignoring");
        return 0;
    }
    const std::vector<ReplicaPlanEntry> plan =
        ReplicaMap::planFromLoad(loadReport(), policy);
    std::size_t added = 0;
    for (const ReplicaPlanEntry &entry : plan) {
        for (std::uint32_t r = 0; r < entry.extras; ++r) {
            addReplica(entry.cluster, localNode(*store_, config_,
                                                entry.cluster, numNodes()));
            ++added;
        }
    }
    return added;
}

std::size_t
HermesBroker::replicaCount(std::uint32_t cluster) const
{
    std::shared_lock<std::shared_mutex> lock(topology_mutex_);
    return cluster < topology_.size() ? topology_[cluster].size() : 0;
}

std::size_t
HermesBroker::numNodes() const
{
    std::shared_lock<std::shared_mutex> lock(topology_mutex_);
    return nodes_.size();
}

vecstore::HitList
HermesBroker::search(vecstore::VecView query, std::size_t k) const
{
    std::vector<std::uint32_t> unused;
    return search(query, k, unused);
}

std::size_t
HermesBroker::pickSlot(const std::vector<ReplicaSlot> &slots) const
{
    const std::size_t n = slots.size();
    if (n == 1)
        return 0;
    // Seeded per thread: routing never affects results (replicas are
    // bit-identical), so cross-run determinism is not required here.
    thread_local util::Rng rng(
        0x0b5e55ed5eedULL ^
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::size_t i = static_cast<std::size_t>(rng.uniformInt(n));
    std::size_t j = static_cast<std::size_t>(rng.uniformInt(n - 1));
    if (j >= i)
        ++j;
    const std::size_t qi = slots[i].node->queueDepth();
    const std::size_t qj = slots[j].node->queueDepth();
    // Ties go to i: i is uniformly random, so an idle fleet spreads
    // uniformly instead of pinning the lower-indexed replica.
    return qj < qi ? j : i;
}

HermesBroker::Probe
HermesBroker::submitProbe(const std::vector<ReplicaSlot> &slots,
                          std::size_t slot, vecstore::VecView query,
                          std::size_t k,
                          const index::SearchParams &params) const
{
    Probe probe;
    probe.slot = slot;
    probe.submitted = Clock::now();
    probe.future = slots[slot].node->submit(query, k, params);
    return probe;
}

HermesBroker::NodeOutcome
HermesBroker::awaitProbe(Probe probe, const std::vector<ReplicaSlot> &slots,
                         double hedge_trigger_us, vecstore::VecView query,
                         std::size_t k, const index::SearchParams &params,
                         ProbeCounters &counters) const
{
    struct Lane
    {
        Probe probe;
        Clock::time_point deadline = Clock::time_point::max();
        std::size_t attempt = 1; ///< submit ordinal, for the logs
        bool hedge = false;
    };
    const auto open = [this](Probe p, std::size_t attempt, bool hedge) {
        Lane lane{std::move(p), Clock::time_point::max(), attempt, hedge};
        if (config_.node_deadline_ms > 0.0)
            lane.deadline = lane.probe.submitted +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        config_.node_deadline_ms));
        return lane;
    };

    const std::size_t n = slots.size();
    const std::size_t first = probe.slot;
    // Like every deadline, the hedge trigger runs from submit: probes are
    // awaited in cluster order, so a later cluster's probe has already
    // aged when its wait begins. It arms at most once.
    Clock::time_point hedge_at = Clock::time_point::max();
    if (hedge_trigger_us > 0.0 && n > 1)
        hedge_at = probe.submitted + microsFromDouble(hedge_trigger_us);
    bool hedged = false;

    // Live lanes: the primary (or its failover) plus at most one hedge.
    std::array<Lane, 2> lanes;
    std::size_t live = 0;
    lanes[live++] = open(std::move(probe), 1, false);
    // Failovers rotate from the primary, so until the hedge goes out the
    // slots tried are exactly (first + i) % n for i < submits.
    std::size_t submits = 1;
    std::size_t retries = 0;

    NodeOutcome out;
    for (;;) {
        for (std::size_t i = 0; i < live;) {
            Lane &lane = lanes[i];
            std::future_status status;
            if (live > 1) {
                status = lane.probe.future.wait_for(kRacePoll);
            } else if (lane.deadline == Clock::time_point::max() &&
                       hedge_at == Clock::time_point::max()) {
                lane.probe.future.wait();
                status = std::future_status::ready;
            } else {
                status = lane.probe.future.wait_until(
                    std::min(lane.deadline, hedge_at));
            }

            // A ready lane is taken before its deadline is checked: a
            // probe that answered while earlier clusters were awaited
            // is never discarded as a timeout.
            if (status == std::future_status::ready) {
                try {
                    out.response = lane.probe.future.get();
                    out.ok = true;
                    if (lane.hedge)
                        ++counters.hedges_won;
                    else if (hedged)
                        ++counters.hedges_wasted;
                    // The other lane's future is abandoned: both node
                    // client kinds back it with a std::promise, so the
                    // late response is dropped without blocking.
                    return out;
                } catch (const std::exception &e) {
                    HERMES_WARN("node request failed: ", e.what(),
                                " (attempt ", lane.attempt, ")");
                } catch (...) {
                    HERMES_WARN("node request failed with a non-standard "
                                "exception (attempt ", lane.attempt, ")");
                }
                ++counters.failures;
                obs::instantEvent(
                    "broker.failure",
                    {{"attempt", std::to_string(lane.attempt), true}});
            } else if (Clock::now() >= lane.deadline) {
                ++counters.timeouts;
                obs::instantEvent(
                    "broker.timeout",
                    {{"attempt", std::to_string(lane.attempt), true}});
                HERMES_WARN("node request missed its ",
                            config_.node_deadline_ms, " ms deadline "
                            "(attempt ", lane.attempt, ")");
            } else {
                ++i;
                continue;
            }
            std::swap(lanes[i], lanes[--live]); // retire the lane
        }

        if (live == 0) {
            // Failover: resubmit round-robin from the primary while the
            // retry budget lasts (one replica resubmits to itself).
            if (retries >= config_.max_retries)
                return out;
            ++retries;
            obs::instantEvent("broker.retry");
            const std::size_t next = (first + submits) % n;
            if (next != first)
                slots[next].routed->add(1);
            lanes[live++] = open(submitProbe(slots, next, query, k, params),
                                 ++submits, false);
            continue;
        }

        // Hedge: the probe outlived the trigger. Duplicate it to the
        // least-loaded replica not yet tried and race the two lanes.
        if (Clock::now() >= hedge_at) {
            hedge_at = Clock::time_point::max();
            std::size_t best = n;
            for (std::size_t s = 0; s < n; ++s) {
                if ((s + n - first) % n < submits)
                    continue;
                if (best == n || slots[s].node->queueDepth() <
                                     slots[best].node->queueDepth())
                    best = s;
            }
            if (best != n) {
                slots[best].routed->add(1);
                lanes[live++] = open(
                    submitProbe(slots, best, query, k, params), ++submits,
                    true);
                hedged = true;
                ++counters.hedges_issued;
                obs::instantEvent(
                    "broker.hedge",
                    {{"node", std::to_string(slots[best].node_index),
                      true}});
            }
        }
    }
}

std::vector<core::ProbeResult>
HermesBroker::probeClusters(const Topology &topology,
                            const std::vector<std::uint32_t> &clusters,
                            bool sample, vecstore::VecView query,
                            std::size_t k, const index::SearchParams &params,
                            double hedge_trigger_us,
                            ProbeCounters &counters) const
{
    // Fan out first, each probe routed to one replica by
    // power-of-two-choices, so the clusters search concurrently.
    std::vector<Probe> probes;
    probes.reserve(clusters.size());
    for (std::uint32_t c : clusters) {
        const std::size_t slot = pickSlot(topology[c]);
        topology[c][slot].routed->add(1);
        (sample ? cluster_counters_[c].sample_requests
                : cluster_counters_[c].deep_requests)
            .add(1);
        probes.push_back(submitProbe(topology[c], slot, query, k, params));
    }

    // Then await in cluster order; a lost probe stays std::nullopt.
    std::vector<core::ProbeResult> results(clusters.size());
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        const std::uint32_t c = clusters[i];
        const Clock::time_point submitted = probes[i].submitted;
        NodeOutcome outcome =
            awaitProbe(std::move(probes[i]), topology[c], hedge_trigger_us,
                       query, k, params, counters);
        if (!outcome.ok)
            continue;
        if (sample) {
            h_sample_probe_us_.observe(
                std::chrono::duration<double, std::micro>(
                    Clock::now() - submitted).count());
        }
        cluster_counters_[c].hits_returned.add(outcome.response.hits.size());
        results[i] = std::move(outcome.response.hits);
    }
    return results;
}

vecstore::HitList
HermesBroker::search(vecstore::VecView query, std::size_t k,
                     std::vector<std::uint32_t> &deep_clusters) const
{
    const auto &config = hermes_config_;
    ProbeCounters counters;

    // Routing works off a topology snapshot: addReplica() may grow the
    // fleet mid-query, but this query sticks to the replicas it started
    // with. Slots borrow NodeClient pointers that stay valid for the
    // broker's lifetime, so the lock is released before any waiting.
    Topology topology;
    {
        std::shared_lock<std::shared_mutex> lock(topology_mutex_);
        topology = topology_;
    }
    const std::size_t n = topology.size();

    // Hedge trigger for this query: the windowed p95 (configurable) of
    // recent sample-probe latencies, once enough samples exist. The
    // probe latency measured below includes the wait behind earlier
    // clusters' probes, so the trigger is biased upward — a hedge fires
    // only for genuine stragglers.
    double hedge_trigger_us = -1.0;
    if (config_.hedge.enabled && config_.node_deadline_ms > 0.0) {
        auto probes =
            h_sample_probe_us_.windowSnapshot(obs::kDefaultWindowSeconds);
        if (probes.count >= config_.hedge.min_samples) {
            hedge_trigger_us =
                std::max(probes.percentile(config_.hedge.quantile),
                         config_.hedge.min_trigger_us);
            if (hedge_trigger_us >= config_.node_deadline_ms * 1000.0)
                hedge_trigger_us = -1.0; // deadline fires first anyway
        }
    }

    // Per-query tracing: sample 1-in-N queries; the context marks this
    // thread (and, via the request's traced flag, the node workers) as
    // recording for the duration of this query.
    obs::TraceContext trace_context(
        obs::TraceRecorder::instance().sampleQuery());
    obs::ScopedSpan query_span("broker.query");
    query_span.arg("k", static_cast<std::uint64_t>(k));
    util::Timer query_timer;

    // Phase 1: broadcast the sampling request (paper §4.2 step 2) and rank
    // the clusters. A cluster whose sample was lost is not ranked.
    util::Timer phase_timer;
    std::vector<core::ProbeResult> samples;
    core::RankedClusters ranked;
    {
        obs::ScopedSpan sample_span("broker.sample");
        // Hardware-counter attribution for the phase (no-op unless --perf).
        obs::PerfScope sample_perf(obs::PerfPhase::Sample);
        std::vector<std::uint32_t> all(n);
        std::iota(all.begin(), all.end(), 0u);
        index::SearchParams sample_params;
        sample_params.nprobe = config.sample_nprobe;
        samples = probeClusters(topology, all, true, query, config.sample_k,
                                sample_params, hedge_trigger_us, counters);
        ranked = core::SearchPlan::rank(samples);
        sample_span.arg("clusters_sampled",
                        static_cast<std::uint64_t>(ranked.size()));
    }
    h_sample_phase_.observe(phase_timer.elapsedMicros());

    // Phase 2: deep-search the plan's deep set. Deep requests are never
    // hedged: they keep the deadline and failover rules alone.
    deep_clusters = plan_.deepSet(ranked, n);
    const std::size_t deep = deep_clusters.size();
    phase_timer.reset();
    std::vector<core::ProbeResult> partials;
    {
        obs::ScopedSpan deep_span("broker.deep");
        obs::PerfScope deep_perf(obs::PerfPhase::Deep);
        deep_span.arg("clusters", static_cast<std::uint64_t>(deep));
        index::SearchParams deep_params;
        deep_params.nprobe = config.deep_nprobe;
        partials = probeClusters(topology, deep_clusters, false, query, k,
                                 deep_params, -1.0, counters);
    }
    h_deep_phase_.observe(phase_timer.elapsedMicros());

    bool degraded = counters.timeouts > 0 || counters.failures > 0;
    if (degraded) {
        HERMES_DEBUG("degraded query: ", counters.timeouts, " timeouts, ",
                     counters.failures, " failures across ", deep,
                     " deep clusters");
    }

    // The query counter is windowed so /load can report a rolling QPS.
    c_queries_.add(1);
    c_deep_requests_.add(deep);
    if (counters.timeouts)
        c_timeouts_.add(counters.timeouts);
    if (counters.failures)
        c_failures_.add(counters.failures);
    if (degraded)
        c_degraded_queries_.add(1);
    if (counters.hedges_issued)
        c_hedges_issued_.add(counters.hedges_issued);
    if (counters.hedges_won)
        c_hedges_won_.add(counters.hedges_won);
    if (counters.hedges_wasted)
        c_hedges_wasted_.add(counters.hedges_wasted);

    phase_timer.reset();
    vecstore::HitList merged;
    {
        obs::ScopedSpan merge_span("broker.merge");
        obs::PerfScope merge_perf(obs::PerfPhase::Merge);
        const auto deep_ok = static_cast<std::size_t>(std::count_if(
            partials.begin(), partials.end(),
            [](const core::ProbeResult &p) { return p.has_value(); }));
        merge_span.arg("partials",
                       static_cast<std::uint64_t>(
                           deep_ok + (deep_ok < deep ? ranked.size() : 0)));
        merged = core::SearchPlan::merge(std::move(partials),
                                         std::move(samples), k);
    }
    h_merge_phase_.observe(phase_timer.elapsedMicros());
    query_span.arg("deep_clusters",
                   static_cast<std::uint64_t>(deep_clusters.size()));
    query_span.arg("degraded", static_cast<std::uint64_t>(degraded));
    h_query_latency_.observe(query_timer.elapsedMicros());
    return merged;
}

BrokerStats
HermesBroker::stats() const
{
    BrokerStats stats;
    stats.queries = c_queries_.value();
    stats.deep_requests = c_deep_requests_.value();
    stats.timeouts = c_timeouts_.value();
    stats.failures = c_failures_.value();
    stats.degraded_queries = c_degraded_queries_.value();
    stats.hedges_issued = c_hedges_issued_.value();
    stats.hedges_won = c_hedges_won_.value();
    stats.hedges_wasted = c_hedges_wasted_.value();
    stats.query_latency =
        obs::LatencySummary::from(h_query_latency_.cumulative().snapshot());
    stats.sample_phase =
        obs::LatencySummary::from(h_sample_phase_.snapshot());
    stats.deep_phase =
        obs::LatencySummary::from(h_deep_phase_.snapshot());
    stats.merge_phase =
        obs::LatencySummary::from(h_merge_phase_.snapshot());
    {
        std::shared_lock<std::shared_mutex> lock(topology_mutex_);
        stats.nodes.reserve(nodes_.size());
        for (const auto &node : nodes_)
            stats.nodes.push_back(node->stats());
        stats.node_clusters = node_clusters_;
    }
    return stats;
}

LoadReport
HermesBroker::loadReport(std::size_t window_s) const
{
    LoadReport report;
    report.uptime_seconds = std::chrono::duration<double>(
        Clock::now() - start_time_).count();
    report.queries = c_queries_.value();
    report.timeouts = c_timeouts_.value();
    report.failures = c_failures_.value();
    report.degraded_queries = c_degraded_queries_.value();
    report.hedges_issued = c_hedges_issued_.value();
    report.hedges_won = c_hedges_won_.value();
    report.hedges_wasted = c_hedges_wasted_.value();

    report.window_seconds = static_cast<double>(window_s);
    report.window_qps = c_queries_.ratePerSecond(window_s);
    auto window = h_query_latency_.windowSnapshot(window_s);
    report.window_p50_us = window.percentile(50.0);
    report.window_p99_us = window.percentile(99.0);
    auto cumulative = h_query_latency_.cumulative().snapshot();
    report.cumulative_p50_us = cumulative.percentile(50.0);
    report.cumulative_p99_us = cumulative.percentile(99.0);

    // Idle power runs whether or not requests arrive; attribute each
    // node's static share here from wall time, on top of the dynamic
    // energy the worker accrued per busy interval (Fig 18 shape: joules
    // per query fall as load rises because the idle floor amortizes).
    // A replicated cluster pays the idle floor once per replica.
    const sim::CpuProfile &cpu = sim::cpuProfile(config_.node.cpu_model);
    const double idle_joules = config_.node.model_energy
        ? report.uptime_seconds * cpu.idle_watts /
            static_cast<double>(cpu.cores)
        : 0.0;

    Topology topology;
    {
        std::shared_lock<std::shared_mutex> lock(topology_mutex_);
        topology = topology_;
    }

    report.clusters.reserve(topology.size());
    std::vector<std::size_t> deep_counts;
    deep_counts.reserve(topology.size());
    for (std::size_t c = 0; c < topology.size(); ++c) {
        const std::vector<ReplicaSlot> &slots = topology[c];
        ClusterLoad load;
        load.cluster = static_cast<std::uint32_t>(c);
        load.shard_vectors = slots.front().node->shardSize();
        load.sample_requests = cluster_counters_[c].sample_requests.value();
        load.deep_requests = cluster_counters_[c].deep_requests.value();
        load.hits_returned = cluster_counters_[c].hits_returned.value();
        load.replicas = static_cast<std::uint32_t>(slots.size());
        load.replica_routes.reserve(slots.size());
        for (const ReplicaSlot &slot : slots) {
            NodeStats node_stats = slot.node->stats();
            load.requests += node_stats.requests;
            load.batches += node_stats.batches;
            load.queue_depth += slot.node->queueDepth();
            load.busy_seconds += node_stats.busy_seconds;
            load.energy_joules += node_stats.energy_joules + idle_joules;
            load.replica_routes.push_back(slot.routed->value());
        }
        load.batch_occupancy = load.batches > 0
            ? static_cast<double>(load.requests) /
                static_cast<double>(load.batches)
            : 0.0;
        // Utilization of the cluster's replica set: busy time over the
        // replicas' combined capacity, so 1.0 still means saturated.
        load.utilization = report.uptime_seconds > 0.0
            ? load.busy_seconds /
                (report.uptime_seconds * static_cast<double>(slots.size()))
            : 0.0;
        report.total_energy_joules += load.energy_joules;
        deep_counts.push_back(
            static_cast<std::size_t>(load.deep_requests));
        report.clusters.push_back(std::move(load));
    }

    if (!deep_counts.empty()) {
        report.deep_imbalance = cluster::imbalance(deep_counts);
        double sum = 0.0;
        std::size_t max_count = 0;
        for (std::size_t n : deep_counts) {
            sum += static_cast<double>(n);
            max_count = std::max(max_count, n);
        }
        double mean = sum / static_cast<double>(deep_counts.size());
        report.max_mean_ratio =
            mean > 0.0 ? static_cast<double>(max_count) / mean : 0.0;
        std::vector<double> as_double(deep_counts.begin(),
                                      deep_counts.end());
        report.zipf_exponent = fitZipfExponent(std::move(as_double));
    }

    // Measured energy beside the model: whole-package RAPL joules since
    // the sampler started (invalid — and every field zero — unless
    // --perf is on and powercap is readable). The ratio is the live
    // falsifiability check on the Fig 18 model; on shared hardware it
    // includes co-tenant work, so treat it as an upper bound.
    obs::RaplSample rapl = obs::raplSample();
    if (rapl.valid) {
        report.measured_energy_valid = true;
        report.measured_package_joules = rapl.package_joules;
        report.measured_dram_joules = rapl.dram_joules;
        if (report.total_energy_joules > 0.0 &&
            rapl.package_joules > 0.0) {
            report.energy_model_error_ratio =
                rapl.package_joules / report.total_energy_joules;
            metrics_.gauge(obs::names::kEnergyModelErrorRatio)
                .set(report.energy_model_error_ratio);
        }
    }
    return report;
}

} // namespace serve
} // namespace hermes
