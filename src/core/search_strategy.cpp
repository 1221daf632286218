#include "core/search_strategy.hpp"

#include <algorithm>
#include <limits>

#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "vecstore/topk.hpp"

namespace hermes {
namespace core {

workload::ClusterTrace
SearchStrategy::traceBatch(const vecstore::Matrix &queries, std::size_t k,
                           std::vector<vecstore::HitList> *results) const
{
    workload::ClusterTrace trace;
    trace.num_clusters = numClusters();
    trace.records.reserve(queries.rows());
    if (results)
        results->reserve(queries.rows());

    for (std::size_t q = 0; q < queries.rows(); ++q) {
        auto result = search(queries.row(q), k);
        workload::TraceRecord record;
        record.query = static_cast<std::uint32_t>(q);
        record.clusters = result.deep_clusters;
        trace.records.push_back(std::move(record));
        if (results)
            results->push_back(std::move(result.hits));
    }
    return trace;
}

// ---------------------------------------------------------------------------
// MonolithicSearch
// ---------------------------------------------------------------------------

MonolithicSearch::MonolithicSearch(const vecstore::Matrix &data,
                                   const std::string &codec,
                                   std::size_t nprobe, std::size_t nlist)
    : nprobe_(nprobe)
{
    index::IvfConfig config;
    config.codec = codec;
    config.nlist = nlist ? nlist : index::IvfIndex::suggestedNlist(
        data.rows());
    index_ = std::make_unique<index::IvfIndex>(data.dim(),
                                               vecstore::Metric::L2, config);
    index_->train(data);
    index_->addSequential(data);
}

QueryResult
MonolithicSearch::search(vecstore::VecView query, std::size_t k) const
{
    QueryResult result;
    index::SearchParams params;
    params.nprobe = nprobe_;
    result.deep_stats.resize(1);
    result.hits = index_->search(query, k, params, &result.deep_stats[0]);
    result.deep_clusters = {0};
    result.total = result.deep_stats[0];
    return result;
}

// ---------------------------------------------------------------------------
// NaiveSplitSearch
// ---------------------------------------------------------------------------

NaiveSplitSearch::NaiveSplitSearch(const DistributedStore &store)
    : store_(store)
{
}

QueryResult
NaiveSplitSearch::search(vecstore::VecView query, std::size_t k) const
{
    const auto &config = store_.config();
    QueryResult result;
    const std::size_t n = store_.numClusters();
    result.deep_stats.resize(n);
    result.deep_clusters.reserve(n);

    std::vector<vecstore::HitList> partials;
    partials.reserve(n);
    index::SearchParams params;
    params.nprobe = config.deep_nprobe;
    for (std::size_t c = 0; c < n; ++c) {
        partials.push_back(store_.clusterIndex(c).search(
            query, k, params, &result.deep_stats[c]));
        result.deep_clusters.push_back(static_cast<std::uint32_t>(c));
        result.total.merge(result.deep_stats[c]);
    }
    result.hits = vecstore::mergeHitLists(partials, k);
    return result;
}

// ---------------------------------------------------------------------------
// CentroidRouting
// ---------------------------------------------------------------------------

CentroidRouting::CentroidRouting(const DistributedStore &store,
                                 std::size_t clusters_override)
    : store_(store),
      clusters_to_search_(clusters_override
                              ? clusters_override
                              : store.config().clusters_to_search)
{
    HERMES_ASSERT(clusters_to_search_ <= store_.numClusters(),
                  "clusters_to_search exceeds cluster count");
}

QueryResult
CentroidRouting::search(vecstore::VecView query, std::size_t k) const
{
    const auto &config = store_.config();
    QueryResult result;
    result.deep_stats.resize(store_.numClusters());

    auto ranked = cluster::nearestCentroids(query, store_.centroids(),
                                            clusters_to_search_);
    // Centroid comparisons are counted as sampling-phase work: one
    // distance per cluster.
    result.sample_stats.resize(store_.numClusters());
    for (std::size_t c = 0; c < store_.numClusters(); ++c) {
        result.sample_stats[c].distance_computations = 1;
        result.total.distance_computations += 1;
    }

    std::vector<vecstore::HitList> partials;
    index::SearchParams params;
    params.nprobe = config.deep_nprobe;
    for (auto c : ranked) {
        partials.push_back(store_.clusterIndex(c).search(
            query, k, params, &result.deep_stats[c]));
        result.deep_clusters.push_back(c);
        result.total.merge(result.deep_stats[c]);
    }
    result.hits = vecstore::mergeHitLists(partials, k);
    return result;
}

// ---------------------------------------------------------------------------
// HermesSearch
// ---------------------------------------------------------------------------

HermesSearch::HermesSearch(const DistributedStore &store,
                           std::size_t clusters_override,
                           std::size_t sample_nprobe_override,
                           std::size_t deep_nprobe_override)
    : store_(store),
      clusters_to_search_(clusters_override
                              ? clusters_override
                              : store.config().clusters_to_search),
      sample_nprobe_(sample_nprobe_override
                         ? sample_nprobe_override
                         : store.config().sample_nprobe),
      deep_nprobe_(deep_nprobe_override ? deep_nprobe_override
                                        : store.config().deep_nprobe)
{
    HERMES_ASSERT(clusters_to_search_ <= store_.numClusters(),
                  "clusters_to_search exceeds cluster count");
}

std::vector<std::pair<float, std::uint32_t>>
HermesSearch::rankClustersBySampling(
    vecstore::VecView query,
    std::vector<index::SearchStats> &sample_stats) const
{
    const auto &config = store_.config();
    const std::size_t n = store_.numClusters();
    sample_stats.resize(n);

    // Document sampling (paper §4.2): retrieve sample_k documents from
    // every cluster with a cheap low-nProbe search and score the cluster
    // by its best sampled document. Unlike centroid routing, this probes
    // actual documents, so clusters whose centroid is mediocre but which
    // contain a pocket of highly relevant documents still rank high.
    index::SearchParams params;
    params.nprobe = sample_nprobe_;

    std::vector<std::pair<float, std::uint32_t>> scored;
    scored.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
        auto hits = store_.clusterIndex(c).search(query, config.sample_k,
                                                  params, &sample_stats[c]);
        float best = hits.empty() ? std::numeric_limits<float>::max()
                                  : hits.front().score;
        scored.emplace_back(best, static_cast<std::uint32_t>(c));
    }
    std::sort(scored.begin(), scored.end());
    return scored;
}

QueryResult
HermesSearch::search(vecstore::VecView query, std::size_t k) const
{
    static obs::Histogram &h_query = obs::Registry::instance().histogram(
        obs::names::kCoreQueryLatencyUs);
    static obs::Histogram &h_sample = obs::Registry::instance().histogram(
        obs::names::kCoreSamplePhaseUs);
    static obs::Histogram &h_deep = obs::Registry::instance().histogram(
        obs::names::kCoreDeepPhaseUs);

    QueryResult result;
    result.deep_stats.resize(store_.numClusters());

    obs::TraceContext trace_context(
        obs::TraceRecorder::instance().sampleQuery());
    obs::ScopedSpan query_span("core.search");
    query_span.arg("k", static_cast<std::uint64_t>(k));
    util::Timer query_timer;
    util::Timer phase_timer;

    // Phase 1: sample + rank.
    std::vector<std::pair<float, std::uint32_t>> ranked;
    {
        obs::ScopedSpan span("core.sample");
        ranked = rankClustersBySampling(query, result.sample_stats);
    }
    for (const auto &stats : result.sample_stats)
        result.total.merge(stats);
    h_sample.observe(phase_timer.elapsedMicros());

    // Phase 2: deep search of the top clusters. With adaptive pruning
    // enabled, clusters far from the best sampled distance are skipped
    // (extension; see HermesConfig::adaptive_epsilon).
    phase_timer.reset();
    index::SearchParams params;
    params.nprobe = deep_nprobe_;
    std::vector<vecstore::HitList> partials;
    const std::size_t deep = deepClusterCount(
        ranked, clusters_to_search_, store_.config().adaptive_epsilon);
    {
        obs::ScopedSpan span("core.deep");
        span.arg("clusters", static_cast<std::uint64_t>(deep));
        for (std::size_t i = 0; i < deep; ++i) {
            std::uint32_t c = ranked[i].second;
            partials.push_back(store_.clusterIndex(c).search(
                query, k, params, &result.deep_stats[c]));
            result.deep_clusters.push_back(c);
            result.total.merge(result.deep_stats[c]);
        }
    }
    h_deep.observe(phase_timer.elapsedMicros());

    // Phase 3: rerank merged candidates into the final top-k.
    result.hits = vecstore::mergeHitLists(partials, k);
    h_query.observe(query_timer.elapsedMicros());
    return result;
}

} // namespace core
} // namespace hermes
