/**
 * @file
 * Hermes framework configuration (paper Table 2).
 *
 * | Configuration aspect | Tuning option                     |
 * |----------------------|-----------------------------------|
 * | Latency & accuracy   | Sample search depth (sample_nprobe)|
 * |                      | Deep search depth (deep_nprobe)   |
 * |                      | Clusters to search in depth       |
 * |                      | Documents to retrieve (k)         |
 * | Node scaling         | Number of search indices          |
 * | Memory efficiency    | Size of search indices (codec)    |
 */

#pragma once

#include <cstdint>
#include <string>

#include "cluster/partitioner.hpp"

namespace hermes {
namespace core {

/** Full Hermes deployment configuration. */
struct HermesConfig
{
    /** Number of clustered indices / nodes (paper default: 10). */
    std::size_t num_clusters = 10;

    /**
     * nProbe for the coarse sampling pass over every cluster
     * (paper DSE optimum: 8; Fig 12 left).
     */
    std::size_t sample_nprobe = 8;

    /**
     * nProbe for the in-depth search of the selected clusters
     * (paper DSE optimum: 128; Fig 12 right).
     */
    std::size_t deep_nprobe = 128;

    /** Clusters selected for the in-depth search (paper: 3; Fig 11). */
    std::size_t clusters_to_search = 3;

    /** Documents retrieved per query (paper: 5). */
    std::size_t docs_to_retrieve = 5;

    /** Documents sampled per cluster during the sampling pass (paper: 1). */
    std::size_t sample_k = 1;

    /** Codec for the per-cluster IVF indices (paper: SQ8). */
    std::string codec = "SQ8";

    /**
     * Inverted lists per cluster index; 0 selects sqrt(cluster size),
     * the paper's nlist heuristic.
     */
    std::size_t nlist_per_cluster = 0;

    /**
     * Adaptive cluster pruning (extension; SPANN-style, paper §7): when
     * positive, the deep search visits only the ranked clusters whose
     * sampled best distance is within (1 + adaptive_epsilon) x the best
     * cluster's sampled distance, never more than clusters_to_search.
     * Saves work on easy queries whose relevant documents concentrate in
     * one or two clusters. 0 disables (paper behaviour: always search
     * exactly clusters_to_search).
     */
    double adaptive_epsilon = 0.0;

    /** Partitioning configuration (§4.1). */
    cluster::PartitionConfig partition;

    /** Validate invariants; throws std::invalid_argument on nonsense
     *  configurations. */
    void validate() const;
};

} // namespace core
} // namespace hermes
