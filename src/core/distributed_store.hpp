/**
 * @file
 * The distributed datastore: one IVF index per similarity cluster, each
 * deployable on its own node (paper §4.1, Fig 9/10).
 */

#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "index/ivf_index.hpp"
#include "vecstore/matrix.hpp"

namespace hermes {
namespace core {

/**
 * A set of per-cluster IVF indices plus the routing metadata (cluster
 * centroids) needed to direct queries.
 *
 * External ids stored in the cluster indices are the row indices of the
 * original datastore matrix, so results from different clusters are
 * directly comparable and rerankable.
 */
class DistributedStore
{
  public:
    /**
     * Partition @p data per @p config and build one IVF index per
     * partition. Throws std::invalid_argument on a bad config, fewer
     * rows than clusters, or a partition that comes out empty.
     */
    static DistributedStore build(const vecstore::Matrix &data,
                                  const HermesConfig &config);

    /**
     * Assemble a store from pre-built cluster indices (e.g. loaded from
     * disk by the tools/ binaries). The returned store's partitioning()
     * diagnostics carry sizes only — per-row membership lists are not
     * recoverable from serialized indices.
     *
     * @param config    Hermes configuration (num_clusters must match).
     * @param indices   One trained IVF index per cluster.
     * @param centroids Cluster centroids (num_clusters x dim).
     */
    static DistributedStore
    assemble(const HermesConfig &config,
             std::vector<std::unique_ptr<index::IvfIndex>> indices,
             vecstore::Matrix centroids);

    /** Number of cluster indices. */
    std::size_t numClusters() const { return indices_.size(); }

    /** The IVF index of cluster @p c. */
    const index::IvfIndex &clusterIndex(std::size_t c) const;

    /** Vectors stored in cluster @p c. */
    std::size_t clusterSize(std::size_t c) const;

    /** Cluster centroids (num_clusters x dim). */
    const vecstore::Matrix &centroids() const { return centroids_; }

    /** Partitioning diagnostics (imbalance, chosen seed). */
    const cluster::Partitioning &partitioning() const { return partition_; }

    /** Embedding dimensionality. */
    std::size_t dim() const { return centroids_.dim(); }

    /** Total vectors across all clusters. */
    std::size_t totalVectors() const;

    /** Total payload memory across all cluster indices. */
    std::size_t memoryBytes() const;

    /** The configuration this store was built with. */
    const HermesConfig &config() const { return config_; }

  private:
    DistributedStore() = default;

    HermesConfig config_;
    cluster::Partitioning partition_;
    vecstore::Matrix centroids_;
    std::vector<std::unique_ptr<index::IvfIndex>> indices_;
};

} // namespace core
} // namespace hermes
