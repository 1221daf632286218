/**
 * @file
 * Datastore partitioning strategies (paper §4.1, Fig 10 step 1).
 *
 * Hermes splits the monolithic datastore into per-node partitions by
 * K-means similarity so that a query only needs to visit a few partitions.
 * The naive baseline shards round-robin, which spreads every topic across
 * every node and forces all nodes to be searched.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "cluster/imbalance.hpp"
#include "cluster/kmeans.hpp"
#include "vecstore/matrix.hpp"

namespace hermes {
namespace cluster {

/** How to split a datastore across nodes. */
enum class PartitionScheme {
    /** K-means on document embeddings (Hermes). */
    Similarity,
    /** Round-robin assignment (naive distributed baseline). */
    RoundRobin,
    /** Contiguous equal ranges (insertion-order sharding). */
    Contiguous,
};

/** Human-readable scheme name. */
const char *partitionSchemeName(PartitionScheme scheme);

/** Partitioner configuration. */
struct PartitionConfig
{
    /** Number of partitions (cluster indices / nodes). */
    std::size_t num_partitions = 10;

    /** Scheme to use. */
    PartitionScheme scheme = PartitionScheme::Similarity;

    /** Candidate seeds for the balanced-seed search (Similarity only). */
    std::size_t seeds_to_try = 8;

    /** First candidate seed. */
    std::uint64_t base_seed = 1;

    /** Subsample fraction for seed search (paper: 1-2%). */
    double seed_sample_fraction = 0.02;

    /** K-means iterations for the final full-data clustering. */
    std::size_t max_iterations = 20;
};

/** Result of partitioning a datastore. */
struct Partitioning
{
    /** Row indices of the original matrix per partition. */
    std::vector<std::vector<std::size_t>> members;

    /**
     * Partition centroids (k x d). For non-similarity schemes these are
     * the means of the assigned rows, so centroid routing stays defined.
     */
    vecstore::Matrix centroids;

    /** Seed selected by the balanced-seed search (Similarity only). */
    std::uint64_t chosen_seed = 0;

    /** Imbalance of the final partition sizes. */
    ImbalanceStats imbalance;

    /** Partition sizes. */
    std::vector<std::size_t> sizes() const;
};

/**
 * Partition @p data into num_partitions pieces per @p config. With a
 * @p pool, the similarity scheme's seed search and k-means run on it;
 * the partitioning is the same either way.
 */
Partitioning partition(const vecstore::Matrix &data,
                       const PartitionConfig &config,
                       util::ThreadPool *pool = nullptr);

} // namespace cluster
} // namespace hermes
