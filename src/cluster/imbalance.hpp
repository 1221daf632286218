/**
 * @file
 * Cluster-size imbalance metrics and multi-seed minimization (paper §4.1).
 *
 * K-means with different random seeds yields different cluster-size
 * imbalances; Hermes runs K-means on a small subsample across many seeds
 * and keeps the seed with the lowest largest-to-smallest size ratio.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "cluster/kmeans.hpp"

namespace hermes {
namespace cluster {

/** Imbalance statistics over a set of cluster sizes. */
struct ImbalanceStats
{
    /** Largest / smallest cluster size (the paper's chosen proxy). */
    double max_min_ratio = 1.0;

    /** Population variance of sizes. */
    double variance = 0.0;

    /** Shannon entropy of the size distribution, in bits. */
    double entropy_bits = 0.0;

    /** Entropy normalized by log2(k); 1.0 = perfectly balanced. */
    double normalized_entropy = 1.0;
};

/** Compute imbalance statistics from cluster sizes. */
ImbalanceStats imbalance(const std::vector<std::size_t> &sizes);

/** Outcome of a multi-seed imbalance search. */
struct SeedSearchResult
{
    /** Winning seed. */
    std::uint64_t best_seed = 0;

    /** Imbalance (max/min ratio) obtained by the winning seed. */
    double best_ratio = 0.0;

    /** Ratio achieved by every candidate seed, in trial order. */
    std::vector<double> all_ratios;
};

/**
 * Try @p num_seeds K-means seeds on a subsample of @p data and return the
 * seed minimizing the max/min cluster-size ratio.
 *
 * @param data       Full embedding matrix.
 * @param k          Number of clusters.
 * @param num_seeds  Seeds to evaluate (seed values are base_seed + i).
 * @param base_seed  First candidate seed.
 * @param sample_fraction Fraction of rows used per trial (paper: 1-2%).
 * @param pool       Runs the candidates in parallel when non-null; the
 *                   result is the same either way.
 */
SeedSearchResult findBalancedSeed(const vecstore::Matrix &data,
                                  std::size_t k,
                                  std::size_t num_seeds,
                                  std::uint64_t base_seed,
                                  double sample_fraction,
                                  util::ThreadPool *pool = nullptr);

} // namespace cluster
} // namespace hermes
