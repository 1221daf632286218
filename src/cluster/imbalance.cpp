#include "cluster/imbalance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hpp"
#include "util/threadpool.hpp"

namespace hermes {
namespace cluster {

ImbalanceStats
imbalance(const std::vector<std::size_t> &sizes)
{
    HERMES_ASSERT(!sizes.empty(), "imbalance of empty size vector");

    ImbalanceStats stats;
    std::size_t smallest = *std::min_element(sizes.begin(), sizes.end());
    std::size_t largest = *std::max_element(sizes.begin(), sizes.end());
    stats.max_min_ratio = smallest == 0
        ? std::numeric_limits<double>::infinity()
        : static_cast<double>(largest) / static_cast<double>(smallest);

    double total = 0.0;
    for (auto s : sizes)
        total += static_cast<double>(s);
    double mean = total / static_cast<double>(sizes.size());

    double var = 0.0;
    double entropy = 0.0;
    for (auto s : sizes) {
        double x = static_cast<double>(s);
        var += (x - mean) * (x - mean);
        if (total > 0.0 && x > 0.0) {
            double p = x / total;
            entropy -= p * std::log2(p);
        }
    }
    stats.variance = var / static_cast<double>(sizes.size());
    stats.entropy_bits = entropy;
    double max_entropy = std::log2(static_cast<double>(sizes.size()));
    stats.normalized_entropy =
        max_entropy > 0.0 ? entropy / max_entropy : 1.0;
    return stats;
}

SeedSearchResult
findBalancedSeed(const vecstore::Matrix &data, std::size_t k,
                 std::size_t num_seeds, std::uint64_t base_seed,
                 double sample_fraction, util::ThreadPool *pool)
{
    HERMES_ASSERT(num_seeds >= 1, "need at least one candidate seed");
    HERMES_ASSERT(sample_fraction > 0.0 && sample_fraction <= 1.0,
                  "sample_fraction must be in (0, 1]: ", sample_fraction);

    std::size_t sample_points = static_cast<std::size_t>(
        sample_fraction * static_cast<double>(data.rows()));
    sample_points = std::max(sample_points, k * 8);
    sample_points = std::min(sample_points, data.rows());

    // Each candidate is an independent seeded run on its own subsample,
    // writing only its own slot.
    SeedSearchResult result;
    result.all_ratios.assign(num_seeds, 0.0);
    auto trySeed = [&](std::size_t i) {
        KMeansConfig config;
        config.k = k;
        config.seed = base_seed + i;
        config.max_training_points = sample_points;
        // Short runs suffice: we only need the *relative* imbalance of the
        // converged basin each seed falls into.
        config.max_iterations = 10;
        result.all_ratios[i] = imbalance(kmeans(data, config).sizes)
                                   .max_min_ratio;
    };
    if (pool != nullptr) {
        pool->parallelFor(num_seeds, trySeed);
    } else {
        for (std::size_t i = 0; i < num_seeds; ++i)
            trySeed(i);
    }

    // Lowest ratio wins; ties go to the earlier seed.
    result.best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < num_seeds; ++i) {
        if (result.all_ratios[i] < result.best_ratio) {
            result.best_ratio = result.all_ratios[i];
            result.best_seed = base_seed + i;
        }
    }
    return result;
}

} // namespace cluster
} // namespace hermes
