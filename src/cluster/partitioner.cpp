#include "cluster/partitioner.hpp"

#include "util/logging.hpp"

namespace hermes {
namespace cluster {

using vecstore::Matrix;

const char *
partitionSchemeName(PartitionScheme scheme)
{
    switch (scheme) {
      case PartitionScheme::Similarity: return "similarity";
      case PartitionScheme::RoundRobin: return "round-robin";
      case PartitionScheme::Contiguous: return "contiguous";
    }
    return "?";
}

std::vector<std::size_t>
Partitioning::sizes() const
{
    std::vector<std::size_t> out;
    out.reserve(members.size());
    for (const auto &m : members)
        out.push_back(m.size());
    return out;
}

namespace {

/** Mean of the rows assigned to each partition. */
Matrix
computeMeans(const Matrix &data,
             const std::vector<std::vector<std::size_t>> &members)
{
    const std::size_t d = data.dim();
    Matrix centroids(members.size(), d);
    for (std::size_t p = 0; p < members.size(); ++p) {
        if (members[p].empty())
            continue;
        auto row = centroids.row(p);
        for (std::size_t idx : members[p]) {
            auto src = data.row(idx);
            for (std::size_t j = 0; j < d; ++j)
                row[j] += src[j];
        }
        float inv = 1.f / static_cast<float>(members[p].size());
        for (std::size_t j = 0; j < d; ++j)
            row[j] *= inv;
    }
    return centroids;
}

Partitioning
partitionSimilarity(const Matrix &data, const PartitionConfig &config,
                    util::ThreadPool *pool)
{
    Partitioning out;

    // Multi-seed imbalance search on a subsample (paper §4.1).
    auto seed_search = findBalancedSeed(data, config.num_partitions,
                                        config.seeds_to_try,
                                        config.base_seed,
                                        config.seed_sample_fraction, pool);
    out.chosen_seed = seed_search.best_seed;

    KMeansConfig km;
    km.k = config.num_partitions;
    km.seed = seed_search.best_seed;
    km.max_iterations = config.max_iterations;
    // No training subsample, so the final assignments cover every row.
    auto run = kmeans(data, km, pool);

    out.centroids = std::move(run.centroids);
    out.members.assign(config.num_partitions, {});
    for (std::size_t i = 0; i < run.assignments.size(); ++i)
        out.members[run.assignments[i]].push_back(i);
    out.imbalance = imbalance(out.sizes());
    return out;
}

Partitioning
partitionRoundRobin(const Matrix &data, const PartitionConfig &config)
{
    Partitioning out;
    out.members.assign(config.num_partitions, {});
    for (std::size_t i = 0; i < data.rows(); ++i)
        out.members[i % config.num_partitions].push_back(i);
    out.centroids = computeMeans(data, out.members);
    out.imbalance = imbalance(out.sizes());
    return out;
}

Partitioning
partitionContiguous(const Matrix &data, const PartitionConfig &config)
{
    Partitioning out;
    out.members.assign(config.num_partitions, {});
    const std::size_t n = data.rows();
    const std::size_t p = config.num_partitions;
    for (std::size_t part = 0; part < p; ++part) {
        std::size_t begin = part * n / p;
        std::size_t end = (part + 1) * n / p;
        for (std::size_t i = begin; i < end; ++i)
            out.members[part].push_back(i);
    }
    out.centroids = computeMeans(data, out.members);
    out.imbalance = imbalance(out.sizes());
    return out;
}

} // namespace

Partitioning
partition(const Matrix &data, const PartitionConfig &config,
          util::ThreadPool *pool)
{
    HERMES_ASSERT(config.num_partitions >= 1,
                  "need at least one partition");
    HERMES_ASSERT(data.rows() >= config.num_partitions,
                  "fewer rows (", data.rows(), ") than partitions (",
                  config.num_partitions, ")");

    switch (config.scheme) {
      case PartitionScheme::Similarity:
        return partitionSimilarity(data, config, pool);
      case PartitionScheme::RoundRobin:
        return partitionRoundRobin(data, config);
      case PartitionScheme::Contiguous:
        return partitionContiguous(data, config);
    }
    HERMES_PANIC("unknown partition scheme");
}

} // namespace cluster
} // namespace hermes
