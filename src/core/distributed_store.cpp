#include "core/distributed_store.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/threadpool.hpp"

namespace hermes {
namespace core {

void
HermesConfig::validate() const
{
    HERMES_REQUIRE(num_clusters != 0,
                   "HermesConfig: num_clusters must be >= 1");
    HERMES_REQUIRE(clusters_to_search != 0 &&
                       clusters_to_search <= num_clusters,
                   "HermesConfig: clusters_to_search (", clusters_to_search,
                   ") must be in [1, num_clusters=", num_clusters, "]");
    HERMES_REQUIRE(docs_to_retrieve != 0,
                   "HermesConfig: docs_to_retrieve must be >= 1");
    HERMES_REQUIRE(sample_k != 0, "HermesConfig: sample_k must be >= 1");
    HERMES_REQUIRE(sample_nprobe != 0 && deep_nprobe != 0,
                   "HermesConfig: nProbe values must be >= 1");
}

HermesConfig
demoStoreConfig(std::size_t num_clusters, std::size_t nlist_per_cluster)
{
    HermesConfig config;
    config.num_clusters = num_clusters;
    config.clusters_to_search = std::min<std::size_t>(3, num_clusters);
    config.sample_nprobe = 4;
    config.deep_nprobe = 32;
    config.partition.seeds_to_try = 3;
    config.nlist_per_cluster = nlist_per_cluster;
    return config;
}

DistributedStore
DistributedStore::build(const vecstore::Matrix &data,
                        const HermesConfig &config)
{
    config.validate();
    HERMES_REQUIRE(data.rows() >= config.num_clusters,
                   "datastore smaller than cluster count (", data.rows(),
                   " rows, ", config.num_clusters, " clusters)");

    DistributedStore store;
    store.config_ = config;
    store.config_.partition.num_partitions = config.num_clusters;

    // Partitioning and per-cluster index construction are deterministic
    // (seeded, with serial-order sums), so both parallelize across cores
    // without changing the result.
    util::ThreadPool pool;
    store.partition_ =
        cluster::partition(data, store.config_.partition, &pool);
    store.centroids_ = store.partition_.centroids;

    store.indices_.resize(config.num_clusters);
    pool.parallelFor(config.num_clusters, [&](std::size_t c) {
        const auto &members = store.partition_.members[c];
        HERMES_REQUIRE(!members.empty(),
                       "similarity partitioning produced empty cluster ", c);

        vecstore::Matrix cluster_data = data.gather(members);
        std::vector<vecstore::VecId> ids;
        ids.reserve(members.size());
        for (std::size_t row : members)
            ids.push_back(static_cast<vecstore::VecId>(row));

        index::IvfConfig ivf;
        ivf.codec = config.codec;
        ivf.nlist = config.nlist_per_cluster
            ? config.nlist_per_cluster
            : index::IvfIndex::suggestedNlist(members.size());
        ivf.nlist = std::min(ivf.nlist, members.size());
        ivf.seed = 0x1d10 + c;

        auto idx = std::make_unique<index::IvfIndex>(
            data.dim(), vecstore::Metric::L2, ivf);
        idx->train(cluster_data);
        idx->add(cluster_data, ids);
        store.indices_[c] = std::move(idx);
    });
    return store;
}

DistributedStore
DistributedStore::assemble(
    const HermesConfig &config,
    std::vector<std::unique_ptr<index::IvfIndex>> indices,
    vecstore::Matrix centroids)
{
    config.validate();
    HERMES_ASSERT(indices.size() == config.num_clusters,
                  "assemble: expected ", config.num_clusters,
                  " indices, got ", indices.size());
    HERMES_ASSERT(centroids.rows() == config.num_clusters,
                  "assemble: centroid count mismatch");
    for (std::size_t c = 0; c < indices.size(); ++c) {
        HERMES_ASSERT(indices[c] != nullptr && indices[c]->isTrained(),
                      "assemble: cluster ", c, " index missing/untrained");
        HERMES_ASSERT(indices[c]->dim() == centroids.dim(),
                      "assemble: cluster ", c, " dim mismatch");
    }

    DistributedStore store;
    store.config_ = config;
    store.centroids_ = std::move(centroids);
    store.indices_ = std::move(indices);
    store.partition_.centroids = store.centroids_;
    store.partition_.members.resize(store.indices_.size());
    std::vector<std::size_t> sizes;
    for (const auto &idx : store.indices_)
        sizes.push_back(idx->size());
    store.partition_.imbalance = cluster::imbalance(sizes);
    return store;
}

const index::IvfIndex &
DistributedStore::clusterIndex(std::size_t c) const
{
    HERMES_ASSERT(c < indices_.size(), "bad cluster index ", c);
    return *indices_[c];
}

std::size_t
DistributedStore::clusterSize(std::size_t c) const
{
    return clusterIndex(c).size();
}

std::size_t
DistributedStore::totalVectors() const
{
    std::size_t total = 0;
    for (const auto &idx : indices_)
        total += idx->size();
    return total;
}

std::size_t
DistributedStore::memoryBytes() const
{
    std::size_t total = centroids_.memoryBytes();
    for (const auto &idx : indices_)
        total += idx->memoryBytes();
    return total;
}

} // namespace core
} // namespace hermes
