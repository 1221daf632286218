/**
 * @file
 * Index construction tool (artifact appendix A.5 step 7, Table 3).
 *
 * Synthesizes a datastore (or loads a saved embedding matrix), partitions
 * it with the requested scheme, builds the per-cluster IVF indices, and
 * writes everything plus a manifest to the output directory so the
 * profiling and accuracy tools, hermes_shard and serving_demo can reload
 * the deployment. The manifest is the one description of a deployment:
 * for a synthesized corpus it also records the recipe (--num-docs,
 * --num-topics, --seed), from which serving_demo regenerates the corpus
 * to draw its queries.
 *
 * --stream=1 switches per-cluster construction to the bounded-memory
 * IvfStreamWriter path: each cluster trains a small prototype (centroids
 * + codec), then streams its rows through a spill-and-scatter writer in
 * fixed batches, so encoded lists are never resident — peak index-build
 * memory is O(one cluster's training set + --stream-budget-mb),
 * independent of the deployment's total index size, and the output
 * files are byte-identical to the default in-memory build. The summary
 * reports peak RSS (getrusage) in both modes so the saving is
 * measurable.
 */

#include <filesystem>
#include <limits>
#include <optional>

#include <sys/resource.h>

#include "cluster/partitioner.hpp"
#include "core/manifest.hpp"
#include "index/ivf_stream_writer.hpp"
#include "util/argparse.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"
#include "workload/corpus.hpp"

namespace {

/** Peak resident set size of this process, in MiB. */
double
peakRssMib()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * Train cluster @p c's prototype on its @p members rows of @p data, then
 * stream the rows to @p path in batches of @p batch_rows, so encoded
 * lists are never resident (the writer's add() uses @p pool).
 */
void
streamCluster(const hermes::vecstore::Matrix &data,
              const std::vector<std::size_t> &members,
              const hermes::core::HermesConfig &config, std::size_t c,
              const std::string &path,
              const hermes::index::IvfStreamWriter::Options &sopts,
              std::size_t batch_rows, hermes::util::ThreadPool &pool)
{
    using namespace hermes;
    HERMES_REQUIRE(!members.empty(), "partitioning produced empty cluster ",
                   c);
    // The recipe DistributedStore::build uses, so the streamed file is
    // byte-identical to the in-memory build's save() of the same cluster.
    index::IvfIndex prototype(
        data.dim(), vecstore::Metric::L2,
        core::clusterIvfConfig(config, c, members.size()));
    prototype.train(data.gather(members)); // rows freed before streaming
    index::IvfStreamWriter writer(prototype, path, sopts);
    for (std::size_t at = 0; at < members.size(); at += batch_rows) {
        const std::size_t n = std::min(batch_rows, members.size() - at);
        std::vector<std::size_t> rows(
            members.begin() + static_cast<std::ptrdiff_t>(at),
            members.begin() + static_cast<std::ptrdiff_t>(at + n));
        std::vector<vecstore::VecId> ids(rows.begin(), rows.end());
        writer.add(data.gather(rows), ids, &pool);
    }
    writer.finish();
}

/** Build and write the deployment; IO failures throw util::FormatError. */
int
build(const hermes::util::ArgParser &args)
{
    using namespace hermes;

    // Every flag is checked before anything is written.
    workload::CorpusConfig cc;
    cc.num_docs = args.getInt<std::size_t>("num-docs", 1);
    cc.dim = args.getInt<std::size_t>("dim", 1);
    cc.num_topics = args.getInt<std::size_t>("num-topics", 1);
    cc.seed = args.getInt<std::uint64_t>("seed");
    const bool stream = args.getBool("stream");
    const auto batch_rows = args.getInt<std::size_t>("stream-batch", 1);
    index::IvfStreamWriter::Options sopts;
    sopts.buffer_budget_bytes =
        args.getInt<std::size_t>("stream-budget-mb", 1,
                                 std::numeric_limits<std::size_t>::max() >>
                                     20)
        << 20;

    core::Manifest manifest;
    manifest.type = args.get("type");
    manifest.codec = args.get("codec");

    core::HermesConfig config;
    config.codec = manifest.codec;
    config.nlist_per_cluster = args.getInt<std::size_t>("nlist");
    config.partition.seeds_to_try =
        args.getInt<std::size_t>("seeds-to-try", 1);
    const auto num_indices = args.getInt<std::size_t>("num-indices", 1);
    if (manifest.type == "monolithic") {
        config.num_clusters = 1;
        config.clusters_to_search = 1;
        config.partition.scheme = cluster::PartitionScheme::Contiguous;
    } else if (manifest.type == "split" || manifest.type == "clustered") {
        config.num_clusters = num_indices;
        config.clusters_to_search =
            std::min<std::size_t>(3, config.num_clusters);
        config.partition.scheme = manifest.type == "split"
            ? cluster::PartitionScheme::RoundRobin
            : cluster::PartitionScheme::Similarity;
    } else {
        args.fail("unknown --type '" + manifest.type + "'");
    }
    manifest.num_clusters = config.num_clusters;

    std::filesystem::path dir(args.get("output"));
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        throw util::FormatError(util::FormatErrorCode::Io,
                                dir.string() + ": cannot create output "
                                               "directory: " +
                                    ec.message());

    // Datastore embeddings: synthetic topic corpus or a user matrix.
    vecstore::Matrix data(0);
    if (args.given("corpus")) {
        data = vecstore::Matrix::load(args.get("corpus"));
        HERMES_INFORM("loaded ", data.rows(), " x ", data.dim(),
                      " embeddings from ", args.get("corpus"));
    } else {
        data = workload::generateCorpus(cc).embeddings;
        manifest.recipe = cc;
        HERMES_INFORM("synthesized ", data.rows(), " x ", data.dim(),
                      " embeddings (", cc.num_topics, " topics)");
    }
    manifest.dim = data.dim();

    // --stream only partitions here; the loop builds one cluster at a
    // time, which bounds memory.
    util::Timer timer;
    std::optional<util::ThreadPool> pool; // build() brings its own
    std::optional<core::DistributedStore> store;
    cluster::Partitioning partition;
    if (stream) {
        config.validate();
        HERMES_REQUIRE(data.rows() >= config.num_clusters,
                       "datastore smaller than cluster count (", data.rows(),
                       " rows, ", config.num_clusters, " clusters)");
        config.partition.num_partitions = config.num_clusters;
        partition =
            cluster::partition(data, config.partition, &pool.emplace());
    } else {
        store = core::DistributedStore::build(data, config);
    }
    const cluster::Partitioning &parts =
        store ? store->partitioning() : partition;

    data.save((dir / manifest.corpus_file).string());
    parts.centroids.save((dir / manifest.centroids_file).string());
    std::uintmax_t index_bytes = 0;
    for (std::size_t c = 0; c < config.num_clusters; ++c) {
        std::string file = "cluster_" + std::to_string(c) + ".hivf";
        if (store)
            store->clusterIndex(c).save((dir / file).string());
        else
            streamCluster(data, parts.members[c], config, c,
                          (dir / file).string(), sopts, batch_rows, *pool);
        index_bytes += std::filesystem::file_size(dir / file);
        manifest.cluster_files.push_back(file);
    }
    manifest.save(dir);

    HERMES_INFORM(stream ? "stream-built " : "built ", config.num_clusters,
                  " ", manifest.codec, " indices in ",
                  timer.elapsedSeconds(), " s (imbalance ",
                  parts.imbalance.max_min_ratio, ")");
    HERMES_INFORM("wrote deployment to ", dir.string(), " (",
                  index_bytes / 1024 / 1024, " MiB of index files, peak RSS ",
                  peakRssMib(), " MiB)");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hermes;

    util::ArgParser args("hermes_build_index",
                         "build Hermes retrieval indices");
    args.addFlag("output", "hermes_index", "output directory");
    args.addFlag("type", "clustered",
                 "monolithic | split (round-robin) | clustered (Hermes)");
    args.addFlag("num-docs", "20000", "synthetic corpus size (chunks)");
    args.addFlag("dim", "64", "embedding dimensionality");
    args.addFlag("num-topics", "30", "latent topics in the corpus");
    args.addFlag("num-indices", "10", "cluster indices to build");
    args.addFlag("codec", "SQ8", "vector codec (Flat/SQ8/SQ4/PQ<M>)");
    args.addFlag("nlist", "0", "inverted lists per index (0 = sqrt(n))");
    args.addFlag("seeds-to-try", "4",
                 "K-means seeds for the balanced-seed search");
    args.addFlag("seed", "42", "corpus generation seed");
    args.addFlag("corpus", "",
                 "load this .hmat embedding matrix instead of synthesizing");
    args.addFlag("stream", "0",
                 "1 = bounded-memory streaming build (IvfStreamWriter)");
    args.addFlag("stream-batch", "8192",
                 "rows per streaming encode batch");
    args.addFlag("stream-budget-mb", "64",
                 "scatter-phase flush budget per cluster (MiB)");
    args.parse(argc, argv);
    return core::loadOrFatal([&] { return build(args); });
}
