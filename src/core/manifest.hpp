/**
 * @file
 * The on-disk deployment manifest tying together the corpus matrix,
 * cluster centroids and the serialized per-cluster indices (artifact
 * appendix A.5 steps 7-12). Built once by hermes_build_index, consumed
 * by the serving and evaluation binaries ("build once, serve many").
 */

#pragma once

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/distributed_store.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"
#include "workload/corpus.hpp"

namespace hermes {
namespace core {

/** Deployment manifest: everything needed to reload a built index set. */
struct Manifest
{
    /** "monolithic", "split" (round-robin) or "clustered" (Hermes). */
    std::string type = "clustered";

    /** Number of cluster index files. */
    std::size_t num_clusters = 0;

    /** Embedding dimensionality. */
    std::size_t dim = 0;

    /** Codec spec the indices were built with. */
    std::string codec = "SQ8";

    /** File names, relative to the manifest directory. */
    std::string corpus_file = "corpus.hmat";
    std::string centroids_file = "centroids.hmat";
    std::vector<std::string> cluster_files;

    /**
     * Recipe of a synthesized corpus, from which serving_demo
     * regenerates it; empty for a corpus loaded from a file. Only
     * num_docs, num_topics and seed are stored (keys num_docs,
     * num_topics, corpus_seed): dim is the manifest's and every other
     * field keeps its default.
     */
    std::optional<workload::CorpusConfig> recipe;

    /**
     * Write to @p dir/manifest.txt.
     * @throws util::FormatError (Io) when the file cannot be written.
     */
    void save(const std::filesystem::path &dir) const;

    /**
     * Load from @p dir/manifest.txt.
     * @throws util::FormatError: Io when the file is missing, Corrupt
     *         for a missing key, a count that is not a number, or a
     *         partial corpus recipe (its keys come all or none).
     */
    static Manifest load(const std::filesystem::path &dir);
};

/** How loadStore materializes the per-cluster index files. */
enum class StoreLoadMode
{
    /** Copy each index into heap storage (mutable, page-cache free). */
    kHeap,

    /**
     * Zero-copy mmap each index file (read-only views; millisecond
     * cold starts, memory shared with the page cache).
     */
    kMapped,
};

/**
 * Open the index file of cluster @p c < manifest.num_clusters.
 * @throws util::FormatError for a bad file, std::invalid_argument when
 *         the index's dim is not the manifest's.
 */
std::unique_ptr<index::IvfIndex>
loadClusterIndex(const std::filesystem::path &dir, const Manifest &manifest,
                 std::size_t c, StoreLoadMode mode,
                 const index::IvfIndex::MmapOptions &options = {});

/**
 * Reload a DistributedStore from a manifest directory.
 *
 * @param mode kMapped opens every cluster index as a zero-copy mmap
 *             view; kHeap copies them into mutable heap storage.
 * @throws std::invalid_argument when an index or the centroids disagree
 *         with the manifest's dim or cluster count.
 */
DistributedStore loadStore(const std::filesystem::path &dir,
                           const Manifest &manifest, HermesConfig config,
                           StoreLoadMode mode);

/**
 * Run a loader (or writer, or builder), converting a typed rejection
 * into a clean exit(1) instead of an uncaught throw through
 * std::terminate: a FormatError prints "io error", "truncated archive"
 * or "corrupt archive", an std::invalid_argument (HERMES_REQUIRE)
 * "invalid input", each plus the message. For use at binary entry
 * points only: library code wants the typed error itself.
 */
template <typename Fn>
auto
loadOrFatal(Fn &&fn) -> decltype(fn())
{
    try {
        return fn();
    } catch (const util::FormatError &e) {
        const auto code = e.code();
        HERMES_FATAL(code == util::FormatErrorCode::Io ? "io error"
                     : code == util::FormatErrorCode::Truncated
                         ? "truncated archive"
                         : "corrupt archive",
                     ": ", e.what());
    } catch (const std::invalid_argument &e) {
        HERMES_FATAL("invalid input: ", e.what());
    }
}

} // namespace core
} // namespace hermes
