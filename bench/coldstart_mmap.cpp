/**
 * @file
 * Cold-start and page-cache economics of the zero-copy mmap datastore
 * (§4.1 deployment: one index per node, restarted at will).
 *
 * Builds one shard-sized index, saves it in the v3 on-disk format, then
 * times the three ways a restarted process can reach "ready": retrain +
 * re-add from raw embeddings (what a shard without saved index files
 * would pay), heap reload (IvfIndex::load — one full copy of
 * the file), and the zero-copy mmap open (IvfIndex::openMapped — header
 * + centroids only, lists faulted on demand). It then measures
 * first-batch and steady-state search latency through the heap and
 * mapped forms (which must do identical work — the stats are asserted
 * equal) and reports mapping residency before and after the scans.
 *
 * Page-cache caveat: an unprivileged bench cannot drop the page cache,
 * so "mmap open" here is the warm-cache figure — the cost of re-mapping
 * a file the previous process of this node already paid to fault in,
 * i.e. exactly the rolling-restart scenario. The first-batch latency
 * row shows the demand-fault tail instead.
 */

#include <cstdlib>

#include "bench_common.hpp"
#include "index/ivf_index.hpp"

#include <filesystem>

namespace {

using namespace hermes;
using hermes::vecstore::Matrix;
using hermes::vecstore::Metric;

double
envOr(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr ? std::strtod(v, nullptr) : fallback;
}

} // namespace

int
main()
{
    bench::banner(
        "coldstart", "mmap datastore cold start vs retrain vs heap reload",
        "shard restarts should cost milliseconds, not a rebuild "
        "(zero-copy mmap of the versioned on-disk index)");

    const std::size_t num_docs =
        static_cast<std::size_t>(envOr("HERMES_COLDSTART_DOCS", 60000));
    const std::size_t dim =
        static_cast<std::size_t>(envOr("HERMES_COLDSTART_DIM", 64));

    workload::CorpusConfig cc;
    cc.num_docs = num_docs;
    cc.dim = dim;
    cc.num_topics = 30;
    auto corpus = workload::generateCorpus(cc);

    workload::QueryConfig qc;
    qc.num_queries = 64;
    auto queries = workload::generateQueries(corpus, qc);

    index::IvfConfig config;
    config.nlist = index::IvfIndex::suggestedNlist(num_docs);
    config.codec = "SQ8";

    // The retrain path a restart pays without an index file.
    util::Timer build_timer;
    index::IvfIndex built(dim, Metric::L2, config);
    built.train(corpus.embeddings);
    built.addSequential(corpus.embeddings);
    const double build_ms = build_timer.elapsedSeconds() * 1e3;

    auto path = std::filesystem::temp_directory_path() /
                "hermes_coldstart.hivf";
    util::Timer save_timer;
    built.save(path.string());
    const double save_ms = save_timer.elapsedSeconds() * 1e3;
    const auto file_bytes = std::filesystem::file_size(path);

    std::printf("\nindex: %zu docs x %zu dims, %s, nlist=%zu, "
                "file %.1f MiB\n\n",
                num_docs, dim, built.name().c_str(), config.nlist,
                static_cast<double>(file_bytes) / (1024.0 * 1024.0));

    // Restart paths. Several rounds so the open cost is not a one-shot
    // noise sample; the first mapped open of the round also feeds the
    // first-batch latency row below.
    const int rounds = 5;
    double heap_ms = 0.0;
    double map_ms = 0.0;
    double map_noverify_ms = 0.0;
    double map_prefault_ms = 0.0;
    for (int r = 0; r < rounds; ++r) {
        util::Timer t1;
        auto heap = index::IvfIndex::load(path.string());
        heap_ms += t1.elapsedSeconds() * 1e3;

        util::Timer t2;
        auto mapped = index::IvfIndex::openMapped(path.string());
        map_ms += t2.elapsedSeconds() * 1e3;

        // The default open CRCs every section (one sequential pass over
        // the file); trusted redeploys can skip it and the open cost
        // collapses to header + centroids.
        index::IvfIndex::MmapOptions noverify;
        noverify.verify_checksums = false;
        util::Timer t3;
        auto trusted = index::IvfIndex::openMapped(path.string(), noverify);
        map_noverify_ms += t3.elapsedSeconds() * 1e3;

        index::IvfIndex::MmapOptions prefault;
        prefault.prefault = true;
        util::Timer t4;
        auto eager = index::IvfIndex::openMapped(path.string(), prefault);
        map_prefault_ms += t4.elapsedSeconds() * 1e3;
    }
    heap_ms /= rounds;
    map_ms /= rounds;
    map_noverify_ms /= rounds;
    map_prefault_ms /= rounds;

    std::printf("%-34s %12s %12s\n", "restart path", "ready (ms)",
                "vs retrain");
    std::printf("%-34s %12.2f %12s\n", "retrain + re-add (no file)",
                build_ms, "1.0x");
    std::printf("%-34s %12.2f %11.0fx\n", "heap reload (load)", heap_ms,
                build_ms / heap_ms);
    std::printf("%-34s %12.2f %11.0fx\n", "mmap open (openMapped)",
                map_ms, build_ms / map_ms);
    std::printf("%-34s %12.2f %11.0fx\n", "mmap open, checksums off",
                map_noverify_ms, build_ms / map_noverify_ms);
    std::printf("%-34s %12.2f %11.0fx\n", "mmap open + prefault",
                map_prefault_ms, build_ms / map_prefault_ms);

    // Search economics: the mapped view must do identical work; the
    // first batch pays the demand faults, steady state matches heap.
    index::SearchParams params;
    params.nprobe = 16;
    params.batch_min_scan_floats = 0;
    const std::size_t k = 10;

    auto heap = index::IvfIndex::load(path.string());
    auto mapped = index::IvfIndex::openMapped(path.string());

    index::SearchStats heap_stats;
    index::SearchStats map_stats;
    util::Timer first_heap;
    auto heap_hits = heap->searchBatch(queries.embeddings, k, params,
                                       &heap_stats);
    const double first_heap_ms = first_heap.elapsedSeconds() * 1e3;
    const std::size_t resident_before =
        mapped->mappedResidentBytes();
    util::Timer first_map;
    auto map_hits = mapped->searchBatch(queries.embeddings, k, params,
                                        &map_stats);
    const double first_map_ms = first_map.elapsedSeconds() * 1e3;
    HERMES_ASSERT(heap_hits == map_hits,
                  "mapped searcher drifted from heap searcher");
    HERMES_ASSERT(heap_stats.bytes_scanned == map_stats.bytes_scanned,
                  "mapped searcher scanned different bytes");

    const int search_rounds = 20;
    util::Timer steady_heap;
    for (int r = 0; r < search_rounds; ++r)
        (void)heap->searchBatch(queries.embeddings, k, params);
    const double steady_heap_ms =
        steady_heap.elapsedSeconds() * 1e3 / search_rounds;
    util::Timer steady_map;
    for (int r = 0; r < search_rounds; ++r)
        (void)mapped->searchBatch(queries.embeddings, k, params);
    const double steady_map_ms =
        steady_map.elapsedSeconds() * 1e3 / search_rounds;

    std::printf("\n%-34s %12s %12s\n", "search (64-query batch)",
                "heap (ms)", "mmap (ms)");
    std::printf("%-34s %12.2f %12.2f\n", "first batch (demand faults)",
                first_heap_ms, first_map_ms);
    std::printf("%-34s %12.2f %12.2f\n", "steady state (page-cache warm)",
                steady_heap_ms, steady_map_ms);

    std::printf("\nmapping residency: %.1f%% after open, %.1f%% after "
                "scans (%zu of %zu bytes)\n",
                100.0 * static_cast<double>(resident_before) /
                    static_cast<double>(mapped->mappedBytes()),
                100.0 * static_cast<double>(mapped->mappedResidentBytes()) /
                    static_cast<double>(mapped->mappedBytes()),
                mapped->mappedResidentBytes(), mapped->mappedBytes());
    std::printf("heap footprint: reload %.1f MiB resident vs view %.1f "
                "MiB + shared page cache\n",
                static_cast<double>(heap->memoryBytes()) / (1024.0 * 1024.0),
                static_cast<double>(mapped->memoryBytes()) /
                    (1024.0 * 1024.0));
    std::printf("save: %.2f ms\n", save_ms);

    std::filesystem::remove(path);
    return 0;
}
