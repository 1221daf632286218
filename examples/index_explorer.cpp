/**
 * @file
 * Index explorer: builds every index type the library offers on the same
 * corpus, compares recall / latency / memory, and demonstrates IVF
 * save/load — the offline index-construction workflow of Fig 2.
 *
 * Usage: index_explorer [--num-docs=N] [--dim=N]
 */

#include <cstdio>
#include <filesystem>

#include "hermes/hermes.hpp"
#include "util/argparse.hpp"

using namespace hermes;

namespace {

int
explore(const util::ArgParser &args)
{
    const auto dim = args.getInt<std::size_t>("dim", 1);

    workload::CorpusConfig cc;
    cc.num_docs = args.getInt<std::size_t>("num-docs", 1);
    cc.dim = dim;
    cc.num_topics = 24;
    auto corpus = workload::generateCorpus(cc);

    workload::QueryConfig qc;
    qc.num_queries = 64;
    auto queries = workload::generateQueries(corpus, qc);
    auto truth = eval::exactGroundTruth(corpus.embeddings,
                                        queries.embeddings, 10,
                                        vecstore::Metric::L2);

    std::printf("\nCorpus: %zu vectors, d=%zu (%.1f MB raw fp32)\n\n",
                corpus.embeddings.rows(), corpus.embeddings.dim(),
                corpus.embeddings.memoryBytes() / 1e6);

    util::TablePrinter table({16, 12, 14, 12, 14});
    table.header({"index", "recall@10", "batch (ms)", "mem (MB)",
                  "vectors/query"});
    for (const char *spec :
         {"Flat", "IVF141,Flat", "IVF141,SQ8", "IVF141,SQ4", "IVF141,PQ12",
          "HNSW16"}) {
        auto idx = index::makeIndex(spec, dim, vecstore::Metric::L2);
        idx->train(corpus.embeddings);
        idx->addSequential(corpus.embeddings);

        index::SearchParams params;
        params.nprobe = 16;
        params.ef_search = 64;
        index::SearchStats stats;
        util::Timer timer;
        auto results = idx->searchBatch(queries.embeddings, 10, params,
                                        &stats);
        double ms = timer.elapsedMillis();
        table.row({spec,
                   util::TablePrinter::num(
                       eval::meanRecallAtK(results, truth, 10), 3),
                   util::TablePrinter::num(ms, 1),
                   util::TablePrinter::num(idx->memoryBytes() / 1e6, 1),
                   util::TablePrinter::num(
                       static_cast<double>(stats.vectors_scanned) /
                       static_cast<double>(queries.embeddings.rows()), 0)});
    }

    // Save/load round trip.
    index::IvfConfig config;
    config.nlist = 141;
    config.codec = "SQ8";
    index::IvfIndex ivf(dim, vecstore::Metric::L2, config);
    ivf.train(corpus.embeddings);
    ivf.addSequential(corpus.embeddings);

    auto path = std::filesystem::temp_directory_path() / "explorer.hivf";
    ivf.save(path.string());
    auto loaded = index::IvfIndex::load(path.string());
    std::printf("\nSaved + reloaded %s: %zu vectors, %.1f MB on disk\n\n",
                loaded->name().c_str(), loaded->size(),
                static_cast<double>(std::filesystem::file_size(path)) /
                    1e6);
    std::filesystem::remove(path);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    util::setQuiet(true);

    util::ArgParser args("index_explorer",
                         "compare every index type on one corpus");
    args.addFlag("num-docs", "20000", "synthetic corpus size");
    args.addFlag("dim", "48", "embedding dimensionality");
    args.parse(argc, argv);
    // A corpus too small for an index (fewer rows than IVF lists) is
    // an input error: exit 1 with a message.
    return core::loadOrFatal([&] { return explore(args); });
}
