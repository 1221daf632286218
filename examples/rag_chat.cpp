/**
 * @file
 * Strided-generation walkthrough: watches the Hermes hierarchical search
 * route every retrieval stride of a multi-question "chat" session, and
 * contrasts the work done against a naive search of all clusters.
 *
 * Usage: rag_chat [--num-docs=N] [--num-questions=N]
 */

#include <cstdio>

#include "hermes/hermes.hpp"
#include "util/argparse.hpp"

int
main(int argc, char **argv)
{
    using namespace hermes;

    util::ArgParser args("rag_chat", "strided-generation walkthrough");
    args.addFlag("num-docs", "600", "synthetic documents");
    args.addFlag("num-questions", "4", "questions in the chat session");
    args.parse(argc, argv);
    const auto num_docs = args.getInt<std::size_t>("num-docs", 1);
    const auto num_questions = args.getInt<std::size_t>("num-questions");

    rag::SynthTextConfig text_config;
    text_config.num_docs = num_docs;
    text_config.num_topics = 10;
    text_config.words_per_doc = 200;
    auto corpus = rag::generateSynthCorpus(text_config);

    rag::RagSystemConfig config;
    config.embedding_dim = 128;
    config.chunking.tokens_per_chunk = 100;
    config.hermes.num_clusters = 10;
    config.hermes.clusters_to_search = 3;
    config.hermes.sample_nprobe = 2;
    config.hermes.deep_nprobe = 16;
    config.generation.output_tokens = 32;
    config.generation.stride = 8;

    rag::RagSystem system(config);
    for (const auto &doc : corpus.documents)
        system.addDocument(doc);
    system.finalize();

    std::printf("\nCluster sizes:");
    for (auto size : system.store().partitioning().sizes())
        std::printf(" %zu", size);
    std::printf("\n");

    util::RunningStats scanned_hermes, scanned_naive;
    core::NaiveSplitSearch naive(system.store());

    for (std::size_t q = 0; q < num_questions; ++q) {
        auto topic = static_cast<std::uint32_t>(
            q % text_config.num_topics);
        auto question = corpus.questionAbout(topic, q);
        std::printf("\n=== Q%zu (topic %u): %s\n", q + 1, topic,
                    question.c_str());

        auto result = system.generate(question);
        std::printf("A: %.120s...\n", result.output_text.c_str());
        std::printf("strides:\n");
        for (const auto &event : result.strides) {
            std::printf("  #%zu: clusters [", event.index);
            for (std::size_t i = 0; i < event.deep_clusters.size(); ++i)
                std::printf("%s%u", i ? " " : "", event.deep_clusters[i]);
            std::printf("], best chunk %lld, %.2f ms\n",
                        static_cast<long long>(event.best_chunk),
                        event.retrieval_seconds * 1e3);
        }

        // Work accounting: Hermes vs searching every cluster.
        auto query = system.encoder().encode(question);
        auto hermes_result = system.searchStrategy().search(
            vecstore::VecView(query.data(), query.size()), 5);
        auto naive_result = naive.search(
            vecstore::VecView(query.data(), query.size()), 5);
        scanned_hermes.add(static_cast<double>(
            hermes_result.total.vectors_scanned));
        scanned_naive.add(static_cast<double>(
            naive_result.total.vectors_scanned));
    }

    std::printf("\nMean vectors scanned per query: Hermes %.0f vs "
                "naive-all-clusters %.0f (%.2fx less work)\n\n",
                scanned_hermes.mean(), scanned_naive.mean(),
                scanned_naive.mean() / scanned_hermes.mean());
    return 0;
}
