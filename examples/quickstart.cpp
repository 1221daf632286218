/**
 * @file
 * Quickstart: the five-minute Hermes tour.
 *
 * Builds a small RAG system over a synthetic topic corpus, asks a
 * question, and shows what the hierarchical search retrieved and which
 * clusters it visited. See examples/rag_chat.cpp for the full strided
 * generation loop and examples/capacity_planner.cpp for at-scale
 * deployment planning.
 */

#include <cstdio>

#include "hermes/hermes.hpp"
#include "util/argparse.hpp"

int
main(int argc, char **argv)
{
    using namespace hermes;

    util::ArgParser args("quickstart", "the five-minute Hermes tour");
    args.parse(argc, argv);

    // 1. Synthesize a corpus of topic-coherent documents (stand-in for
    //    your real document collection).
    rag::SynthTextConfig text_config;
    text_config.num_docs = 400;
    text_config.num_topics = 8;
    text_config.words_per_doc = 160;
    auto corpus = rag::generateSynthCorpus(text_config);

    // 2. Configure the system: 8 similarity clusters, deep-search the
    //    best 3 (the paper's recommended operating point).
    rag::RagSystemConfig config;
    config.embedding_dim = 96;
    config.chunking.tokens_per_chunk = 80;
    config.hermes.num_clusters = 8;
    config.hermes.clusters_to_search = 3;
    config.hermes.sample_nprobe = 2;
    config.hermes.deep_nprobe = 16;
    config.hermes.docs_to_retrieve = 5;

    rag::RagSystem system(config);
    for (const auto &doc : corpus.documents)
        system.addDocument(doc);
    system.finalize();

    const auto &store = system.store();
    std::printf("\nDatastore: %zu chunks in %zu clusters "
                "(size imbalance %.2fx, seed %llu)\n",
                system.datastore().size(), store.numClusters(),
                store.partitioning().imbalance.max_min_ratio,
                static_cast<unsigned long long>(
                    store.partitioning().chosen_seed));

    // 3. Ask a question about topic 3.
    std::string question = corpus.questionAbout(3);
    std::printf("\nQ: %s\n\n", question.c_str());

    auto hits = system.retrieve(question, 5);
    std::printf("Top-%zu retrieved chunks (inner-product reranked):\n",
                hits.size());
    for (const auto &hit : hits) {
        const auto &chunk = system.datastore().chunk(hit.id);
        std::printf("  chunk %-4lld (doc %-3zu, topic %u): %.60s...\n",
                    static_cast<long long>(hit.id), chunk.doc,
                    corpus.topic_of_doc[chunk.doc], chunk.text.c_str());
    }

    // 4. Generate an answer with retrieval striding.
    rag::GenerationConfig gen;
    gen.output_tokens = 24;
    gen.stride = 8;
    auto result = system.generate(question, gen);
    std::printf("\nA (surrogate decoder, %zu strides, %.2f ms retrieval):"
                "\n  %s\n\n",
                result.strides.size(),
                result.retrieval_wall_seconds * 1e3,
                result.output_text.c_str());
    return 0;
}
