/**
 * @file
 * Deployment capacity planner: given a datastore size and serving
 * scenario, uses the multi-node cost models to recommend a Hermes
 * deployment (cluster size / node count) and predicts TTFT, E2E latency,
 * throughput and energy against the monolithic baseline.
 *
 * Usage: capacity_planner [--tokens=N] [--batch=N] [--stride=N]
 *                         [--model=phi|gemma|opt] [--gpu=a6000|l4]
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "hermes/hermes.hpp"
#include "util/argparse.hpp"

namespace {

using namespace hermes;

sim::LlmModel
parseModel(const util::ArgParser &args)
{
    const std::string &name = args.get("model");
    if (name == "phi")
        return sim::LlmModel::Phi15;
    if (name == "opt")
        return sim::LlmModel::Opt30B;
    if (name == "gemma")
        return sim::LlmModel::Gemma2_9B;
    args.fail("unknown --model '" + name + "' (phi | gemma | opt)");
}

sim::GpuModel
parseGpu(const util::ArgParser &args)
{
    const std::string &name = args.get("gpu");
    if (name == "l4")
        return sim::GpuModel::L4;
    if (name == "a6000")
        return sim::GpuModel::A6000Ada;
    args.fail("unknown --gpu '" + name + "' (a6000 | l4)");
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("capacity_planner",
                         "recommend a Hermes deployment for a datastore");
    args.addFlag("tokens", "100e9", "datastore size in tokens, e.g. 1e12");
    args.addFlag("batch", "128", "LLM serving batch");
    args.addFlag("stride", "16", "tokens generated per retrieval");
    args.addFlag("model", "gemma", "phi | gemma | opt");
    args.addFlag("gpu", "a6000", "a6000 | l4");
    args.parse(argc, argv);

    const double tokens = args.getDouble("tokens", 1.0);
    const auto batch = args.getInt<std::size_t>("batch", 1);
    const auto stride = args.getInt<std::size_t>("stride", 1);
    const sim::LlmModel model = parseModel(args);
    const sim::GpuModel gpu = parseGpu(args);

    sim::PipelineConfig config;
    config.datastore.tokens = tokens;
    config.batch = batch;
    config.stride = stride;
    config.model = model;
    config.gpu = gpu;

    const auto &llm = sim::llmProfile(model);
    const auto &gpu_profile = sim::gpuProfile(gpu);
    std::size_t gpus = sim::LlmCostModel(model, gpu).numGpus();

    std::printf("\n=== Hermes capacity planner ===\n");
    std::printf("datastore: %.3g tokens (%.2f TB as IVF-SQ8)\n", tokens,
                config.datastore.indexBytes() / 1e12);
    std::printf("serving:   %s on %zux %s, batch %zu, stride %zu\n",
                llm.name.c_str(), gpus, gpu_profile.name.c_str(), batch,
                stride);

    // KV-cache feasibility: weights + per-sequence cache must fit.
    std::size_t context = config.input_tokens + config.output_tokens;
    std::size_t max_batch = llm.maxBatch(gpu_profile, gpus, context);
    if (max_batch < batch) {
        HERMES_WARN("batch ", batch, " exceeds the KV-cache capacity of ",
                    gpus, "x ", gpu_profile.name, " at context ", context,
                    " (max ", max_batch, "); expect paging/preemption");
    } else {
        std::printf("KV cache:  batch %zu of %zu-token contexts fits "
                    "(max %zu)\n", batch, context, max_batch);
    }

    // Recommend a cluster size that hides retrieval under inference.
    double cluster_tokens =
        sim::RagPipelineSim::optimalClusterTokens(config);
    auto nodes = static_cast<std::size_t>(
        std::max(1.0, std::ceil(tokens / cluster_tokens)));
    // Keep at least clusters_to_search+1 nodes so routing has choices.
    nodes = std::max<std::size_t>(nodes, config.clusters_to_search + 1);
    config.num_clusters = nodes;

    sim::DatastoreGeometry per_node = config.datastore.split(nodes);
    std::printf("\nrecommendation: %zu retrieval nodes of ~%.3g tokens "
                "(%.0f GB each),\n  deep-searching %zu per query with "
                "nProbe %zu/%zu (sample/deep)\n", nodes, per_node.tokens,
                per_node.indexBytes() / 1e9, config.clusters_to_search,
                config.sample_nprobe, config.deep_nprobe);

    // Compare the three deployments.
    sim::PipelineConfig mono = config;
    mono.retrieval = sim::RetrievalMode::Monolithic;
    sim::PipelineConfig naive = config;
    naive.retrieval = sim::RetrievalMode::NaiveSplit;
    sim::PipelineConfig hermes = config;
    hermes.retrieval = sim::RetrievalMode::Hermes;
    hermes.pipelining = true;
    hermes.prefix_caching = true;
    hermes.dvfs = sim::DvfsPolicy::SlowestCluster;

    util::TablePrinter table({22, 10, 10, 12, 14});
    std::printf("\n");
    table.header({"deployment", "TTFT (s)", "E2E (s)", "QPS",
                  "energy (kJ)"});
    for (const auto *entry :
         {&mono, &naive, &hermes}) {
        auto result = sim::RagPipelineSim(*entry).run();
        std::string name =
            entry->retrieval == sim::RetrievalMode::Monolithic
                ? "monolithic baseline"
                : entry->retrieval == sim::RetrievalMode::NaiveSplit
                      ? "naive split"
                      : "Hermes (+pipe +cache)";
        table.row({name, util::TablePrinter::num(result.ttft, 2),
                   util::TablePrinter::num(result.e2e, 1),
                   util::TablePrinter::num(result.throughput_qps, 2),
                   util::TablePrinter::num(result.totalEnergy() / 1e3,
                                           1)});
    }

    auto base = sim::RagPipelineSim(mono).run();
    auto best = sim::RagPipelineSim(hermes).run();
    std::printf("\nHermes vs monolithic: %.2fx latency, %.2fx TTFT, "
                "%.2fx energy\n\n", base.e2e / best.e2e,
                base.ttft / best.ttft,
                base.totalEnergy() / best.totalEnergy());
    return 0;
}
