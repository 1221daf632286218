/**
 * @file
 * Negative-path robustness suite: misuse of every public API must fail
 * loudly (panic/fatal) rather than corrupt state — the gem5 error
 * discipline (panic = internal bug, fatal = user error). Malformed file
 * bytes are input, not misuse: they throw a typed util::FormatError.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "cluster/kmeans.hpp"
#include "cluster/partitioner.hpp"
#include "index/flat_index.hpp"
#include "index/ivf_index.hpp"
#include "quant/codec.hpp"
#include "sim/node_sim.hpp"
#include "sim/queue_sim.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "vecstore/matrix.hpp"
#include "vecstore/topk.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;
using vecstore::Matrix;
using vecstore::Metric;

Matrix
smallData(std::size_t rows = 64, std::size_t dim = 8)
{
    util::Rng rng(3);
    Matrix m(rows, dim);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < dim; ++j)
            m.row(i)[j] = static_cast<float>(rng.gaussian());
    return m;
}

/** Write @p bytes to a temp file and return Matrix::load's error code. */
util::FormatErrorCode
matrixLoadError(const std::string &name, const std::string &bytes)
{
    auto path = std::filesystem::temp_directory_path() / name;
    {
        std::ofstream out(path, std::ios::binary);
        out << bytes;
    }
    util::FormatErrorCode code = util::FormatErrorCode::Io;
    try {
        (void)Matrix::load(path.string());
        ADD_FAILURE() << name << " loaded";
    } catch (const util::FormatError &e) {
        code = e.code();
        EXPECT_NE(std::string(e.what()).find(path.string()),
                  std::string::npos);
    }
    std::filesystem::remove(path);
    return code;
}

TEST(Robustness, ArchiveBadMagicThrows)
{
    EXPECT_EQ(matrixLoadError("bad_magic.bin", "XXXXGARBAGE"),
              util::FormatErrorCode::BadMagic);
}

TEST(Robustness, ArchiveVersionMismatchThrows)
{
    util::ByteWriter w;
    w.raw("HMAT", 4);
    w.u32(7);
    w.u64(1);
    w.vec(std::vector<float>{1.f});
    EXPECT_EQ(matrixLoadError("bad_ver.bin", w.buffer()),
              util::FormatErrorCode::BadVersion);
}

TEST(Robustness, TruncatedArchiveThrows)
{
    util::ByteWriter w;
    w.raw("HMAT", 4);
    w.u32(1);
    w.u8(1); // first byte of the u64 dim
    EXPECT_EQ(matrixLoadError("truncated.bin", w.buffer()),
              util::FormatErrorCode::Truncated);
}

TEST(Robustness, MatrixRowOutOfRangePanics)
{
    Matrix m(2, 4);
    EXPECT_DEATH((void)m.row(2), "out of range");
}

TEST(Robustness, MatrixAppendDimMismatchPanics)
{
    Matrix m(2, 4);
    std::vector<float> wrong(3, 0.f);
    EXPECT_DEATH(m.append(vecstore::VecView(wrong.data(), 3)),
                 "does not match");
}

TEST(Robustness, TopKZeroCapacityPanics)
{
    EXPECT_DEATH(vecstore::TopK(0), "k >= 1");
}

TEST(Robustness, KmeansMorePointsThanCentroidsRequired)
{
    auto data = smallData(4, 8);
    cluster::KMeansConfig config;
    config.k = 10;
    EXPECT_DEATH((void)cluster::kmeans(data, config), "fewer points");
}

TEST(Robustness, PartitionMoreThanRowsPanics)
{
    auto data = smallData(4, 8);
    cluster::PartitionConfig config;
    config.num_partitions = 10;
    EXPECT_DEATH((void)cluster::partition(data, config), "fewer rows");
}

TEST(Robustness, IvfSearchBeforeTrainPanics)
{
    index::IvfConfig config;
    config.nlist = 4;
    index::IvfIndex ivf(8, Metric::L2, config);
    std::vector<float> q(8, 0.f);
    EXPECT_DEATH((void)ivf.search(vecstore::VecView(q.data(), 8), 1),
                 "before train");
}

TEST(Robustness, IvfAddBeforeTrainPanics)
{
    index::IvfConfig config;
    config.nlist = 4;
    index::IvfIndex ivf(8, Metric::L2, config);
    auto data = smallData(4, 8);
    EXPECT_DEATH(ivf.add(data, {0, 1, 2, 3}), "before train");
}

TEST(Robustness, IvfQueryDimMismatchPanics)
{
    auto data = smallData(64, 8);
    index::IvfConfig config;
    config.nlist = 4;
    index::IvfIndex ivf(8, Metric::L2, config);
    ivf.train(data);
    ivf.addSequential(data);
    std::vector<float> q(16, 0.f);
    EXPECT_DEATH((void)ivf.search(vecstore::VecView(q.data(), 16), 1),
                 "dim mismatch");
}

TEST(Robustness, UnknownCodecSpecIsFatal)
{
    EXPECT_EXIT((void)quant::makeCodec("ZSTD", 8),
                ::testing::ExitedWithCode(1), "unknown codec");
    EXPECT_EXIT((void)quant::makeCodec("PQ", 8),
                ::testing::ExitedWithCode(1), "suffix");
}

TEST(Robustness, PqMustDivideDim)
{
    EXPECT_THROW((void)quant::makeCodec("PQ3", 8), std::invalid_argument);
    try {
        (void)quant::makeCodec("PQ3", 8);
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("divide"), std::string::npos)
            << e.what();
    }
}

TEST(Robustness, UnknownIndexSpecIsFatal)
{
    EXPECT_EXIT((void)index::makeIndex("LSH64", 8, Metric::L2),
                ::testing::ExitedWithCode(1), "unknown index spec");
}

TEST(Robustness, MultiNodeBadSharesPanics)
{
    sim::MultiNodeConfig config;
    config.num_clusters = 4;
    config.cluster_shares = {1.0, 2.0}; // wrong length
    EXPECT_DEATH((void)sim::MultiNodeSimulator(config), "shares");
}

TEST(Robustness, TraceReferencingUnknownClusterPanics)
{
    sim::MultiNodeConfig config;
    config.num_clusters = 2;
    sim::MultiNodeSimulator sim(config);
    std::vector<std::vector<std::uint32_t>> accesses = {{5}};
    EXPECT_DEATH((void)sim.simulateBatch(accesses), "cluster");
}

TEST(Robustness, QueueRejectsNonsense)
{
    sim::QueueConfig config;
    config.arrival_qps = 0.0;
    auto service = [](std::size_t) { return 0.01; };
    EXPECT_DEATH((void)sim::simulateQueue(config, service),
                 "arrival rate");
}

TEST(Robustness, QueueRejectsNonPositiveServiceTime)
{
    sim::QueueConfig config;
    config.num_queries = 4;
    auto service = [](std::size_t) { return 0.0; };
    EXPECT_DEATH((void)sim::simulateQueue(config, service),
                 "service time");
}

TEST(Robustness, CorpusRequiresDocuments)
{
    workload::CorpusConfig cc;
    cc.num_docs = 0;
    EXPECT_DEATH((void)workload::generateCorpus(cc), "documents");
}

TEST(Robustness, FlatIndexIdCountMismatchPanics)
{
    index::FlatIndex flat(8, Metric::L2);
    auto data = smallData(4, 8);
    EXPECT_DEATH(flat.add(data, {1, 2}), "mismatch");
}

} // namespace
