/**
 * @file
 * Tests for the tooling layer: argument parsing, deployment manifests,
 * and store assembly from serialized indices (the save -> reload ->
 * search round trip the tools/ binaries rely on).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/manifest.hpp"
#include "core/search_strategy.hpp"
#include "util/argparse.hpp"
#include "util/serialize.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

TEST(ArgParser, DefaultsAndOverrides)
{
    util::ArgParser args("test", "test tool");
    args.addFlag("alpha", "7", "an int");
    args.addFlag("beta", "hello", "a string");
    args.addFlag("gamma", "0.5", "a double");
    args.addFlag("delta", "false", "a bool");

    const char *argv[] = {"test", "--alpha", "42", "--delta=true"};
    args.parse(4, const_cast<char **>(argv));

    EXPECT_EQ(args.getInt("alpha"), 42);
    EXPECT_TRUE(args.given("alpha"));
    EXPECT_EQ(args.get("beta"), "hello");
    EXPECT_FALSE(args.given("beta"));
    EXPECT_DOUBLE_EQ(args.getDouble("gamma"), 0.5);
    EXPECT_TRUE(args.getBool("delta"));
}

TEST(ArgParser, EqualsFormParsed)
{
    util::ArgParser args("test", "test tool");
    args.addFlag("name", "", "value");
    const char *argv[] = {"test", "--name=with=equals"};
    args.parse(2, const_cast<char **>(argv));
    EXPECT_EQ(args.get("name"), "with=equals");
}

TEST(ArgParser, UnknownFlagDies)
{
    util::ArgParser args("test", "test tool");
    args.addFlag("known", "1", "known flag");
    const char *argv[] = {"test", "--bogus", "1"};
    EXPECT_EXIT(args.parse(3, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(ArgParser, BadIntegerDies)
{
    util::ArgParser args("test", "test tool");
    args.addFlag("n", "1", "an int");
    const char *argv[] = {"test", "--n", "nope"};
    args.parse(3, const_cast<char **>(argv));
    EXPECT_EXIT((void)args.getInt("n"), ::testing::ExitedWithCode(2),
                "expects an integer");
}

TEST(ArgParser, GetAllKeepsEveryRepeatInOrder)
{
    util::ArgParser args("test", "test tool");
    args.addFlag("trace", "", "repeatable");
    args.addFlag("other", "x", "never given");
    const char *argv[] = {"test", "--trace=a.json", "--trace", "b.json",
                          "--trace=c.json"};
    args.parse(5, const_cast<char **>(argv));
    EXPECT_EQ(args.getAll("trace"),
              (std::vector<std::string>{"a.json", "b.json", "c.json"}));
    EXPECT_EQ(args.get("trace"), "c.json"); // the last one wins
    EXPECT_TRUE(args.getAll("other").empty());
    EXPECT_EQ(args.get("other"), "x");
}

TEST(ArgParser, GetListSplitsOnCommasDroppingEmpties)
{
    util::ArgParser args("test", "test tool");
    args.addFlag("nodes", "", "list");
    const char *argv[] = {"test", "--nodes=a:1,,b:2,"};
    args.parse(2, const_cast<char **>(argv));
    EXPECT_EQ(args.getList("nodes"),
              (std::vector<std::string>{"a:1", "b:2"}));
}

/** Parse `--n=<value>` and read it back through getInt<T>(min, max). */
template <typename T>
T
parsedInt(const char *value, T min = std::numeric_limits<T>::min(),
          T max = std::numeric_limits<T>::max())
{
    util::ArgParser args("test", "test tool");
    args.addFlag("n", "0", "an int");
    std::string arg = std::string("--n=") + value;
    char *argv[] = {const_cast<char *>("test"), arg.data()};
    args.parse(2, argv);
    return args.getInt<T>("n", min, max);
}

TEST(ArgParser, RangeCheckedIntegersAcceptTheirLimits)
{
    EXPECT_EQ(parsedInt<std::size_t>("0"), 0u);
    EXPECT_EQ(parsedInt<std::size_t>("18446744073709551615"),
              std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(parsedInt<std::uint16_t>("65535"), 65535);
    EXPECT_EQ(parsedInt<int>("-1", -1, 65535), -1);
    EXPECT_EQ(parsedInt<std::size_t>("9", 0, 9), 9u);
    EXPECT_EQ(parsedInt<long>("-9223372036854775808"),
              std::numeric_limits<long>::min());
}

TEST(ArgParser, RangeCheckedIntegersRejectEverythingElse)
{
    const auto usage = ::testing::ExitedWithCode(2);
    EXPECT_EXIT(parsedInt<std::size_t>("-5"), usage, "flag --n expects");
    EXPECT_EXIT(parsedInt<std::size_t>("18446744073709551616"), usage,
                "expects an integer in \\[0, 18446744073709551615\\]");
    EXPECT_EXIT(parsedInt<std::uint16_t>("65536"), usage, "--n");
    EXPECT_EXIT(parsedInt<std::size_t>("10", 0, 9), usage, "got '10'");
    EXPECT_EXIT(parsedInt<std::size_t>("0", 1), usage, "got '0'");
    EXPECT_EXIT(parsedInt<int>("-2", -1, 65535), usage, "--n");
    EXPECT_EXIT(parsedInt<int>("80abc"), usage, "got '80abc'");
    EXPECT_EXIT(parsedInt<int>("abc"), usage, "got 'abc'");
    EXPECT_EXIT(parsedInt<int>(""), usage, "got ''");
    EXPECT_EXIT(parsedInt<int>(" 7"), usage, "--n");
}

TEST(ArgParser, UsageErrorsExitTwo)
{
    const auto usage = ::testing::ExitedWithCode(2);
    util::ArgParser args("test", "test tool");
    args.addFlag("p", "0.5", "a probability");
    args.addFlag("b", "maybe", "a bool");
    const char *positional[] = {"test", "stray"};
    EXPECT_EXIT(args.parse(2, const_cast<char **>(positional)), usage,
                "unexpected positional argument 'stray'");
    const char *missing[] = {"test", "--p"};
    EXPECT_EXIT(args.parse(2, const_cast<char **>(missing)), usage,
                "missing a value");
    EXPECT_DOUBLE_EQ(args.getDouble("p", 0.0, 1.0), 0.5);
    EXPECT_EXIT((void)args.getDouble("p", 0.0, 0.25), usage,
                "expects a number in \\[0, 0.25\\]");
    EXPECT_EXIT((void)args.getBool("b"), usage, "expects true/false");
    EXPECT_EXIT(args.fail("custom"), usage, "test: custom");
}

TEST(Manifest, SaveLoadRoundTrip)
{
    auto dir = std::filesystem::temp_directory_path() / "hermes_manifest";
    std::filesystem::create_directories(dir);

    core::Manifest manifest;
    manifest.type = "clustered";
    manifest.num_clusters = 3;
    manifest.dim = 16;
    manifest.codec = "SQ4";
    manifest.cluster_files = {"a.hivf", "b.hivf", "c.hivf"};
    manifest.save(dir);

    auto loaded = core::Manifest::load(dir);
    EXPECT_EQ(loaded.type, "clustered");
    EXPECT_EQ(loaded.num_clusters, 3u);
    EXPECT_EQ(loaded.dim, 16u);
    EXPECT_EQ(loaded.codec, "SQ4");
    EXPECT_EQ(loaded.cluster_files, manifest.cluster_files);
    std::filesystem::remove_all(dir);
}

/** Write @p text as dir/manifest.txt and return the load's error code. */
util::FormatErrorCode
manifestLoadError(const std::filesystem::path &dir, const std::string &text)
{
    std::filesystem::create_directories(dir);
    {
        std::ofstream out(dir / "manifest.txt");
        out << text;
    }
    try {
        (void)core::Manifest::load(dir);
    } catch (const util::FormatError &e) {
        return e.code();
    }
    ADD_FAILURE() << "manifest loaded: " << text;
    return util::FormatErrorCode::Io;
}

const char kGoodManifest[] = "type=clustered\nnum_clusters=1\ndim=16\n"
                             "codec=SQ8\ncorpus=corpus.hmat\n"
                             "centroids=centroids.hmat\ncluster_0=a.hivf\n";

TEST(Manifest, MissingFileThrowsIo)
{
    auto dir = std::filesystem::temp_directory_path() / "hermes_no_manifest";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    try {
        (void)core::Manifest::load(dir);
        ADD_FAILURE() << "missing manifest.txt loaded";
    } catch (const util::FormatError &e) {
        EXPECT_EQ(e.code(), util::FormatErrorCode::Io);
    }
    std::filesystem::remove_all(dir);
}

TEST(Manifest, MissingKeyThrowsCorrupt)
{
    auto dir = std::filesystem::temp_directory_path() / "hermes_bad_manifest";
    std::string text = kGoodManifest;
    text.erase(text.find("codec="), std::string("codec=SQ8\n").size());
    EXPECT_EQ(manifestLoadError(dir, text), util::FormatErrorCode::Corrupt);
    // A cluster file the count promises but the manifest lacks.
    text = kGoodManifest;
    text.replace(text.find("num_clusters=1"), 14, "num_clusters=2");
    EXPECT_EQ(manifestLoadError(dir, text), util::FormatErrorCode::Corrupt);
    std::filesystem::remove_all(dir);
}

TEST(Manifest, NonNumericCountThrowsCorrupt)
{
    auto dir = std::filesystem::temp_directory_path() / "hermes_bad_count";
    for (const char *bad : {"dim=abc", "dim=16x", "dim=-1", "dim=",
                            "dim=99999999999999999999999"}) {
        std::string text = kGoodManifest;
        text.replace(text.find("dim=16"), 6, bad);
        EXPECT_EQ(manifestLoadError(dir, text),
                  util::FormatErrorCode::Corrupt)
            << bad;
    }
    std::filesystem::remove_all(dir);
}

TEST(StoreAssembly, ReloadedStoreSearchesIdentically)
{
    workload::CorpusConfig cc;
    cc.num_docs = 3000;
    cc.dim = 16;
    cc.num_topics = 9;
    cc.seed = 61;
    auto corpus = workload::generateCorpus(cc);

    core::HermesConfig config;
    config.num_clusters = 4;
    config.clusters_to_search = 2;
    config.sample_nprobe = 2;
    config.deep_nprobe = 16;
    config.partition.seeds_to_try = 2;
    auto store = core::DistributedStore::build(corpus.embeddings, config);

    // Serialize everything like hermes_build_index does.
    auto dir =
        std::filesystem::temp_directory_path() / "hermes_assembly";
    std::filesystem::create_directories(dir);
    core::Manifest manifest;
    manifest.num_clusters = store.numClusters();
    manifest.dim = corpus.embeddings.dim();
    corpus.embeddings.save((dir / manifest.corpus_file).string());
    store.centroids().save((dir / manifest.centroids_file).string());
    for (std::size_t c = 0; c < store.numClusters(); ++c) {
        std::string file = "cluster_" + std::to_string(c) + ".hivf";
        store.clusterIndex(c).save((dir / file).string());
        manifest.cluster_files.push_back(file);
    }
    manifest.save(dir);

    auto reloaded = core::loadStore(dir, core::Manifest::load(dir),
                                    config, core::StoreLoadMode::kHeap);
    EXPECT_EQ(reloaded.numClusters(), store.numClusters());
    EXPECT_EQ(reloaded.totalVectors(), store.totalVectors());

    core::HermesSearch original(store);
    core::HermesSearch restored(reloaded);
    workload::QueryConfig qc;
    qc.num_queries = 16;
    auto queries = workload::generateQueries(corpus, qc);
    for (std::size_t q = 0; q < queries.embeddings.rows(); ++q) {
        auto a = original.search(queries.embeddings.row(q), 5);
        auto b = restored.search(queries.embeddings.row(q), 5);
        ASSERT_EQ(a.hits.size(), b.hits.size());
        for (std::size_t i = 0; i < a.hits.size(); ++i) {
            EXPECT_EQ(a.hits[i].id, b.hits[i].id);
            EXPECT_FLOAT_EQ(a.hits[i].score, b.hits[i].score);
        }
        EXPECT_EQ(a.deep_clusters, b.deep_clusters);
    }
    std::filesystem::remove_all(dir);
}

TEST(StoreAssembly, MismatchedCountsDie)
{
    core::HermesConfig config;
    config.num_clusters = 2;
    config.clusters_to_search = 1;
    std::vector<std::unique_ptr<index::IvfIndex>> none;
    vecstore::Matrix centroids(2, 4);
    EXPECT_DEATH(core::DistributedStore::assemble(config, std::move(none),
                                                  std::move(centroids)),
                 "expected");
}

} // namespace
