#include "core/manifest.hpp"

#include <charconv>
#include <fstream>
#include <map>

namespace hermes {
namespace core {

void
Manifest::save(const std::filesystem::path &dir) const
{
    const std::string path = (dir / "manifest.txt").string();
    std::ofstream out(path);
    out << "type=" << type << '\n';
    out << "num_clusters=" << num_clusters << '\n';
    out << "dim=" << dim << '\n';
    out << "codec=" << codec << '\n';
    out << "corpus=" << corpus_file << '\n';
    out << "centroids=" << centroids_file << '\n';
    for (std::size_t c = 0; c < cluster_files.size(); ++c)
        out << "cluster_" << c << '=' << cluster_files[c] << '\n';
    if (recipe)
        out << "num_docs=" << recipe->num_docs << "\nnum_topics="
            << recipe->num_topics << "\ncorpus_seed=" << recipe->seed
            << '\n';
    out.close();
    if (!out)
        throw util::FormatError(util::FormatErrorCode::Io,
                                path + ": cannot write manifest");
}

Manifest
Manifest::load(const std::filesystem::path &dir)
{
    const std::string path = (dir / "manifest.txt").string();
    std::ifstream in(path);
    if (!in)
        throw util::FormatError(util::FormatErrorCode::Io,
                                path + ": cannot open (run "
                                       "hermes_build_index first)");
    std::map<std::string, std::string> kv;
    std::string line;
    while (std::getline(in, line)) {
        auto eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        kv[line.substr(0, eq)] = line.substr(eq + 1);
    }
    auto get = [&](const std::string &key) -> const std::string & {
        auto it = kv.find(key);
        if (it == kv.end())
            throw util::FormatError(util::FormatErrorCode::Corrupt,
                                    path + ": missing key '" + key + "'");
        return it->second;
    };
    auto count = [&](const std::string &key) {
        const std::string &text = get(key);
        std::size_t value = 0;
        auto [end, ec] =
            std::from_chars(text.data(), text.data() + text.size(), value);
        if (ec != std::errc() || end != text.data() + text.size())
            throw util::FormatError(util::FormatErrorCode::Corrupt,
                                    path + ": " + key + "='" + text +
                                        "' is not a count");
        return value;
    };
    Manifest manifest;
    manifest.type = get("type");
    manifest.num_clusters = count("num_clusters");
    manifest.dim = count("dim");
    manifest.codec = get("codec");
    manifest.corpus_file = get("corpus");
    manifest.centroids_file = get("centroids");
    for (std::size_t c = 0; c < manifest.num_clusters; ++c)
        manifest.cluster_files.push_back(get("cluster_" + std::to_string(c)));
    if (kv.count("num_docs") + kv.count("num_topics") +
            kv.count("corpus_seed") != 0) {
        manifest.recipe.emplace();
        manifest.recipe->num_docs = count("num_docs");
        manifest.recipe->dim = manifest.dim;
        manifest.recipe->num_topics = count("num_topics");
        manifest.recipe->seed = count("corpus_seed");
    }
    return manifest;
}

std::unique_ptr<index::IvfIndex>
loadClusterIndex(const std::filesystem::path &dir, const Manifest &manifest,
                 std::size_t c, StoreLoadMode mode,
                 const index::IvfIndex::MmapOptions &options)
{
    const std::string path = (dir / manifest.cluster_files[c]).string();
    auto index = mode == StoreLoadMode::kMapped
                     ? index::IvfIndex::openMapped(path, options)
                     : index::IvfIndex::load(path);
    HERMES_REQUIRE(index->dim() == manifest.dim, path, " has dim ",
                   index->dim(), ", the manifest says ", manifest.dim);
    return index;
}

DistributedStore
loadStore(const std::filesystem::path &dir, const Manifest &manifest,
          HermesConfig config, StoreLoadMode mode)
{
    config.num_clusters = manifest.num_clusters;
    config.codec = manifest.codec;
    std::vector<std::unique_ptr<index::IvfIndex>> indices;
    for (std::size_t c = 0; c < manifest.num_clusters; ++c)
        indices.push_back(loadClusterIndex(dir, manifest, c, mode));
    const std::string centroids_path =
        (dir / manifest.centroids_file).string();
    auto centroids = vecstore::Matrix::load(centroids_path);
    HERMES_REQUIRE(centroids.dim() == manifest.dim, centroids_path,
                   " has dim ", centroids.dim(), ", the manifest says ",
                   manifest.dim);
    return DistributedStore::assemble(config, std::move(indices),
                                      std::move(centroids));
}

} // namespace core
} // namespace hermes
