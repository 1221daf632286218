#include "index/ivf_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "cluster/kmeans.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"
#include "util/timer.hpp"
#include "vecstore/distance.hpp"
#include "vecstore/topk.hpp"

namespace hermes {
namespace index {

namespace {

/** Deterministic reconstruction of the coarse HNSW graph (cheap
 *  relative to its serialized size, so it is never persisted). */
void
rebuildCoarseGraph(std::size_t dim, const vecstore::Matrix &centroids,
                   std::unique_ptr<HnswIndex> &slot)
{
    HnswConfig hc;
    hc.m = 16;
    hc.ef_construction = 80;
    slot = std::make_unique<HnswIndex>(dim, vecstore::Metric::L2, hc);
    slot->addSequential(centroids);
}

} // namespace

IvfIndex::IvfIndex(std::size_t dim, vecstore::Metric metric,
                   const IvfConfig &config)
    : dim_(dim), metric_(metric), config_(config),
      centroids_(dim), codec_(quant::makeCodec(config.codec, dim))
{
    HERMES_ASSERT(dim_ > 0, "IvfIndex needs dim > 0");
    HERMES_ASSERT(config_.nlist > 0, "IvfIndex needs nlist > 0");
    lists_.resize(config_.nlist);
}

std::size_t
IvfIndex::suggestedNlist(std::size_t n)
{
    auto nlist = static_cast<std::size_t>(
        std::sqrt(static_cast<double>(n)));
    return std::max<std::size_t>(nlist, 1);
}

void
IvfIndex::train(const vecstore::Matrix &data)
{
    assertMutable("train");
    HERMES_ASSERT(data.dim() == dim_, "train dim mismatch");
    HERMES_REQUIRE(data.rows() >= config_.nlist,
                   "IVF training needs >= nlist points (", config_.nlist,
                   "), got ", data.rows());

    cluster::KMeansConfig km;
    km.k = config_.nlist;
    km.max_iterations = config_.train_iterations;
    km.seed = config_.seed;
    km.max_training_points = config_.max_training_points;
    auto run = cluster::kmeans(data, km);
    centroids_ = std::move(run.centroids);

    if (config_.hnsw_coarse)
        rebuildCoarseGraph(dim_, centroids_, coarse_graph_);

    codec_->train(data);
    trained_ = true;
}

void
IvfIndex::add(const vecstore::Matrix &data,
              const std::vector<vecstore::VecId> &ids)
{
    addImpl(data, ids, nullptr);
}

void
IvfIndex::addParallel(const vecstore::Matrix &data,
                      const std::vector<vecstore::VecId> &ids,
                      util::ThreadPool &pool)
{
    addImpl(data, ids, &pool);
}

void
IvfIndex::addImpl(const vecstore::Matrix &data,
                  const std::vector<vecstore::VecId> &ids,
                  util::ThreadPool *pool)
{
    assertMutable("add");
    HERMES_ASSERT(trained_, "IvfIndex::add before train");
    HERMES_ASSERT(data.rows() == ids.size(), "add: row/id count mismatch");
    HERMES_ASSERT(data.dim() == dim_, "add: dim mismatch");

    const std::size_t n = data.rows();
    const std::size_t code_size = codec_->codeSize();

    // Phase 1: batch-assign and encode every row (independent per row,
    // so it fans out over the pool when one is supplied).
    std::vector<std::uint32_t> assign(n);
    std::vector<std::uint8_t> codes(n * code_size);
    auto assignAndEncode = [&](std::size_t i) {
        auto v = data.row(i);
        assign[i] = cluster::nearestCentroid(v, centroids_);
        codec_->encode(v, codes.data() + i * code_size);
    };
    if (pool != nullptr) {
        pool->parallelFor(n, assignAndEncode);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            assignAndEncode(i);
    }

    // Phase 2: sequential scatter preserves insertion order within each
    // list, so the result is identical to a row-by-row add().
    for (std::size_t i = 0; i < n; ++i) {
        auto &il = lists_[assign[i]];
        il.ids.push_back(ids[i]);
        il.codes.insert(il.codes.end(), codes.begin() + i * code_size,
                        codes.begin() + (i + 1) * code_size);
    }
    ntotal_ += n;
}

vecstore::HitList
IvfIndex::search(vecstore::VecView query, std::size_t k,
                 const SearchParams &params, SearchStats *stats) const
{
    HERMES_ASSERT(trained_, "IvfIndex::search before train");
    HERMES_ASSERT(query.size() == dim_, "search: dim mismatch");

    static obs::Histogram &h_coarse =
        obs::Registry::instance().histogram(obs::names::kIvfCoarseUs);
    static obs::Histogram &h_scan =
        obs::Registry::instance().histogram(obs::names::kIvfScanUs);
    obs::ScopedSpan span("ivf.search");
    util::Timer timer;

    std::size_t nprobe = std::max<std::size_t>(params.nprobe, 1);
    nprobe = std::min(nprobe, config_.nlist);

    // Coarse step: rank centroids by L2 regardless of metric — K-means
    // cells are Voronoi cells under L2 (FAISS does the same for IP via
    // normalized data; we keep L2 cell selection which is exact for the
    // normalized embeddings RAG encoders produce). With hnsw_coarse the
    // linear scan is replaced by a graph walk over the centroids.
    vecstore::HitList probe;
    std::uint64_t coarse_evals = config_.nlist;
    if (coarse_graph_) {
        SearchParams coarse_params;
        coarse_params.ef_search = nprobe + 16;
        SearchStats coarse_stats;
        probe = coarse_graph_->search(query, nprobe, coarse_params,
                                      &coarse_stats);
        coarse_evals = coarse_stats.distance_computations;
    } else {
        vecstore::TopK coarse(nprobe);
        static thread_local std::vector<float> coarse_scores;
        if (coarse_scores.size() < config_.nlist)
            coarse_scores.resize(config_.nlist);
        vecstore::l2SqBatch(query.data(), centroids_.data(), config_.nlist,
                            dim_, coarse_scores.data());
        for (std::size_t c = 0; c < config_.nlist; ++c)
            coarse.push(static_cast<vecstore::VecId>(c), coarse_scores[c]);
        probe = coarse.take();
    }
    h_coarse.observe(timer.elapsedMicros());
    timer.reset();

    auto computer = codec_->distanceComputer(metric_, query);
    const std::size_t code_size = codec_->codeSize();

    vecstore::TopK selector(std::max<std::size_t>(k, 1));
    std::uint64_t scanned = 0;
    std::uint64_t probed = 0;
    // SPANN-style pruning: skip candidate lists whose centroid distance
    // exceeds prune_ratio x the best centroid distance (probe list comes
    // out of the coarse selector best-first, so we can stop early).
    // Invariant: the multiplicative bound is only meaningful for the
    // always non-negative L2 coarse scores produced above (both the
    // linear scan and the coarse HNSW graph rank centroids by L2, even
    // for IP payload metrics). Guard against a negative best score so a
    // future coarse scorer on the IP score scale degrades to "no
    // pruning" instead of silently pruning every list but the first.
    const float prune_bound =
        params.prune_ratio > 0.0 && !probe.empty() &&
                probe.front().score >= 0.0f
            ? static_cast<float>(params.prune_ratio) * probe.front().score
            : std::numeric_limits<float>::max();
    // Block-oriented list scan: one scan() call per probed list (no
    // virtual dispatch per vector) into a buffer reused across lists and
    // queries, then a batched heap offer filtered against the current
    // worst retained score.
    static thread_local std::vector<float> scan_scores;
    for (const auto &candidate : probe) {
        if (candidate.score > prune_bound)
            break;
        const ListRef il = listRef(static_cast<std::size_t>(candidate.id));
        const std::size_t len = il.size;
        if (len > 0) {
            if (scan_scores.size() < len)
                scan_scores.resize(len);
            computer->scan(il.codes, len, selector.worst(),
                           scan_scores.data());
            selector.pushBatch(il.ids, scan_scores.data(), len);
        }
        scanned += len;
        ++probed;
    }

    h_scan.observe(timer.elapsedMicros());
    span.arg("lists_probed", probed);
    span.arg("vectors_scanned", scanned);

    if (stats) {
        stats->lists_probed += probed;
        stats->vectors_scanned += scanned;
        stats->distance_computations += scanned + coarse_evals;
        stats->bytes_scanned += scanned * code_size;
    }

    auto hits = selector.take();
    if (hits.size() > k)
        hits.resize(k);
    return hits;
}

std::vector<vecstore::HitList>
IvfIndex::searchBatch(const vecstore::Matrix &queries, std::size_t k,
                      const SearchParams &params,
                      std::vector<SearchStats> *per_query) const
{
    HERMES_ASSERT(trained_, "IvfIndex::searchBatch before train");
    HERMES_ASSERT(queries.dim() == dim_, "searchBatch: dim mismatch");

    const std::size_t num_queries = queries.rows();
    std::vector<vecstore::HitList> results(num_queries);
    if (per_query)
        per_query->assign(num_queries, SearchStats{});
    if (num_queries == 0)
        return results;
    if (num_queries == 1) {
        // No amortization to be had; the per-query path avoids the
        // buffering overhead.
        results[0] = search(queries.row(0), k, params,
                            per_query ? &(*per_query)[0] : nullptr);
        return results;
    }
    if (params.batch_min_scan_floats > 0 && config_.nlist > 0) {
        // Cost cutover (see SearchParams::batch_min_scan_floats): the
        // estimate assumes uniformly filled lists and ignores pruning,
        // which is all it needs — it only has to separate trivial scans
        // (sampled indexes, tiny dims) from ones worth amortizing.
        const std::size_t probe_est =
            std::min(std::max<std::size_t>(params.nprobe, 1),
                     config_.nlist);
        const std::size_t est_floats =
            ntotal_ * probe_est / config_.nlist * dim_;
        if (est_floats < params.batch_min_scan_floats) {
            for (std::size_t qi = 0; qi < num_queries; ++qi) {
                results[qi] =
                    search(queries.row(qi), k, params,
                           per_query ? &(*per_query)[qi] : nullptr);
            }
            return results;
        }
    }

    static obs::Histogram &h_coarse =
        obs::Registry::instance().histogram(obs::names::kIvfCoarseUs);
    static obs::Histogram &h_scan =
        obs::Registry::instance().histogram(obs::names::kIvfScanUs);
    obs::ScopedSpan span("ivf.search_batch");
    span.arg("queries", num_queries);
    util::Timer timer;

    std::size_t nprobe = std::max<std::size_t>(params.nprobe, 1);
    nprobe = std::min(nprobe, config_.nlist);
    const std::size_t code_size = codec_->codeSize();

    // -------------------------------------------------------------------
    // Coarse phase: rank centroids for every query. The linear scan goes
    // through the multi-query kernel in blocks (each centroid row is
    // streamed once per block, not once per query); per query the scores
    // and the ascending push order match search() exactly.
    // -------------------------------------------------------------------
    struct ProbeEntry
    {
        std::uint32_t list;
        std::size_t len;
        std::size_t offset; // into the group score buffer (len > 0 only)
    };
    std::vector<std::vector<ProbeEntry>> probes(num_queries);
    std::vector<std::uint64_t> coarse_evals(num_queries, config_.nlist);
    std::vector<std::size_t> scan_bytes(num_queries, 0);

    vecstore::HitList probe;
    auto buildProbeSequence = [&](std::size_t qi) {
        const float prune_bound =
            params.prune_ratio > 0.0 && !probe.empty() &&
                    probe.front().score >= 0.0f
                ? static_cast<float>(params.prune_ratio) *
                      probe.front().score
                : std::numeric_limits<float>::max();
        auto &seq = probes[qi];
        seq.reserve(probe.size());
        std::size_t bytes = 0;
        for (const auto &candidate : probe) {
            if (candidate.score > prune_bound)
                break;
            const std::size_t list = static_cast<std::size_t>(candidate.id);
            const std::size_t len = listRef(list).size;
            seq.push_back({static_cast<std::uint32_t>(list), len, 0});
            bytes += len * sizeof(float);
        }
        scan_bytes[qi] = bytes;
    };

    if (coarse_graph_) {
        SearchParams coarse_params;
        coarse_params.ef_search = nprobe + 16;
        for (std::size_t qi = 0; qi < num_queries; ++qi) {
            SearchStats coarse_stats;
            probe = coarse_graph_->search(queries.row(qi), nprobe,
                                          coarse_params, &coarse_stats);
            coarse_evals[qi] = coarse_stats.distance_computations;
            buildProbeSequence(qi);
        }
    } else {
        // Block the batch so the Q x nlist score tile stays modest.
        constexpr std::size_t kCoarseBlock = 64;
        std::vector<float> coarse_scores;
        std::vector<const float *> query_ptrs(kCoarseBlock);
        std::vector<float *> score_ptrs(kCoarseBlock);
        for (std::size_t base = 0; base < num_queries;
             base += kCoarseBlock) {
            const std::size_t block =
                std::min(kCoarseBlock, num_queries - base);
            coarse_scores.resize(block * config_.nlist);
            for (std::size_t b = 0; b < block; ++b) {
                query_ptrs[b] = queries.row(base + b).data();
                score_ptrs[b] = coarse_scores.data() + b * config_.nlist;
            }
            vecstore::l2SqBatchMulti(query_ptrs.data(), block,
                                     centroids_.data(), config_.nlist,
                                     dim_, score_ptrs.data());
            for (std::size_t b = 0; b < block; ++b) {
                vecstore::TopK coarse(nprobe);
                const float *scores = score_ptrs[b];
                for (std::size_t c = 0; c < config_.nlist; ++c) {
                    coarse.push(static_cast<vecstore::VecId>(c),
                                scores[c]);
                }
                probe = coarse.take();
                buildProbeSequence(base + b);
            }
        }
    }
    h_coarse.observe(timer.elapsedMicros());
    timer.reset();

    // -------------------------------------------------------------------
    // Scan phase. Queries are partitioned into execution groups whose
    // buffered scores fit kScoreBufferCap; within a group, (query, rank)
    // subscriptions are sorted by list id and each list is scanned once
    // via scanMulti with exact-score thresholds. Each query then replays
    // its pushBatch calls in coarse-rank order, reproducing the
    // per-query TopK feed (and its first-come tie behavior) bit for bit.
    // -------------------------------------------------------------------
    constexpr std::size_t kScoreBufferCap = std::size_t(32) << 20;
    struct Subscription
    {
        std::uint32_t list;
        std::uint32_t query; // batch-relative index
        std::uint32_t rank;  // position in the query's probe sequence
    };
    std::uint64_t total_probed = 0;
    std::uint64_t total_scanned = 0;
    std::vector<float> buffer;
    std::vector<Subscription> subs;
    std::vector<std::unique_ptr<quant::DistanceComputer>> computers;
    std::vector<const quant::DistanceComputer *> peer_ptrs;
    std::vector<float *> out_ptrs;
    std::vector<float> thresholds;

    std::size_t group_begin = 0;
    while (group_begin < num_queries) {
        std::size_t group_end = group_begin;
        std::size_t group_bytes = 0;
        while (group_end < num_queries &&
               (group_end == group_begin ||
                group_bytes + scan_bytes[group_end] <= kScoreBufferCap)) {
            group_bytes += scan_bytes[group_end];
            ++group_end;
        }

        // Assign buffer segments and collect subscriptions.
        subs.clear();
        std::size_t offset = 0;
        for (std::size_t qi = group_begin; qi < group_end; ++qi) {
            auto &seq = probes[qi];
            for (std::size_t r = 0; r < seq.size(); ++r) {
                if (seq[r].len == 0)
                    continue;
                seq[r].offset = offset;
                offset += seq[r].len;
                subs.push_back({seq[r].list,
                                static_cast<std::uint32_t>(qi - group_begin),
                                static_cast<std::uint32_t>(r)});
            }
        }
        buffer.resize(offset);
        std::sort(subs.begin(), subs.end(),
                  [](const Subscription &a, const Subscription &b) {
                      if (a.list != b.list)
                          return a.list < b.list;
                      return a.query < b.query;
                  });

        computers.clear();
        for (std::size_t qi = group_begin; qi < group_end; ++qi) {
            computers.push_back(
                codec_->distanceComputer(metric_, queries.row(qi)));
        }

        // One scanMulti per distinct probed list: the code stream and
        // any shared dequant work are amortized over every subscriber.
        std::size_t s = 0;
        while (s < subs.size()) {
            std::size_t e = s;
            while (e < subs.size() && subs[e].list == subs[s].list)
                ++e;
            const ListRef il = listRef(subs[s].list);
            const std::size_t len = il.size;
            const std::size_t m = e - s;
            peer_ptrs.resize(m);
            out_ptrs.resize(m);
            thresholds.assign(m, std::numeric_limits<float>::max());
            for (std::size_t t = 0; t < m; ++t) {
                const auto &sub = subs[s + t];
                peer_ptrs[t] = computers[sub.query].get();
                out_ptrs[t] =
                    buffer.data() +
                    probes[group_begin + sub.query][sub.rank].offset;
            }
            peer_ptrs[0]->scanMulti(peer_ptrs.data(), m, il.codes, len,
                                    thresholds.data(), out_ptrs.data());
            s = e;
        }

        // Per-query emit: replay the buffered segments in coarse-rank
        // order into a fresh TopK — identical pushes, identical ties.
        for (std::size_t qi = group_begin; qi < group_end; ++qi) {
            vecstore::TopK selector(std::max<std::size_t>(k, 1));
            std::uint64_t scanned = 0;
            const auto &seq = probes[qi];
            for (const auto &entry : seq) {
                if (entry.len > 0) {
                    selector.pushBatch(listRef(entry.list).ids,
                                       buffer.data() + entry.offset,
                                       entry.len);
                }
                scanned += entry.len;
            }
            auto hits = selector.take();
            if (hits.size() > k)
                hits.resize(k);
            results[qi] = std::move(hits);

            total_probed += seq.size();
            total_scanned += scanned;
            if (per_query) {
                auto &st = (*per_query)[qi];
                st.lists_probed += seq.size();
                st.vectors_scanned += scanned;
                st.distance_computations += scanned + coarse_evals[qi];
                st.bytes_scanned += scanned * code_size;
            }
        }
        group_begin = group_end;
    }

    h_scan.observe(timer.elapsedMicros());
    span.arg("lists_probed", total_probed);
    span.arg("vectors_scanned", total_scanned);
    return results;
}

std::size_t
IvfIndex::memoryBytes() const
{
    // Heap footprint only: a mapped index reports just its centroid
    // copy here — the file-backed bytes show up in mappedBytes() /
    // mappedResidentBytes() instead, because the page cache owns them
    // and can drop them under pressure.
    std::size_t bytes = centroids_.memoryBytes();
    for (const auto &il : lists_) {
        bytes += il.ids.size() * sizeof(vecstore::VecId);
        bytes += il.codes.size();
    }
    return bytes;
}

std::size_t
IvfIndex::mappedBytes() const
{
    return mapped_ ? mapped_->file.size() : 0;
}

std::size_t
IvfIndex::mappedResidentBytes() const
{
    return mapped_ ? mapped_->file.residentBytes() : 0;
}

IvfIndex::ListRef
IvfIndex::listRef(std::size_t list) const
{
    if (mapped_) {
        const ivff::ListEntry &e = mapped_->table[list];
        return {mapped_->ids + e.offset,
                mapped_->codes + e.offset * mapped_->code_size,
                static_cast<std::size_t>(e.count)};
    }
    const InvertedList &il = lists_[list];
    return {il.ids.data(), il.codes.data(), il.ids.size()};
}

void
IvfIndex::assertMutable(const char *op) const
{
    if (mapped_) {
        throw std::logic_error(
            std::string("IvfIndex::") + op +
            ": index is a read-only mmap view (reopen with load() to "
            "mutate)");
    }
}

std::string
IvfIndex::name() const
{
    return "IVF" + std::to_string(config_.nlist) + "," + codec_->name();
}

std::size_t
IvfIndex::removeIds(const std::vector<vecstore::VecId> &ids)
{
    assertMutable("removeIds");
    std::unordered_set<vecstore::VecId> doomed(ids.begin(), ids.end());
    const std::size_t code_size = codec_->codeSize();
    std::size_t removed = 0;
    for (auto &il : lists_) {
        std::size_t write = 0;
        for (std::size_t read = 0; read < il.ids.size(); ++read) {
            if (doomed.count(il.ids[read])) {
                ++removed;
                continue;
            }
            if (write != read) {
                il.ids[write] = il.ids[read];
                std::copy(il.codes.begin() +
                              static_cast<std::ptrdiff_t>(read * code_size),
                          il.codes.begin() +
                              static_cast<std::ptrdiff_t>((read + 1) *
                                                          code_size),
                          il.codes.begin() +
                              static_cast<std::ptrdiff_t>(write *
                                                          code_size));
            }
            ++write;
        }
        il.ids.resize(write);
        il.codes.resize(write * code_size);
    }
    ntotal_ -= removed;
    return removed;
}

std::size_t
IvfIndex::listSize(std::size_t list) const
{
    HERMES_ASSERT(list < config_.nlist, "listSize: bad list ", list);
    return listRef(list).size;
}

void
IvfIndex::save(const std::string &path) const
{
    // Codec parameters first: the blob's size is part of the layout.
    util::ByteWriter bw;
    codec_->save(bw);
    const std::string blob = bw.take();

    ivff::IndexMeta meta;
    meta.metric = metric_;
    meta.dim = dim_;
    meta.nlist = config_.nlist;
    meta.ntotal = ntotal_;
    meta.code_size = codec_->codeSize();
    meta.n_centroids = centroids_.rows();
    meta.trained = trained_;
    meta.hnsw_coarse = config_.hnsw_coarse;
    meta.codec_spec = config_.codec;

    std::vector<std::uint64_t> counts(config_.nlist);
    for (std::size_t l = 0; l < config_.nlist; ++l)
        counts[l] = listRef(l).size;

    ivff::IndexFileWriter w(path, meta, counts, blob.size());
    if (centroids_.rows() > 0) {
        w.write(w.sectionOffset(ivff::kCentroids), centroids_.data(),
                centroids_.rows() * dim_ * sizeof(float));
    }
    const std::uint64_t ids_base = w.sectionOffset(ivff::kIds);
    const std::uint64_t codes_base = w.sectionOffset(ivff::kCodes);
    const std::size_t code_size = codec_->codeSize();
    const auto &table = w.table();
    for (std::size_t l = 0; l < config_.nlist; ++l) {
        const ListRef il = listRef(l);
        if (il.size == 0)
            continue;
        w.write(ids_base + table[l].offset * sizeof(vecstore::VecId),
                il.ids, il.size * sizeof(vecstore::VecId));
        w.write(codes_base + table[l].offset * code_size, il.codes,
                il.size * code_size);
    }
    if (!blob.empty())
        w.write(w.sectionOffset(ivff::kCodecParams), blob.data(),
                blob.size());
    w.finish();
}

std::unique_ptr<IvfIndex>
IvfIndex::fromParsed(const ivff::ParsedIndex &parsed,
                     const std::string &path)
{
    const ivff::IndexMeta &meta = parsed.meta;
    IvfConfig config;
    config.nlist = static_cast<std::size_t>(meta.nlist);
    config.codec = meta.codec_spec;
    config.hnsw_coarse = meta.hnsw_coarse;

    // makeCodec treats a bad spec as fatal; for bytes that came off
    // disk it must be a typed rejection instead (a hostile file can
    // carry any spec with recomputed checksums).
    if (!quant::codecSpecValid(config.codec,
                               static_cast<std::size_t>(meta.dim))) {
        throw util::FormatError(util::FormatErrorCode::Corrupt,
                                path + ": invalid codec spec '" +
                                    config.codec + "'");
    }
    auto idx = std::make_unique<IvfIndex>(
        static_cast<std::size_t>(meta.dim), meta.metric, config);
    idx->trained_ = meta.trained;
    idx->ntotal_ = static_cast<std::size_t>(meta.ntotal);

    idx->centroids_ = vecstore::Matrix(idx->dim_);
    if (meta.n_centroids > 0) {
        // The only copied payload: nlist x dim floats, a rounding error
        // next to the code sections, and centroids() must expose a
        // Matrix anyway.
        idx->centroids_.reserveRows(meta.n_centroids);
        for (std::uint64_t i = 0; i < meta.n_centroids; ++i) {
            idx->centroids_.append(vecstore::VecView(
                parsed.centroids + i * meta.dim,
                static_cast<std::size_t>(meta.dim)));
        }
    }

    if (parsed.codec_blob == nullptr) {
        throw util::FormatError(util::FormatErrorCode::Corrupt,
                                path + ": missing codec parameters");
    }
    util::ByteReader br(parsed.codec_blob, parsed.codec_blob_bytes,
                        path + " (codec parameters)");
    idx->codec_->load(br);
    br.expectEnd();
    if (idx->codec_->codeSize() != meta.code_size) {
        throw util::FormatError(
            util::FormatErrorCode::Corrupt,
            path + ": codec code size disagrees with header");
    }
    return idx;
}

std::unique_ptr<IvfIndex>
IvfIndex::load(const std::string &path)
{
    // One parser for both paths: load() maps the file just long enough
    // to validate and copy it into heap-owned lists.
    util::MmapFile file(path);
    auto parsed = ivff::parseIndexFile(file);
    auto idx = fromParsed(parsed, path);
    const std::size_t code_size = idx->codec_->codeSize();
    for (std::size_t l = 0; l < idx->config_.nlist; ++l) {
        const ivff::ListEntry &e = parsed.list_table[l];
        auto &il = idx->lists_[l];
        il.ids.assign(parsed.ids + e.offset, parsed.ids + e.offset + e.count);
        il.codes.assign(parsed.codes + e.offset * code_size,
                        parsed.codes + (e.offset + e.count) * code_size);
    }
    if (idx->config_.hnsw_coarse && idx->trained_)
        rebuildCoarseGraph(idx->dim_, idx->centroids_, idx->coarse_graph_);
    return idx;
}

std::unique_ptr<IvfIndex>
IvfIndex::openMapped(const std::string &path)
{
    return openMapped(path, MmapOptions());
}

std::unique_ptr<IvfIndex>
IvfIndex::openMapped(const std::string &path, const MmapOptions &options)
{
    util::MmapFile file(path);
    auto parsed = ivff::parseIndexFile(file, options.verify_checksums);
    auto idx = fromParsed(parsed, path);
    // The parsed pointers target the mapping itself; moving the
    // MmapFile moves ownership, not the mapped address, so they stay
    // valid for the life of mapped_.
    idx->mapped_ = std::make_unique<MappedState>(
        MappedState{std::move(file), parsed.list_table, parsed.ids,
                    parsed.codes,
                    static_cast<std::size_t>(parsed.meta.code_size)});
    if (options.prefault)
        idx->mapped_->file.advise(util::MapAdvice::WillNeed);
    if (idx->config_.hnsw_coarse && idx->trained_)
        rebuildCoarseGraph(idx->dim_, idx->centroids_, idx->coarse_graph_);
    return idx;
}

} // namespace index
} // namespace hermes
