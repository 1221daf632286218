#include "quant/pq_codec.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>

#include "cluster/kmeans.hpp"
#include "util/logging.hpp"
#include "vecstore/distance.hpp"
#include "vecstore/simd_dispatch.hpp"

namespace hermes {
namespace quant {

namespace {

/** ADC computer: M table lookups + adds per code. */
class AdcDistance : public DistanceComputer
{
  public:
    AdcDistance(std::vector<float> table, std::size_t m)
        : DistanceComputer(m), table_(std::move(table)), m_(m)
    {
    }

    float
    operator()(const std::uint8_t *code) const override
    {
        float acc = 0.f;
        const float *table = table_.data();
        for (std::size_t sub = 0; sub < m_; ++sub)
            acc += table[sub * PqCodec::kSubCodebookSize + code[sub]];
        return acc;
    }

    void
    scan(const std::uint8_t *codes, std::size_t n, float /*threshold*/,
         float *out) const override
    {
        // Four codes in flight: the table loads for the four rows are
        // independent, so out-of-order execution overlaps the gather
        // latency that serializes the one-code-at-a-time loop. The
        // prefetch pulls the next code block while this one is summed.
        const float *table = table_.data();
        const std::size_t m = m_;
        std::size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            const std::uint8_t *c0 = codes + i * m;
            const std::uint8_t *c1 = c0 + m;
            const std::uint8_t *c2 = c1 + m;
            const std::uint8_t *c3 = c2 + m;
            __builtin_prefetch(c0 + 4 * m, 0, 3);
            __builtin_prefetch(c0 + 4 * m + 64, 0, 3);
            float a0 = 0.f, a1 = 0.f, a2 = 0.f, a3 = 0.f;
            for (std::size_t sub = 0; sub < m; ++sub) {
                const float *row =
                    table + sub * PqCodec::kSubCodebookSize;
                a0 += row[c0[sub]];
                a1 += row[c1[sub]];
                a2 += row[c2[sub]];
                a3 += row[c3[sub]];
            }
            out[i] = a0;
            out[i + 1] = a1;
            out[i + 2] = a2;
            out[i + 3] = a3;
        }
        for (; i < n; ++i)
            out[i] = (*this)(codes + i * m);
    }

    void
    scanMulti(const DistanceComputer *const *peers, std::size_t q_count,
              const std::uint8_t *codes, std::size_t n,
              const float *thresholds, float *const *out) const override
    {
        // Short lists fall back to the query-major strip default: the
        // transposed table below costs m*256*q_count writes to build,
        // which only pays once the batch streams enough codes to
        // amortize it. Both paths are bitwise identical to per-query
        // scan(), so the cutover is a pure performance heuristic.
        if (q_count < 2 || n < PqCodec::kSubCodebookSize) {
            DistanceComputer::scanMulti(peers, q_count, codes, n,
                                        thresholds, out);
            return;
        }
        // Query-transposed tables in padded chunk-major layout (see the
        // lut_accum_multi contract in simd_dispatch.hpp): queries are
        // grouped in chunks of 8 lanes, so one code byte resolves to one
        // contiguous 8-float row and each chunk's table is a compact
        // cache-resident block — the per-query scan instead does m
        // dependent scalar gathers per code. Per query the accumulation
        // is still one chain in ascending sub order over copied table
        // values, so scores are bitwise identical to peers[q]->scan().
        //
        // The batch executor calls scanMulti once per probed list with
        // the same peer set, so the transpose is cached on this computer
        // and keyed by the peers' unique ids (addresses can be reused
        // across batches; ids cannot). Computers are per-query state
        // already — the mutable cache keeps them single-thread objects,
        // it does not make a previously shareable object unshareable.
        const std::size_t m = m_;
        std::vector<std::uint64_t> key(q_count);
        for (std::size_t q = 0; q < q_count; ++q)
            key[q] = static_cast<const AdcDistance *>(peers[q])->id_;
        if (key != tkey_) {
            const std::size_t table_len = m * PqCodec::kSubCodebookSize;
            const std::size_t chunks = (q_count + 7) / 8;
            tlut_.assign(chunks * table_len * 8, 0.f);
            for (std::size_t q = 0; q < q_count; ++q) {
                const float *src = static_cast<const AdcDistance *>(peers[q])
                                       ->table_.data();
                float *dst = tlut_.data() + (q / 8) * table_len * 8 + q % 8;
                for (std::size_t idx = 0; idx < table_len; ++idx)
                    dst[idx * 8] = src[idx];
            }
            tkey_ = std::move(key);
        }
        vecstore::simd::active().lut_accum_multi(
            tlut_.data(), PqCodec::kSubCodebookSize, q_count, codes, n, m,
            out);
    }

  private:
    std::vector<float> table_;
    std::size_t m_;
    std::uint64_t id_ = next_id_.fetch_add(1, std::memory_order_relaxed);
    static std::atomic<std::uint64_t> next_id_;
    mutable std::vector<std::uint64_t> tkey_; ///< peers of cached tlut_
    mutable std::vector<float> tlut_;         ///< query-transposed table
};

std::atomic<std::uint64_t> AdcDistance::next_id_{1};

} // namespace

PqCodec::PqCodec(std::size_t dim, std::size_t m)
    : dim_(dim), m_(m), dsub_(m ? dim / m : 0)
{
    HERMES_REQUIRE(m_ > 0, "PQ needs at least one subquantizer");
    HERMES_REQUIRE(dim_ % m_ == 0, "PQ subquantizers (", m_,
                   ") must divide dim (", dim_, ")");
}

void
PqCodec::train(const vecstore::Matrix &data)
{
    HERMES_ASSERT(data.dim() == dim_, "train dim mismatch");
    HERMES_REQUIRE(data.rows() >= kSubCodebookSize,
                   "PQ training needs >= 256 points, got ", data.rows());

    codebooks_.assign(m_ * kSubCodebookSize * dsub_, 0.f);

    // Train one K-means per subspace on the projected training data.
    for (std::size_t sub = 0; sub < m_; ++sub) {
        vecstore::Matrix slice(data.rows(), dsub_);
        for (std::size_t i = 0; i < data.rows(); ++i) {
            auto src = data.row(i);
            auto dst = slice.row(i);
            for (std::size_t j = 0; j < dsub_; ++j)
                dst[j] = src[sub * dsub_ + j];
        }
        cluster::KMeansConfig config;
        config.k = kSubCodebookSize;
        config.max_iterations = 12;
        config.seed = 0xC0DEB00Cull + sub;
        auto run = cluster::kmeans(slice, config);
        float *dst = codebooks_.data() + sub * kSubCodebookSize * dsub_;
        std::copy(run.centroids.data(),
                  run.centroids.data() + kSubCodebookSize * dsub_, dst);
    }
    trained_ = true;
}

const float *
PqCodec::subCentroid(std::size_t m, std::size_t c) const
{
    return codebooks_.data() + (m * kSubCodebookSize + c) * dsub_;
}

void
PqCodec::encode(vecstore::VecView v, std::uint8_t *code) const
{
    HERMES_ASSERT(trained_, "PqCodec used before training");
    HERMES_ASSERT(v.size() == dim_, "encode dim mismatch");
    for (std::size_t sub = 0; sub < m_; ++sub) {
        const float *x = v.data() + sub * dsub_;
        float best = std::numeric_limits<float>::max();
        std::size_t best_c = 0;
        for (std::size_t c = 0; c < kSubCodebookSize; ++c) {
            float dd = vecstore::l2Sq(x, subCentroid(sub, c), dsub_);
            if (dd < best) {
                best = dd;
                best_c = c;
            }
        }
        code[sub] = static_cast<std::uint8_t>(best_c);
    }
}

void
PqCodec::decode(const std::uint8_t *code, vecstore::MutVecView out) const
{
    HERMES_ASSERT(trained_, "PqCodec used before training");
    HERMES_ASSERT(out.size() == dim_, "decode dim mismatch");
    for (std::size_t sub = 0; sub < m_; ++sub) {
        const float *c = subCentroid(sub, code[sub]);
        std::copy(c, c + dsub_, out.data() + sub * dsub_);
    }
}

void
PqCodec::computeAdcTable(vecstore::Metric metric, vecstore::VecView query,
                         float *table) const
{
    HERMES_ASSERT(trained_, "PqCodec used before training");
    // Each subquantizer's 256 centroids are contiguous, so table rows are
    // one blocked-kernel call against the codebook slab.
    for (std::size_t sub = 0; sub < m_; ++sub) {
        const float *q = query.data() + sub * dsub_;
        float *row = table + sub * kSubCodebookSize;
        vecstore::distanceBatch(metric, q, subCentroid(sub, 0),
                                kSubCodebookSize, dsub_, row);
    }
}

std::unique_ptr<DistanceComputer>
PqCodec::distanceComputer(vecstore::Metric metric,
                          vecstore::VecView query) const
{
    std::vector<float> table(m_ * kSubCodebookSize);
    computeAdcTable(metric, query, table.data());
    return std::make_unique<AdcDistance>(std::move(table), m_);
}

std::string
PqCodec::name() const
{
    return "PQ" + std::to_string(m_);
}

void
PqCodec::save(util::ByteWriter &w) const
{
    w.u64(dim_);
    w.u64(m_);
    w.u8(trained_ ? 1 : 0);
    w.vec(codebooks_);
}

void
PqCodec::load(util::ByteReader &r)
{
    auto dim = r.u64();
    auto m = r.u64();
    if (dim != dim_ || m != m_)
        r.fail(util::FormatErrorCode::Corrupt,
               "PqCodec shape mismatch on load");
    trained_ = r.u8() != 0;
    codebooks_ = r.vec<float>();
    // m_ sub-codebooks of kSubCodebookSize centroids of dim_/m_ floats.
    if (trained_ && codebooks_.size() != kSubCodebookSize * dim_)
        r.fail(util::FormatErrorCode::Corrupt,
               "PqCodec codebooks have the wrong size");
}

} // namespace quant
} // namespace hermes
