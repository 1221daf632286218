#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "vecstore/distance.hpp"
#include "vecstore/topk.hpp"

namespace hermes {
namespace cluster {

using vecstore::Matrix;

namespace {

/** Rows scored per blocked-kernel call (bounds scratch memory). */
constexpr std::size_t kScanBlockRows = 4096;

/** Per-thread score buffer of at least @p n floats. */
float *
threadScratch(std::size_t n)
{
    static thread_local std::vector<float> scratch;
    if (scratch.size() < n)
        scratch.resize(n);
    return scratch.data();
}

/** Nearest centroid of a point and its squared L2 distance. */
struct Nearest
{
    std::uint32_t centroid = 0;
    float dist = std::numeric_limits<float>::max();
};

/**
 * Centroid nearest to @p x under L2, via the blocked kernel. Ties keep
 * the lowest index. The blocks start at multiples of kScanBlockRows, so
 * every score has the same bits as one kernel call over all k centroids.
 */
Nearest
nearest(const float *x, const Matrix &centroids)
{
    const std::size_t k = centroids.rows();
    const std::size_t d = centroids.dim();
    float *scores = threadScratch(std::min(k, kScanBlockRows));
    Nearest best;
    for (std::size_t base = 0; base < k; base += kScanBlockRows) {
        const std::size_t len = std::min(kScanBlockRows, k - base);
        vecstore::l2SqBatch(x, centroids.row(base).data(), len, d, scores);
        for (std::size_t c = 0; c < len; ++c) {
            if (scores[c] < best.dist) {
                best.dist = scores[c];
                best.centroid = static_cast<std::uint32_t>(base + c);
            }
        }
    }
    return best;
}

/**
 * Run fn(base, len) over the fixed kScanBlockRows-row blocks of [0, n),
 * on @p pool when one is given.
 */
void
forEachBlock(std::size_t n, util::ThreadPool *pool,
             const std::function<void(std::size_t, std::size_t)> &fn)
{
    const std::size_t blocks = (n + kScanBlockRows - 1) / kScanBlockRows;
    auto one = [&](std::size_t b) {
        const std::size_t base = b * kScanBlockRows;
        fn(base, std::min(kScanBlockRows, n - base));
    };
    if (pool != nullptr) {
        pool->parallelFor(blocks, one);
    } else {
        for (std::size_t b = 0; b < blocks; ++b)
            one(b);
    }
}

/**
 * k-means++ seeding: pick centroids proportionally to squared distance from
 * the closest already-chosen centroid. The distance update runs over row
 * blocks (on @p pool if given); the total is summed serially in row order,
 * so the picks do not depend on the worker count.
 */
Matrix
seedKMeansPp(const Matrix &data, std::size_t k, util::Rng &rng,
             util::ThreadPool *pool)
{
    const std::size_t n = data.rows();
    const std::size_t d = data.dim();
    Matrix centroids(d);
    centroids.reserveRows(k);

    std::size_t first = rng.uniformInt(n);
    centroids.append(data.row(first));

    std::vector<float> dist_sq(n, std::numeric_limits<float>::max());
    for (std::size_t c = 1; c < k; ++c) {
        const float *last = centroids.row(c - 1).data();
        forEachBlock(n, pool, [&](std::size_t base, std::size_t len) {
            float *block = threadScratch(len);
            vecstore::l2SqBatch(last, data.row(base).data(), len, d, block);
            for (std::size_t i = 0; i < len; ++i)
                dist_sq[base + i] = std::min(dist_sq[base + i], block[i]);
        });
        double total = 0.0;
        for (float v : dist_sq)
            total += v;
        if (total <= 0.0) {
            // All remaining points coincide with chosen centroids; fall
            // back to a uniform pick.
            centroids.append(data.row(rng.uniformInt(n)));
            continue;
        }
        double target = rng.uniform() * total;
        double acc = 0.0;
        std::size_t chosen = n - 1;
        for (std::size_t i = 0; i < n; ++i) {
            acc += dist_sq[i];
            if (acc >= target) {
                chosen = i;
                break;
            }
        }
        centroids.append(data.row(chosen));
    }
    return centroids;
}

Matrix
seedRandom(const Matrix &data, std::size_t k, util::Rng &rng)
{
    auto picks = rng.sampleWithoutReplacement(data.rows(), k);
    Matrix centroids(data.dim());
    centroids.reserveRows(k);
    for (std::size_t idx : picks)
        centroids.append(data.row(idx));
    return centroids;
}

/**
 * One Lloyd assignment + accumulation pass in a single sweep: each row is
 * read once, assigned, and added to its cluster's sum. Fills assignments,
 * sizes and sums (zeroed by the caller); returns the summed distances.
 */
double
lloydPassFused(const Matrix &train, const Matrix &centroids,
               KMeansResult &result, std::vector<double> &sums)
{
    const std::size_t d = train.dim();
    double objective = 0.0;
    for (std::size_t i = 0; i < train.rows(); ++i) {
        const float *x = train.row(i).data();
        const Nearest best = nearest(x, centroids);
        result.assignments[i] = best.centroid;
        result.sizes[best.centroid]++;
        objective += best.dist;
        double *sum = sums.data() + best.centroid * d;
        for (std::size_t j = 0; j < d; ++j)
            sum[j] += x[j];
    }
    return objective;
}

/**
 * The same pass split across @p pool: row blocks are assigned in
 * parallel, sizes and the objective are summed serially in row order,
 * then each task owns whole clusters and adds their rows in row order.
 * Every double add happens in the order lloydPassFused() uses, so the
 * result has the same bits for any worker count.
 */
double
lloydPassSplit(const Matrix &train, const Matrix &centroids,
               KMeansResult &result, std::vector<double> &sums,
               util::ThreadPool &pool)
{
    const std::size_t n = train.rows();
    const std::size_t d = train.dim();
    const std::size_t k = centroids.rows();
    std::vector<float> best_dist(n);
    forEachBlock(n, &pool, [&](std::size_t base, std::size_t len) {
        for (std::size_t i = base; i < base + len; ++i) {
            const Nearest best = nearest(train.row(i).data(), centroids);
            result.assignments[i] = best.centroid;
            best_dist[i] = best.dist;
        }
    });

    double objective = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        result.sizes[result.assignments[i]]++;
        objective += best_dist[i];
    }

    // Rows grouped by cluster, each group in row order.
    std::vector<std::size_t> start(k + 1, 0);
    for (std::size_t c = 0; c < k; ++c)
        start[c + 1] = start[c] + result.sizes[c];
    std::vector<std::size_t> rows(n);
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
        rows[next[result.assignments[i]]++] = i;

    // A cluster's rows are scattered, which the hardware prefetcher
    // cannot follow; pull each row in a few rows ahead of its add.
    constexpr std::size_t kPrefetchAhead = 4;
    pool.parallelFor(k, [&](std::size_t c) {
        double *sum = sums.data() + c * d;
        for (std::size_t r = start[c]; r < start[c + 1]; ++r) {
            if (r + kPrefetchAhead < start[c + 1]) {
                const float *ahead =
                    train.row(rows[r + kPrefetchAhead]).data();
                for (std::size_t j = 0; j < d; j += 16) // 64-byte lines
                    __builtin_prefetch(ahead + j, 0, 3);
            }
            const float *x = train.row(rows[r]).data();
            for (std::size_t j = 0; j < d; ++j)
                sum[j] += x[j];
        }
    });
    return objective;
}

} // namespace

KMeansResult
kmeans(const Matrix &data, const KMeansConfig &config,
       util::ThreadPool *pool)
{
    HERMES_ASSERT(config.k >= 1, "kmeans needs k >= 1");
    HERMES_ASSERT(data.rows() >= config.k, "kmeans: fewer points (",
                  data.rows(), ") than centroids (", config.k, ")");

    util::Rng rng(config.seed);

    // Optional training subsample (paper §4.1: 1-2% subsets track the full
    // clustering closely at a fraction of the cost).
    const Matrix *train = &data;
    Matrix subset(data.dim());
    if (config.max_training_points > 0 &&
        config.max_training_points < data.rows()) {
        std::size_t want = std::max(config.max_training_points, config.k);
        auto picks = rng.sampleWithoutReplacement(data.rows(), want);
        subset = data.gather(picks);
        train = &subset;
    }

    const std::size_t n = train->rows();
    const std::size_t d = train->dim();
    const std::size_t k = config.k;

    // Split the passes only when several workers can take them: on one
    // core the fused Lloyd pass, which reads each row once, is faster.
    // A nested call from a pool task would run inline, so it stays fused.
    util::ThreadPool *workers =
        pool != nullptr && pool->size() > 1 && !pool->insideWorker()
            ? pool
            : nullptr;

    KMeansResult result;
    result.centroids = config.use_kmeanspp
                           ? seedKMeansPp(*train, k, rng, workers)
                           : seedRandom(*train, k, rng);
    result.assignments.assign(n, 0);
    result.sizes.assign(k, 0);

    std::vector<double> sums(k * d, 0.0);
    double prev_objective = std::numeric_limits<double>::max();

    for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
        result.iterations = iter + 1;

        std::fill(result.sizes.begin(), result.sizes.end(), 0);
        std::fill(sums.begin(), sums.end(), 0.0);
        double objective =
            workers != nullptr
                ? lloydPassSplit(*train, result.centroids, result, sums,
                                 *workers)
                : lloydPassFused(*train, result.centroids, result, sums);
        objective /= static_cast<double>(n);
        result.objective = objective;

        // Update step.
        for (std::size_t c = 0; c < k; ++c) {
            if (result.sizes[c] == 0)
                continue;
            float *centroid = result.centroids.row(c).data();
            double inv = 1.0 / static_cast<double>(result.sizes[c]);
            const double *sum = sums.data() + c * d;
            for (std::size_t j = 0; j < d; ++j)
                centroid[j] = static_cast<float>(sum[j] * inv);
        }

        // Empty-cluster repair: steal a perturbed copy of the largest
        // cluster's centroid (FAISS-style split).
        for (std::size_t c = 0; c < k; ++c) {
            if (result.sizes[c] > 0)
                continue;
            std::size_t biggest =
                static_cast<std::size_t>(std::max_element(
                    result.sizes.begin(), result.sizes.end()) -
                    result.sizes.begin());
            const float *src = result.centroids.row(biggest).data();
            float *dst = result.centroids.row(c).data();
            for (std::size_t j = 0; j < d; ++j) {
                float eps = static_cast<float>(rng.gaussian(0.0, 1e-4));
                dst[j] = src[j] * (1.f + eps) + eps;
            }
            // Give the repaired cluster a nominal share so repeated repairs
            // do not pick the same donor forever.
            result.sizes[c] = result.sizes[biggest] / 2;
            result.sizes[biggest] -= result.sizes[c];
        }

        double improvement = (prev_objective - objective) /
                             std::max(prev_objective, 1e-30);
        if (iter > 0 && improvement >= 0.0 && improvement < config.tolerance)
            break;
        prev_objective = objective;
    }

    // Final consistent assignment over the training set.
    result.assignments =
        assignToCentroids(*train, result.centroids, workers);
    std::fill(result.sizes.begin(), result.sizes.end(), 0);
    for (auto a : result.assignments)
        result.sizes[a]++;

    return result;
}

std::vector<std::uint32_t>
assignToCentroids(const Matrix &data, const Matrix &centroids,
                  util::ThreadPool *pool)
{
    HERMES_ASSERT(data.dim() == centroids.dim(),
                  "assign: dim mismatch ", data.dim(), " vs ",
                  centroids.dim());
    std::vector<std::uint32_t> out(data.rows());
    forEachBlock(data.rows(), pool, [&](std::size_t base, std::size_t len) {
        for (std::size_t i = base; i < base + len; ++i)
            out[i] = nearest(data.row(i).data(), centroids).centroid;
    });
    return out;
}

std::uint32_t
nearestCentroid(vecstore::VecView v, const Matrix &centroids)
{
    HERMES_ASSERT(centroids.rows() > 0,
                  "nearestCentroid: empty centroid set");
    return nearest(v.data(), centroids).centroid;
}

std::vector<std::uint32_t>
nearestCentroids(vecstore::VecView v, const Matrix &centroids, std::size_t n)
{
    const std::size_t k = centroids.rows();
    const std::size_t d = centroids.dim();
    n = std::min(n, k);
    vecstore::TopK selector(n);
    float *scores = threadScratch(std::min(k, kScanBlockRows));
    for (std::size_t base = 0; base < k; base += kScanBlockRows) {
        const std::size_t len = std::min(kScanBlockRows, k - base);
        vecstore::l2SqBatch(v.data(), centroids.row(base).data(), len, d,
                            scores);
        for (std::size_t c = 0; c < len; ++c) {
            selector.push(static_cast<vecstore::VecId>(base + c),
                          scores[c]);
        }
    }
    auto hits = selector.take();
    std::vector<std::uint32_t> out;
    out.reserve(hits.size());
    for (const auto &hit : hits)
        out.push_back(static_cast<std::uint32_t>(hit.id));
    return out;
}

} // namespace cluster
} // namespace hermes
