/**
 * @file
 * Pure helpers of the serving benchmark: the percentile rule, the seeded
 * query stream and Poisson arrival schedule, span self-time arithmetic and
 * the hit-list parity check. Header-only and free of I/O so the unit tests
 * in perfbench/tests exercise exactly what the benchmark runs.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "vecstore/types.hpp"

namespace perfbench {

/** splitmix64: the benchmark's only source of randomness. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Uniform double in (0, 1]: never 0, so -log(u) stays finite. */
inline double
uniform01(std::uint64_t &state)
{
    return (static_cast<double>(splitmix64(state) >> 11) + 1.0) *
           (1.0 / 9007199254740992.0);
}

/** Derive an independent sub-seed for one consumer of the workload seed. */
inline std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t state = seed ^ (salt * 0xd1b54a32d192ed03ull);
    return splitmix64(state);
}

/**
 * 1-based nearest rank of the p-th percentile among @p n samples:
 * ceil(p/100 * n), with a tolerance so that 99.9% of 10000 is 9990 and
 * not 9991 through binary rounding of 99.9.
 */
inline std::size_t
nearestRank(std::size_t n, double p)
{
    const double exact = p / 100.0 * static_cast<double>(n);
    auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9 * exact));
    return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

/**
 * Nearest-rank percentile of @p sorted (ascending): the smallest sample
 * with at least p% of the samples at or below it. Empty input gives 0.
 */
inline double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    return sorted[nearestRank(sorted.size(), p) - 1];
}

/** Samples strictly beyond the nearest-rank p-th percentile. */
inline std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

/**
 * The tail percentile a sample of @p n supports: the highest of
 * {99, 95, 90, 50} with at least @p min_beyond samples beyond it.
 * Returns 0 when even the median is unsupported.
 */
inline double
supportedTailPercentile(std::size_t n, std::size_t min_beyond = 10)
{
    for (double p : {99.0, 95.0, 90.0, 50.0}) {
        if (samplesBeyond(n, p) >= min_beyond)
            return p;
    }
    return 0.0;
}

/** A timing distribution reduced to the benchmark's reporting rule. */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0.0;
    /** Value at p99, or at the highest percentile the sample supports
     *  when it is too small for p99 (then tail_pct says which). */
    double tail = 0.0;
    double tail_pct = 0.0;
};

/** The median and the supported tail percentile of @p samples. */
inline Summary
summarize(std::vector<double> sorted)
{
    Summary s;
    s.n = sorted.size();
    const double supported = supportedTailPercentile(s.n);
    s.tail_pct = supported > 0.0 ? supported : 50.0;
    std::sort(sorted.begin(), sorted.end());
    s.p50 = percentileSorted(sorted, 50.0);
    s.tail = percentileSorted(sorted, s.tail_pct);
    return s;
}

/** Median of @p values (nearest rank); 0 for an empty vector. */
inline double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentileSorted(values, 50.0);
}

/**
 * The request stream: @p length indices into a pool of @p pool queries,
 * drawn uniformly from the seed. Popularity skew lives in the pool itself
 * (Zipf-popular topics), so a uniform draw keeps that skew.
 */
inline std::vector<std::uint32_t>
queryStream(std::uint64_t seed, std::size_t pool, std::size_t length)
{
    std::vector<std::uint32_t> stream(length);
    std::uint64_t state = seed;
    for (auto &q : stream)
        q = static_cast<std::uint32_t>(splitmix64(state) % pool);
    return stream;
}

/**
 * Poisson arrivals at @p rate per second over [0, @p duration_s): the due
 * time of each request in seconds from the phase start.
 */
inline std::vector<double>
poissonSchedule(std::uint64_t seed, double rate, double duration_s)
{
    std::vector<double> due;
    if (rate <= 0.0)
        return due;
    due.reserve(static_cast<std::size_t>(rate * duration_s * 1.1) + 16);
    std::uint64_t state = seed;
    double t = -std::log(uniform01(state)) / rate;
    while (t < duration_s) {
        due.push_back(t);
        t += -std::log(uniform01(state)) / rate;
    }
    return due;
}

/** A closed time interval [start, end] in microseconds. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;
};

/**
 * Self time of @p parent: its duration minus the part of it covered by
 * the union of @p children (each clipped to the parent; overlaps counted
 * once). Never negative.
 */
inline double
selfTime(Interval parent, std::vector<Interval> children)
{
    for (auto &c : children) {
        c.start = std::max(c.start, parent.start);
        c.end = std::min(c.end, parent.end);
    }
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    double covered = 0.0;
    double reach = parent.start;
    for (const auto &c : children) {
        if (c.end <= c.start)
            continue;
        const double from = std::max(c.start, reach);
        if (c.end > from) {
            covered += c.end - from;
            reach = c.end;
        }
    }
    return std::max(0.0, (parent.end - parent.start) - covered);
}

/**
 * Unattributed time of a span of @p total_us whose blocking steps ran one
 * after another with the given durations: the steps are laid end to end
 * from the span's start and the rest is the span's self time.
 */
inline double
unattributed(double total_us, const std::vector<double> &steps_us)
{
    std::vector<Interval> children;
    double t = 0.0;
    for (double d : steps_us) {
        children.push_back({t, t + std::max(0.0, d)});
        t += std::max(0.0, d);
    }
    return selfTime({0.0, total_us}, std::move(children));
}

/**
 * Parity of a served answer with its reference: same length, and every
 * hit equal with == on the id and on the float score. Returns an empty
 * string on a match, else a description of the first difference.
 */
inline std::string
parityDiff(const hermes::vecstore::HitList &got,
           const hermes::vecstore::HitList &want)
{
    if (got.size() != want.size()) {
        return "size " + std::to_string(got.size()) + " != " +
               std::to_string(want.size());
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i].id != want[i].id || got[i].score != want[i].score) {
            char text[160];
            std::snprintf(text, sizeof(text),
                          "hit %zu: (%llu, %.9g) != (%llu, %.9g)", i,
                          static_cast<unsigned long long>(got[i].id),
                          static_cast<double>(got[i].score),
                          static_cast<unsigned long long>(want[i].id),
                          static_cast<double>(want[i].score));
            return text;
        }
    }
    return {};
}

} // namespace perfbench
