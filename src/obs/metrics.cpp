#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/window.hpp"

namespace hermes {
namespace obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

double
Histogram::bucketUpperBound(std::size_t i)
{
    if (i >= kNumBounds)
        return std::numeric_limits<double>::infinity();
    double exponent = kMinExponent +
        static_cast<double>(i + 1) / static_cast<double>(kBucketsPerDecade);
    return std::pow(10.0, exponent);
}

std::size_t
Histogram::bucketIndex(double v)
{
    if (!(v > 0.0))
        return 0;
    double pos = (std::log10(v) - kMinExponent) *
        static_cast<double>(kBucketsPerDecade);
    if (pos < 0.0)
        return 0;
    auto idx = static_cast<std::size_t>(pos);
    return std::min(idx, kNumBuckets - 1);
}

void
Histogram::observe(double v)
{
    buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
    // First observation initializes min/max; count_ is bumped last with
    // release so a reader that sees count > 0 also sees a valid min/max.
    if (count_.load(std::memory_order_acquire) == 0) {
        double expected = 0.0;
        min_.compare_exchange_strong(expected, v,
                                     std::memory_order_relaxed);
        expected = 0.0;
        max_.compare_exchange_strong(expected, v,
                                     std::memory_order_relaxed);
    }
    cur = min_.load(std::memory_order_relaxed);
    while (v < cur && !min_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
    count_.fetch_add(1, std::memory_order_release);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.count = count_.load(std::memory_order_acquire);
    snap.sum = sum_.load(std::memory_order_relaxed);
    snap.min = snap.count ? min_.load(std::memory_order_relaxed) : 0.0;
    snap.max = snap.count ? max_.load(std::memory_order_relaxed) : 0.0;
    snap.buckets.resize(kNumBuckets);
    for (std::size_t i = 0; i < kNumBuckets; ++i)
        snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    return snap;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_release);
}

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    if (p <= 0.0)
        return min;
    if (p >= 100.0)
        return max;

    // Sum over the snapshot's own buckets rather than `count`: the two
    // can disagree transiently under concurrent updates.
    std::uint64_t total = 0;
    for (auto b : buckets)
        total += b;
    if (total == 0)
        return min;

    double target = p / 100.0 * static_cast<double>(total);
    if (target < 1.0)
        target = 1.0;

    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        double before = static_cast<double>(cum);
        cum += buckets[i];
        if (static_cast<double>(cum) < target)
            continue;
        double lo = i == 0 ? 0.0 : Histogram::bucketUpperBound(i - 1);
        double hi = Histogram::bucketUpperBound(i);
        if (!std::isfinite(hi))
            hi = max; // overflow bucket: cap at the observed max
        double frac = (target - before) / static_cast<double>(buckets[i]);
        double value = lo + frac * (hi - lo);
        return std::clamp(value, min, max);
    }
    return max;
}

LatencySummary
LatencySummary::from(const HistogramSnapshot &snap)
{
    LatencySummary s;
    s.count = snap.count;
    s.mean_us = snap.mean();
    s.p50_us = snap.percentile(50.0);
    s.p95_us = snap.percentile(95.0);
    s.p99_us = snap.percentile(99.0);
    s.max_us = snap.max;
    return s;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry &
Registry::instance()
{
    // Intentionally leaked: exit-time dumps (obs::scheduleDump) and
    // metric updates from static destructors must never race the
    // registry's own destruction, so it is immortal.
    static Registry *registry = new Registry();
    return *registry;
}

Registry::Registry() = default;

Registry::~Registry() = default;

Counter &
Registry::counterLocked(const std::string &name)
{
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Histogram &
Registry::histogramLocked(const std::string &name)
{
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

Counter &
Registry::counter(const std::string &name)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return counterLocked(name);
}

WindowedCounter &
Registry::windowedCounter(const std::string &name)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto &slot = windowed_counters_[name];
    if (!slot)
        slot = std::make_unique<WindowedCounter>(counterLocked(name));
    return *slot;
}

WindowedHistogram &
Registry::windowedHistogram(const std::string &name)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto &slot = windowed_histograms_[name];
    if (!slot)
        slot = std::make_unique<WindowedHistogram>(histogramLocked(name));
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return histogramLocked(name);
}

bool
Registry::hasHistogram(const std::string &name) const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return histograms_.count(name) != 0;
}

namespace detail {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace detail

std::string
Registry::toJson() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + detail::jsonEscape(name) +
            "\": " + std::to_string(c->value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : gauges_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + detail::jsonEscape(name) +
            "\": " + detail::jsonNumber(g->value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms_) {
        auto snap = h->snapshot();
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + detail::jsonEscape(name) + "\": {";
        out += "\"count\": " + std::to_string(snap.count);
        out += ", \"sum\": " + detail::jsonNumber(snap.sum);
        out += ", \"mean\": " + detail::jsonNumber(snap.mean());
        out += ", \"min\": " + detail::jsonNumber(snap.min);
        out += ", \"max\": " + detail::jsonNumber(snap.max);
        out += ", \"p50\": " + detail::jsonNumber(snap.percentile(50.0));
        out += ", \"p95\": " + detail::jsonNumber(snap.percentile(95.0));
        out += ", \"p99\": " + detail::jsonNumber(snap.percentile(99.0));
        out += "}";
    }
    out += first ? "},\n" : "\n  },\n";

    // Rolling-window views (obs/window.hpp): deltas/rates over the last
    // kDefaultWindowSeconds, alongside — never instead of — the
    // cumulative series above.
    const std::int64_t now_s = monotonicSeconds();
    const std::size_t w = kDefaultWindowSeconds;
    out += "  \"windows\": {";
    first = true;
    for (const auto &[name, wc] : windowed_counters_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + detail::jsonEscape(name) + "\": {";
        out += "\"window_s\": " + std::to_string(w);
        out += ", \"delta\": " + std::to_string(wc->deltaInWindow(w, now_s));
        out += ", \"rate_per_s\": " +
            detail::jsonNumber(wc->ratePerSecond(w, now_s));
        out += "}";
    }
    for (const auto &[name, wh] : windowed_histograms_) {
        auto snap = wh->windowSnapshot(w, now_s);
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + detail::jsonEscape(name) + "\": {";
        out += "\"window_s\": " + std::to_string(w);
        out += ", \"count\": " + std::to_string(snap.count);
        out += ", \"mean\": " + detail::jsonNumber(snap.mean());
        out += ", \"p50\": " + detail::jsonNumber(snap.percentile(50.0));
        out += ", \"p95\": " + detail::jsonNumber(snap.percentile(95.0));
        out += ", \"p99\": " + detail::jsonNumber(snap.percentile(99.0));
        out += "}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

namespace {

/** hermes_foo_bar from "foo.bar-baz" (Prometheus metric name charset). */
std::string
promName(const std::string &name)
{
    std::string out = "hermes_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9');
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

std::string
Registry::toPrometheus() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::string out;
    for (const auto &[name, c] : counters_) {
        std::string p = promName(name);
        out += "# TYPE " + p + " counter\n";
        out += p + " " + std::to_string(c->value()) + "\n";
    }
    for (const auto &[name, g] : gauges_) {
        std::string p = promName(name);
        out += "# TYPE " + p + " gauge\n";
        out += p + " " + detail::jsonNumber(g->value()) + "\n";
    }
    for (const auto &[name, h] : histograms_) {
        auto snap = h->snapshot();
        std::string p = promName(name);
        out += "# TYPE " + p + " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
            cum += snap.buckets[i];
            double bound = Histogram::bucketUpperBound(i);
            std::string le = std::isfinite(bound)
                ? detail::jsonNumber(bound)
                : "+Inf";
            out += p + "_bucket{le=\"" + le + "\"} " +
                std::to_string(cum) + "\n";
        }
        out += p + "_sum " + detail::jsonNumber(snap.sum) + "\n";
        out += p + "_count " + std::to_string(snap.count) + "\n";
    }

    // Windowed views export as gauges: a scraper that wants rates over
    // the cumulative series can still rate() those; these are for
    // humans and dashboards polling /metrics directly.
    const std::int64_t now_s = monotonicSeconds();
    const std::size_t w = kDefaultWindowSeconds;
    const std::string suffix = "_" + std::to_string(w) + "s";
    for (const auto &[name, wc] : windowed_counters_) {
        std::string p = promName(name) + "_rate" + suffix;
        out += "# TYPE " + p + " gauge\n";
        out += p + " " + detail::jsonNumber(wc->ratePerSecond(w, now_s)) +
            "\n";
    }
    for (const auto &[name, wh] : windowed_histograms_) {
        auto snap = wh->windowSnapshot(w, now_s);
        for (double pct : {50.0, 95.0, 99.0}) {
            std::string p = promName(name) + "_p" +
                std::to_string(static_cast<int>(pct)) + suffix;
            out += "# TYPE " + p + " gauge\n";
            out += p + " " + detail::jsonNumber(snap.percentile(pct)) +
                "\n";
        }
        std::string p = promName(name) + "_count" + suffix;
        out += "# TYPE " + p + " gauge\n";
        out += p + " " + std::to_string(snap.count) + "\n";
    }
    return out;
}

namespace {

/**
 * Atomic text-file replacement: write to a sibling temp file, then
 * rename over the destination. A concurrent reader (the CI poller, a
 * node_exporter textfile collector) sees either the old or the new
 * content, never a torn prefix.
 */
bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "[warn] obs: cannot open %s for writing\n",
                     tmp.c_str());
        return false;
    }
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    ok = std::fclose(f) == 0 && ok;
    if (ok)
        ok = std::rename(tmp.c_str(), path.c_str()) == 0;
    if (!ok) {
        std::fprintf(stderr, "[warn] obs: failed writing %s\n",
                     path.c_str());
        std::remove(tmp.c_str());
    }
    return ok;
}

} // namespace

bool
Registry::writeJson(const std::string &path) const
{
    return writeTextFile(path, toJson());
}

bool
Registry::writePrometheus(const std::string &path) const
{
    return writeTextFile(path, toPrometheus());
}

void
Registry::reset()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
    for (auto &[name, wc] : windowed_counters_)
        wc->resetWindow();
    for (auto &[name, wh] : windowed_histograms_)
        wh->resetWindow();
}

} // namespace obs
} // namespace hermes
