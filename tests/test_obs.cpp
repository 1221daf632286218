/**
 * @file
 * Tests for the observability subsystem: metrics registry (counters,
 * gauges, log-spaced histograms, JSON/Prometheus export), rolling
 * windowed metrics, the embedded HTTP exporter, process self-stats,
 * per-query trace spans (structural nesting across broker/node/index
 * layers), the broker's fleet LoadReport, and the bit-parity guarantee
 * that instrumentation never changes results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "core/distributed_store.hpp"
#include "core/search_strategy.hpp"
#include "obs/exporter.hpp"
#include "obs/metric_names.hpp"
#include "obs/obs.hpp"
#include "obs/perf.hpp"
#include "obs/process_stats.hpp"
#include "serve/broker.hpp"
#include "util/minijson.hpp"
#include "workload/corpus.hpp"

namespace {

using namespace hermes;

// ---------------------------------------------------------------------------
// Histogram buckets and percentiles
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundsAreMonotonic)
{
    double prev = 0.0;
    for (std::size_t i = 0; i < obs::Histogram::kNumBounds; ++i) {
        double bound = obs::Histogram::bucketUpperBound(i);
        EXPECT_GT(bound, prev) << "bucket " << i;
        prev = bound;
    }
    EXPECT_GT(obs::Histogram::bucketUpperBound(
                  obs::Histogram::kNumBounds),
              1e300); // overflow bucket is unbounded
}

TEST(ObsHistogram, BucketIndexMatchesBounds)
{
    for (std::size_t i = 0; i < obs::Histogram::kNumBounds; ++i) {
        double bound = obs::Histogram::bucketUpperBound(i);
        // Buckets are upper-exclusive: a value just below the bound lands
        // in bucket i, just above lands strictly later. (A bucket spans
        // a 10^0.25 ~ 1.78x range, so 1% offsets stay within one bucket
        // of the bound despite log/pow rounding.)
        EXPECT_LE(obs::Histogram::bucketIndex(bound * 0.99), i);
        EXPECT_GT(obs::Histogram::bucketIndex(bound * 1.01), i);
    }
    // Tiny and negative values clamp into the first bucket.
    EXPECT_EQ(obs::Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(obs::Histogram::bucketIndex(-5.0), 0u);
    // Huge values land in the overflow bucket.
    EXPECT_EQ(obs::Histogram::bucketIndex(1e12),
              obs::Histogram::kNumBuckets - 1);
}

TEST(ObsHistogram, EmptySnapshotIsZero)
{
    obs::Histogram h;
    auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.percentile(50), 0.0);
    EXPECT_EQ(snap.mean(), 0.0);
}

TEST(ObsHistogram, SingleSamplePercentilesAreExact)
{
    obs::Histogram h;
    h.observe(123.0);
    auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 1u);
    EXPECT_DOUBLE_EQ(snap.min, 123.0);
    EXPECT_DOUBLE_EQ(snap.max, 123.0);
    EXPECT_DOUBLE_EQ(snap.percentile(0), 123.0);
    EXPECT_DOUBLE_EQ(snap.percentile(50), 123.0);
    EXPECT_DOUBLE_EQ(snap.percentile(100), 123.0);
}

TEST(ObsHistogram, PercentilesBoundedAndOrdered)
{
    obs::Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.observe(static_cast<double>(i)); // 1..1000 us
    auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 1000u);
    EXPECT_DOUBLE_EQ(snap.min, 1.0);
    EXPECT_DOUBLE_EQ(snap.max, 1000.0);
    EXPECT_DOUBLE_EQ(snap.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(snap.percentile(100), 1000.0);

    double p50 = snap.percentile(50);
    double p95 = snap.percentile(95);
    double p99 = snap.percentile(99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, snap.min);
    EXPECT_LE(p99, snap.max);
    // Log-bucket interpolation error is bounded by one bucket width
    // (~78% relative at 4 buckets/decade); sanity-check the ballpark.
    EXPECT_GT(p50, 250.0);
    EXPECT_LT(p50, 1000.0);
}

TEST(ObsHistogram, ResetZeroesInPlace)
{
    obs::Histogram h;
    h.observe(5.0);
    h.observe(50.0);
    h.reset();
    auto snap = h.snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.sum, 0.0);
    for (auto b : snap.buckets)
        EXPECT_EQ(b, 0u);
}

TEST(ObsLatencySummary, FromSnapshot)
{
    obs::Histogram h;
    for (int i = 0; i < 100; ++i)
        h.observe(10.0);
    auto summary = obs::LatencySummary::from(h.snapshot());
    EXPECT_EQ(summary.count, 100u);
    EXPECT_DOUBLE_EQ(summary.mean_us, 10.0);
    EXPECT_DOUBLE_EQ(summary.max_us, 10.0);
    EXPECT_DOUBLE_EQ(summary.p50_us, 10.0);
    EXPECT_DOUBLE_EQ(summary.p99_us, 10.0);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, ReferencesAreStableAcrossLookupsAndReset)
{
    auto &reg = obs::Registry::instance();
    auto &c1 = reg.counter("test.stable_counter");
    auto &c2 = reg.counter("test.stable_counter");
    EXPECT_EQ(&c1, &c2);

    c1.add(7);
    EXPECT_EQ(c2.value(), 7u);
    reg.reset();
    EXPECT_EQ(c1.value(), 0u);
    EXPECT_EQ(&reg.counter("test.stable_counter"), &c1);
}

TEST(ObsRegistry, HasHistogram)
{
    auto &reg = obs::Registry::instance();
    EXPECT_FALSE(reg.hasHistogram("test.never_created"));
    reg.histogram("test.created_us");
    EXPECT_TRUE(reg.hasHistogram("test.created_us"));
}

TEST(ObsRegistry, ConcurrentUpdatesAreExact)
{
    auto &reg = obs::Registry::instance();
    auto &counter = reg.counter("test.concurrent_counter");
    auto &hist = reg.histogram("test.concurrent_us");
    counter.reset();
    hist.reset();

    constexpr int kThreads = 8;
    constexpr int kPerThread = 10000;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kPerThread; ++i) {
                counter.add(1);
                hist.observe(static_cast<double>(t * kPerThread + i % 997) +
                             1.0);
            }
        });
    }
    go.store(true, std::memory_order_release);

    // Take snapshots while writers are running: must never crash, and
    // every snapshot must be internally plausible.
    for (int i = 0; i < 50; ++i) {
        auto snap = hist.snapshot();
        EXPECT_LE(snap.count,
                  static_cast<std::uint64_t>(kThreads * kPerThread));
        if (snap.count > 0) {
            EXPECT_GE(snap.max, snap.min);
            double p50 = snap.percentile(50);
            EXPECT_GE(p50, snap.min);
            EXPECT_LE(p50, snap.max);
        }
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(counter.value(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    auto snap = hist.snapshot();
    EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kPerThread));
    std::uint64_t bucket_total = 0;
    for (auto b : snap.buckets)
        bucket_total += b;
    EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsRegistry, JsonAndPrometheusExport)
{
    auto &reg = obs::Registry::instance();
    reg.counter("test.export_counter").add(3);
    reg.gauge("test.export_gauge").set(1.5);
    auto &h = reg.histogram("test.export_us");
    h.reset();
    h.observe(42.0);

    auto json = reg.toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("test.export_counter"), std::string::npos);
    EXPECT_NE(json.find("test.export_us"), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);

    auto prom = reg.toPrometheus();
    EXPECT_NE(prom.find("hermes_test_export_counter"), std::string::npos);
    EXPECT_NE(prom.find("hermes_test_export_us_bucket"), std::string::npos);
    EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(prom.find("hermes_test_export_us_count 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Windowed metrics (deterministic via injected epochs)
// ---------------------------------------------------------------------------

TEST(ObsWindow, WindowedCounterTracksRecentSeconds)
{
    obs::Counter total;
    obs::WindowedCounter wc(total);
    wc.add(5, 100);
    wc.add(3, 101);
    wc.add(2, 105);

    EXPECT_EQ(wc.value(), 10u); // cumulative sees every add
    EXPECT_EQ(wc.deltaInWindow(10, 105), 10u);
    EXPECT_EQ(wc.deltaInWindow(3, 105), 2u); // only epochs 103..105
    EXPECT_EQ(wc.deltaInWindow(10, 200), 0u); // window moved past all
    EXPECT_DOUBLE_EQ(wc.ratePerSecond(10, 105), 1.0);

    wc.resetWindow();
    EXPECT_EQ(wc.deltaInWindow(10, 105), 0u);
    EXPECT_EQ(wc.value(), 10u); // cumulative untouched by window reset
}

TEST(ObsWindow, WindowedCounterSlotRelabelsAfterFullRevolution)
{
    obs::Counter total;
    obs::WindowedCounter wc(total);
    wc.add(7, 5);
    // One full ring revolution later the same slot is re-labelled; the
    // old second's events must not leak into the new window.
    const auto next =
        static_cast<std::int64_t>(5 + obs::WindowedCounter::kSlots);
    wc.add(9, next);
    EXPECT_EQ(wc.deltaInWindow(obs::WindowedCounter::kSlots, next), 9u);
    EXPECT_EQ(wc.value(), 16u);
}

TEST(ObsWindow, WindowedHistogramPercentilesOverWindow)
{
    obs::Histogram cumulative;
    obs::WindowedHistogram wh(cumulative);
    for (int i = 0; i < 100; ++i)
        wh.observe(10.0, 50);
    for (int i = 0; i < 100; ++i)
        wh.observe(1000.0, 55);

    EXPECT_EQ(cumulative.count(), 200u);

    // A 3 s window at t=56 sees only the 1000 us batch.
    auto recent = wh.windowSnapshot(3, 56);
    EXPECT_EQ(recent.count, 100u);
    EXPECT_GT(recent.percentile(50), 500.0);
    EXPECT_GE(recent.min, 10.0);
    EXPECT_LE(recent.max, cumulative.snapshot().max);

    // A wide window sees both; an expired window sees nothing.
    EXPECT_EQ(wh.windowSnapshot(60, 56).count, 200u);
    EXPECT_EQ(wh.windowSnapshot(10, 300).count, 0u);

    wh.resetWindow();
    EXPECT_EQ(wh.windowSnapshot(60, 56).count, 0u);
    EXPECT_EQ(cumulative.count(), 200u);
}

TEST(ObsWindow, RegistryWindowedMetricsWrapSameCumulative)
{
    auto &reg = obs::Registry::instance();
    auto &wc = reg.windowedCounter("test.windowed_wrap");
    auto &wc2 = reg.windowedCounter("test.windowed_wrap");
    EXPECT_EQ(&wc, &wc2); // stable reference, like plain metrics

    wc.add(4);
    // The plain counter of the same name IS the cumulative side, so
    // existing lookups and exports keep working unchanged.
    EXPECT_EQ(reg.counter("test.windowed_wrap").value(), 4u);

    auto &wh = reg.windowedHistogram("test.windowed_wrap_us");
    wh.observe(5.0);
    EXPECT_TRUE(reg.hasHistogram("test.windowed_wrap_us"));
    EXPECT_EQ(reg.histogram("test.windowed_wrap_us").count(), 1u);
    EXPECT_EQ(&wh.cumulative(), &reg.histogram("test.windowed_wrap_us"));
}

TEST(ObsWindow, ConcurrentWritersWindowedMatchesCumulative)
{
    obs::Counter total;
    obs::WindowedCounter wc(total);
    obs::Histogram cumulative;
    obs::WindowedHistogram wh(cumulative);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    constexpr std::int64_t kEpoch = 42; // fixed: no rotation races
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kPerThread; ++i) {
                wc.add(1, kEpoch);
                wh.observe(static_cast<double>(i % 997) + 1.0, kEpoch);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto &thread : threads)
        thread.join();

    const auto expected =
        static_cast<std::uint64_t>(kThreads * kPerThread);
    EXPECT_EQ(wc.value(), expected);
    EXPECT_EQ(wc.deltaInWindow(10, kEpoch), expected);
    EXPECT_EQ(cumulative.count(), expected);
    auto window = wh.windowSnapshot(10, kEpoch);
    EXPECT_EQ(window.count, expected);
    EXPECT_DOUBLE_EQ(window.sum, cumulative.snapshot().sum);
}

TEST(ObsWindow, ExportsCarryWindowedSeries)
{
    auto &reg = obs::Registry::instance();
    reg.windowedCounter("test.win_export").add(2);
    reg.windowedHistogram("test.win_export_us").observe(10.0);

    auto json = reg.toJson();
    EXPECT_NE(json.find("\"windows\""), std::string::npos);
    EXPECT_NE(json.find("rate_per_s"), std::string::npos);
    auto parsed = util::json::parse(json);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_NE(parsed.value.at({"windows", "test.win_export"}), nullptr);
    ASSERT_NE(parsed.value.at({"windows", "test.win_export_us"}), nullptr);
    // The cumulative sections still carry the same names.
    ASSERT_NE(parsed.value.at({"counters", "test.win_export"}), nullptr);
    ASSERT_NE(parsed.value.at({"histograms", "test.win_export_us"}),
              nullptr);

    auto prom = reg.toPrometheus();
    EXPECT_NE(prom.find("hermes_test_win_export_rate_10s"),
              std::string::npos);
    EXPECT_NE(prom.find("hermes_test_win_export_us_p50_10s"),
              std::string::npos);
    EXPECT_NE(prom.find("hermes_test_win_export_us_count_10s"),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus exposition correctness
// ---------------------------------------------------------------------------

TEST(ObsPrometheus, BucketSeriesIsCumulativeAndEndsAtCount)
{
    auto &reg = obs::Registry::instance();
    auto &h = reg.histogram("test.prom_buckets_us");
    h.reset();
    for (double v : {0.5, 3.0, 3.0, 120.0, 8000.0, 1e12})
        h.observe(v); // spread across buckets incl. the overflow

    auto prom = reg.toPrometheus();
    const std::string bucket_prefix = "hermes_test_prom_buckets_us_bucket";
    std::istringstream lines(prom);
    std::string line;
    std::vector<std::uint64_t> cumulative;
    bool saw_inf = false;
    while (std::getline(lines, line)) {
        if (line.rfind(bucket_prefix, 0) != 0)
            continue;
        if (line.find("le=\"+Inf\"") != std::string::npos)
            saw_inf = true;
        std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos);
        cumulative.push_back(std::stoull(line.substr(space + 1)));
    }
    ASSERT_EQ(cumulative.size(), obs::Histogram::kNumBuckets);
    EXPECT_TRUE(saw_inf);
    for (std::size_t i = 1; i < cumulative.size(); ++i)
        EXPECT_GE(cumulative[i], cumulative[i - 1]) << "bucket " << i;
    // The +Inf bucket equals _count — the Prometheus histogram contract.
    EXPECT_EQ(cumulative.back(), 6u);
    EXPECT_NE(prom.find("hermes_test_prom_buckets_us_count 6"),
              std::string::npos);
}

TEST(ObsPrometheus, MetricNamesAreSanitized)
{
    auto &reg = obs::Registry::instance();
    reg.counter("test.weird-name:1 space").add(1);
    auto prom = reg.toPrometheus();
    EXPECT_NE(prom.find("hermes_test_weird_name_1_space 1"),
              std::string::npos);
    // No raw separator characters survive in any series name.
    std::istringstream lines(prom);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("hermes_", 0) != 0)
            continue;
        std::string name = line.substr(0, line.find_first_of(" {"));
        EXPECT_EQ(name.find_first_of(".:- "), std::string::npos)
            << "unsanitized name: " << name;
    }
}

// ---------------------------------------------------------------------------
// Process self-stats and atomic file export
// ---------------------------------------------------------------------------

TEST(ObsProcessStats, SelfStatsArePlausible)
{
    auto stats = obs::readProcessStats();
    ASSERT_TRUE(stats.valid);
    EXPECT_GT(stats.rss_bytes, 0u);
    EXPECT_GE(stats.cpu_user_seconds + stats.cpu_system_seconds, 0.0);
    EXPECT_GE(stats.threads, 1u);
    EXPECT_GT(stats.uptime_seconds, 0.0);

    obs::updateProcessGauges();
    auto &reg = obs::Registry::instance();
    EXPECT_GT(reg.gauge(obs::names::kProcessRssBytes).value(), 0.0);
    EXPECT_GE(reg.gauge(obs::names::kProcessThreads).value(), 1.0);
}

TEST(ObsRegistry, FileWritesAreAtomicAndParse)
{
    auto &reg = obs::Registry::instance();
    reg.counter("test.atomic_write").add(1);

    auto dir = std::filesystem::temp_directory_path();
    auto json_path = (dir / "hermes_test_metrics.json").string();
    auto prom_path = (dir / "hermes_test_metrics.prom").string();
    ASSERT_TRUE(reg.writeJson(json_path));
    ASSERT_TRUE(reg.writePrometheus(prom_path));

    // Temp-and-rename: the final files exist, the temps do not.
    EXPECT_TRUE(std::filesystem::exists(json_path));
    EXPECT_TRUE(std::filesystem::exists(prom_path));
    EXPECT_FALSE(std::filesystem::exists(json_path + ".tmp"));
    EXPECT_FALSE(std::filesystem::exists(prom_path + ".tmp"));

    std::ifstream in(json_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = util::json::parse(buffer.str());
    EXPECT_TRUE(parsed.ok) << parsed.error;
    EXPECT_NE(parsed.value.at({"counters", "test.atomic_write"}), nullptr);

    std::filesystem::remove(json_path);
    std::filesystem::remove(prom_path);
}

TEST(ObsRegistry, WriteToBadPathFailsCleanly)
{
    auto &reg = obs::Registry::instance();
    EXPECT_FALSE(reg.writeJson("/nonexistent-dir/metrics.json"));
}

// ---------------------------------------------------------------------------
// Embedded HTTP exporter
// ---------------------------------------------------------------------------

TEST(ObsExporter, ServesMetricsLoadAndHealth)
{
    auto &reg = obs::Registry::instance();
    reg.counter("test.exporter_counter").add(11);

    obs::Exporter exporter; // port 0: ephemeral
    exporter.setHandler("/load", [] {
        return std::string("{\"fleet\": \"ok\"}\n");
    });
    ASSERT_TRUE(exporter.start());
    ASSERT_NE(exporter.port(), 0);

    std::string body;
    std::string status;
    ASSERT_TRUE(obs::httpGet("127.0.0.1", exporter.port(), "/healthz",
                             &body, &status));
    EXPECT_EQ(body, "ok\n");

    ASSERT_TRUE(obs::httpGet("127.0.0.1", exporter.port(),
                             "/metrics.json", &body));
    auto parsed = util::json::parse(body);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_NE(parsed.value.at({"counters", "test.exporter_counter"}),
              nullptr);
    EXPECT_DOUBLE_EQ(
        parsed.value.at({"counters", "test.exporter_counter"})
            ->numberOr(0.0), 11.0);
    // Every scrape refreshes the process self-stats first.
    const auto *rss = parsed.value.at({"gauges", "process.rss_bytes"});
    ASSERT_NE(rss, nullptr);
    EXPECT_GT(rss->numberOr(0.0), 0.0);

    ASSERT_TRUE(obs::httpGet("127.0.0.1", exporter.port(), "/metrics",
                             &body));
    EXPECT_NE(body.find("hermes_test_exporter_counter"),
              std::string::npos);

    ASSERT_TRUE(obs::httpGet("127.0.0.1", exporter.port(), "/load",
                             &body));
    EXPECT_EQ(body, "{\"fleet\": \"ok\"}\n");

    // Unknown paths 404 (httpGet reports non-200 as failure).
    EXPECT_FALSE(obs::httpGet("127.0.0.1", exporter.port(), "/nope",
                              &body, &status));
    EXPECT_NE(status.find("404"), std::string::npos);

    exporter.stop();
    exporter.stop(); // idempotent
    EXPECT_FALSE(obs::httpGet("127.0.0.1", exporter.port(), "/healthz",
                              &body));
}

// ---------------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------------

TEST(ObsTrace, DisabledRecorderRecordsNothing)
{
    auto &rec = obs::TraceRecorder::instance();
    rec.stop();
    rec.clear();
    EXPECT_FALSE(rec.sampleQuery());
    {
        obs::TraceContext ctx(rec.sampleQuery());
        obs::ScopedSpan span("test.noop");
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(rec.spanCount(), 0u);
}

TEST(ObsTrace, SamplingTracesOneInN)
{
    auto &rec = obs::TraceRecorder::instance();
    rec.start(4);
    int sampled = 0;
    for (int i = 0; i < 16; ++i) {
        if (rec.sampleQuery())
            ++sampled;
    }
    EXPECT_EQ(sampled, 4);
    rec.stop();
}

TEST(ObsTrace, NestedSamplingDoesNotConsumeCounter)
{
    auto &rec = obs::TraceRecorder::instance();
    rec.start(2); // trace every other query
    ASSERT_TRUE(rec.sampleQuery());
    {
        obs::TraceContext outer(true);
        // Nested entry points on a traced thread stay traced without
        // advancing the 1-in-N counter.
        EXPECT_TRUE(rec.sampleQuery());
        EXPECT_TRUE(rec.sampleQuery());
    }
    EXPECT_FALSE(rec.sampleQuery()); // next query: counter moved once
    rec.stop();
}

TEST(ObsTrace, ScopedSpanRecordsNameArgsAndDuration)
{
    auto &rec = obs::TraceRecorder::instance();
    rec.start(1);
    {
        obs::TraceContext ctx(rec.sampleQuery());
        obs::ScopedSpan span("test.span");
        span.arg("k", std::uint64_t{5});
        span.arg("mode", std::string("unit"));
        obs::instantEvent("test.instant");
    }
    rec.stop();

    auto spans = rec.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    // Instant is recorded first (inside the span's lifetime).
    EXPECT_EQ(spans[0].name, "test.instant");
    EXPECT_TRUE(spans[0].instant);
    EXPECT_EQ(spans[1].name, "test.span");
    EXPECT_FALSE(spans[1].instant);
    EXPECT_GE(spans[1].dur_us, 0.0);
    ASSERT_EQ(spans[1].args.size(), 2u);
    EXPECT_EQ(spans[1].args[0].key, "k");
    EXPECT_EQ(spans[1].args[0].value, "5");
    EXPECT_TRUE(spans[1].args[0].numeric);
    EXPECT_EQ(spans[1].args[1].key, "mode");
    EXPECT_FALSE(spans[1].args[1].numeric);
}

TEST(ObsTrace, ChromeTraceJsonShape)
{
    auto &rec = obs::TraceRecorder::instance();
    rec.start(1);
    {
        obs::TraceContext ctx(rec.sampleQuery());
        obs::ScopedSpan span("test.json_span");
    }
    rec.stop();

    auto json = rec.toJson();
    EXPECT_EQ(json.rfind("{\"traceEvents\":", 0), 0u);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("test.json_span"), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);

    auto path = std::filesystem::temp_directory_path() /
                "hermes_test_trace.json";
    ASSERT_TRUE(rec.writeChromeTrace(path.string()));
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), json);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// End-to-end: traced broker query
// ---------------------------------------------------------------------------

struct ObsServeData
{
    workload::Corpus corpus;
    workload::QuerySet queries;
    core::HermesConfig config;
    std::unique_ptr<core::DistributedStore> store;
};

const ObsServeData &
obsServeData()
{
    static ObsServeData data = [] {
        ObsServeData out;
        workload::CorpusConfig cc;
        cc.num_docs = 3000;
        cc.dim = 16;
        cc.num_topics = 10;
        cc.seed = 77;
        out.corpus = workload::generateCorpus(cc);

        workload::QueryConfig qc;
        qc.num_queries = 16;
        qc.seed = 78;
        out.queries = workload::generateQueries(out.corpus, qc);

        out.config.num_clusters = 4;
        out.config.clusters_to_search = 2;
        out.config.sample_nprobe = 2;
        out.config.deep_nprobe = 8;
        out.config.partition.seeds_to_try = 2;
        out.store = std::make_unique<core::DistributedStore>(
            core::DistributedStore::build(out.corpus.embeddings,
                                          out.config));
        return out;
    }();
    return data;
}

std::vector<obs::TraceSpan>
spansNamed(const std::vector<obs::TraceSpan> &spans, const std::string &name)
{
    std::vector<obs::TraceSpan> out;
    for (const auto &span : spans)
        if (span.name == name)
            out.push_back(span);
    return out;
}

TEST(ObsEndToEnd, TracedBrokerQueryProducesNestedSpans)
{
    const auto &data = obsServeData();
    serve::HermesBroker broker(*data.store);

    auto &rec = obs::TraceRecorder::instance();
    rec.start(1); // trace every query
    broker.search(data.queries.embeddings.row(0), 5);
    rec.stop();

    auto spans = rec.snapshot();
    auto roots = spansNamed(spans, "broker.query");
    ASSERT_EQ(roots.size(), 1u);
    const auto &root = roots.front();

    auto samples = spansNamed(spans, "broker.sample");
    auto deeps = spansNamed(spans, "broker.deep");
    auto merges = spansNamed(spans, "broker.merge");
    ASSERT_EQ(samples.size(), 1u);
    ASSERT_EQ(deeps.size(), 1u);
    ASSERT_EQ(merges.size(), 1u);

    // Sampling broadcasts to every node; deep search hits
    // clusters_to_search of them.
    auto node_searches = spansNamed(spans, "node.search");
    EXPECT_EQ(node_searches.size(),
              data.store->numClusters() + data.config.clusters_to_search);
    auto ivf_searches = spansNamed(spans, "ivf.search");
    EXPECT_EQ(ivf_searches.size(), node_searches.size());
    EXPECT_FALSE(spansNamed(spans, "node.queue_wait").empty());

    // Phase spans nest inside the root query span on the same thread...
    const double slack_us = 1.0; // clock-read ordering slack
    for (const auto *phase : {&samples.front(), &deeps.front(),
                              &merges.front()}) {
        EXPECT_EQ(phase->tid, root.tid);
        EXPECT_GE(phase->ts_us, root.ts_us - slack_us);
        EXPECT_LE(phase->end_us(), root.end_us() + slack_us);
    }
    // ...and node/index work on the worker threads falls within the
    // query's time range.
    for (const auto &span : node_searches) {
        EXPECT_GE(span.ts_us, root.ts_us - slack_us);
        EXPECT_LE(span.end_us(), root.end_us() + slack_us);
    }
    for (const auto &span : ivf_searches) {
        EXPECT_GE(span.ts_us, root.ts_us - slack_us);
        EXPECT_LE(span.end_us(), root.end_us() + slack_us);
    }
}

TEST(ObsEndToEnd, QueryLatencyHistogramHasNonZeroPercentiles)
{
    const auto &data = obsServeData();
    serve::HermesBroker broker(*data.store);
    for (std::size_t q = 0; q < 16; ++q)
        broker.search(data.queries.embeddings.row(q), 5);

    auto &reg = obs::Registry::instance();
    ASSERT_TRUE(reg.hasHistogram("broker.query_latency_us"));
    auto snap = reg.histogram("broker.query_latency_us").snapshot();
    EXPECT_GE(snap.count, 16u);
    EXPECT_GT(snap.percentile(50), 0.0);
    EXPECT_GT(snap.percentile(95), 0.0);
    EXPECT_GT(snap.percentile(99), 0.0);

    auto stats = broker.stats();
    EXPECT_EQ(stats.query_latency.count, snap.count);
    EXPECT_GT(stats.query_latency.p50_us, 0.0);
    EXPECT_GT(stats.sample_phase.p50_us, 0.0);
    EXPECT_GT(stats.deep_phase.p50_us, 0.0);

    // The registry JSON carries the same digests.
    auto json = reg.toJson();
    EXPECT_NE(json.find("broker.query_latency_us"), std::string::npos);
}

TEST(ObsEndToEnd, BrokerMatchesHermesSearchWithAndWithoutTracing)
{
    const auto &data = obsServeData();
    serve::HermesBroker broker(*data.store);
    core::HermesSearch reference(*data.store);

    auto &rec = obs::TraceRecorder::instance();
    for (bool traced : {false, true}) {
        if (traced)
            rec.start(1);
        else
            rec.stop();
        for (std::size_t q = 0; q < 8; ++q) {
            auto via_broker =
                broker.search(data.queries.embeddings.row(q), 5);
            auto direct =
                reference.search(data.queries.embeddings.row(q), 5).hits;
            ASSERT_EQ(via_broker.size(), direct.size())
                << "traced=" << traced << " q=" << q;
            for (std::size_t i = 0; i < direct.size(); ++i) {
                EXPECT_EQ(via_broker[i].id, direct[i].id);
                EXPECT_FLOAT_EQ(via_broker[i].score, direct[i].score);
            }
        }
    }
    rec.stop();
}

// ---------------------------------------------------------------------------
// Fleet load report
// ---------------------------------------------------------------------------

TEST(ServeLoadReport, FitZipfExponentRecoversSlope)
{
    std::vector<double> zipfian;
    for (int r = 1; r <= 30; ++r)
        zipfian.push_back(1000.0 * std::pow(r, -1.2));
    EXPECT_NEAR(serve::fitZipfExponent(zipfian), 1.2, 0.01);

    std::vector<double> flat(10, 50.0);
    EXPECT_NEAR(serve::fitZipfExponent(flat), 0.0, 1e-9);

    // Degenerate inputs: fewer than two usable points.
    EXPECT_EQ(serve::fitZipfExponent({}), 0.0);
    EXPECT_EQ(serve::fitZipfExponent({5.0}), 0.0);
    EXPECT_EQ(serve::fitZipfExponent({5.0, 0.0, -1.0}), 0.0);
}

TEST(ServeLoadReport, BrokerLoadReportAccountsTraffic)
{
    const auto &data = obsServeData();
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, {}, metrics);

    // Repeat one query: its deep clusters take all the skewed load.
    constexpr std::size_t kQueries = 12;
    for (std::size_t i = 0; i < kQueries; ++i)
        broker.search(data.queries.embeddings.row(0), 5);

    auto report = broker.loadReport();
    EXPECT_EQ(report.queries, kQueries);
    EXPECT_GT(report.uptime_seconds, 0.0);
    ASSERT_EQ(report.clusters.size(), data.store->numClusters());

    // The broker counts into its own registry, so the per-cluster
    // totals are exactly this test's traffic.
    std::uint64_t sample_total = 0;
    std::uint64_t deep_total = 0;
    for (const auto &cluster : report.clusters) {
        sample_total += cluster.sample_requests;
        deep_total += cluster.deep_requests;
        EXPECT_GT(cluster.shard_vectors, 0u);
        EXPECT_GT(cluster.energy_joules, 0.0);
        EXPECT_GE(cluster.utilization, 0.0);
    }
    EXPECT_EQ(sample_total, kQueries * data.store->numClusters());
    EXPECT_EQ(deep_total, kQueries * data.config.clusters_to_search);
    EXPECT_GT(report.total_energy_joules, 0.0);

    // One repeated query concentrates deep load: max/mean must exceed
    // flat, and the imbalance stats must agree.
    EXPECT_GE(report.max_mean_ratio, 1.0);
    EXPECT_GE(report.zipf_exponent, 0.0);
    EXPECT_GE(report.deep_imbalance.variance, 0.0);

    // Windowed figures see the queries just issued.
    EXPECT_GT(report.window_qps, 0.0);
    EXPECT_GT(report.window_p99_us, 0.0);
    EXPECT_GT(report.cumulative_p99_us, 0.0);

    // The /load payload is valid JSON with the stable field names.
    auto parsed = util::json::parse(report.toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_DOUBLE_EQ(parsed.value.find("queries")->numberOr(0.0),
                     static_cast<double>(kQueries));
    const auto *clusters = parsed.value.find("clusters");
    ASSERT_NE(clusters, nullptr);
    ASSERT_EQ(clusters->size(), data.store->numClusters());
    ASSERT_NE(clusters->index(0)->find("deep_requests"), nullptr);
    ASSERT_NE(parsed.value.at({"deep_imbalance", "max_min_ratio"}),
              nullptr);
}

TEST(ServeLoadReport, CumulativeCountersAreMonotoneAcrossReports)
{
    const auto &data = obsServeData();
    obs::Registry metrics;
    serve::HermesBroker broker(*data.store, {}, metrics);

    broker.search(data.queries.embeddings.row(1), 5);
    auto first = broker.loadReport();
    broker.search(data.queries.embeddings.row(2), 5);
    broker.search(data.queries.embeddings.row(3), 5);
    auto second = broker.loadReport();

    EXPECT_EQ(first.queries, 1u);
    EXPECT_EQ(second.queries, 3u);
    EXPECT_GE(second.uptime_seconds, first.uptime_seconds);
    for (std::size_t c = 0; c < first.clusters.size(); ++c) {
        EXPECT_GE(second.clusters[c].sample_requests,
                  first.clusters[c].sample_requests);
        EXPECT_GE(second.clusters[c].deep_requests,
                  first.clusters[c].deep_requests);
        EXPECT_GE(second.clusters[c].energy_joules, 0.0);
    }
}

// ---------------------------------------------------------------------------
// Metric-name catalog drift
// ---------------------------------------------------------------------------

bool
isUint(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

std::vector<std::string>
splitDots(const std::string &name)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= name.size()) {
        std::size_t dot = name.find('.', start);
        if (dot == std::string::npos)
            dot = name.size();
        out.push_back(name.substr(start, dot - start));
        start = dot + 1;
    }
    return out;
}

/**
 * True when @p name resolves through obs/metric_names.hpp: either one
 * of the flat constants, or an instance of a parameterized family.
 * Built from the catalog constants themselves so adding a name there is
 * all it takes to admit a new instrumentation site.
 */
bool
catalogMatches(const std::string &name)
{
    namespace n = obs::names;
    static const std::set<std::string> exact = {
        n::kBrokerQueries, n::kBrokerDeepRequests, n::kBrokerTimeouts,
        n::kBrokerFailures, n::kBrokerDegradedQueries,
        n::kBrokerQueryLatencyUs, n::kBrokerSamplePhaseUs,
        n::kBrokerDeepPhaseUs, n::kBrokerMergePhaseUs,
        n::kBrokerSampleProbeUs, n::kBrokerHedgesIssued,
        n::kBrokerHedgesWon, n::kBrokerHedgesWasted, n::kNodeQueueWaitUs,
        n::kNodeBatchExecUs, n::kRpcRpcs, n::kRpcRequestBytes,
        n::kRpcResponseBytes, n::kRpcRoundTripUs, n::kRpcBatchSize,
        n::kRpcRedials, n::kRpcTransportFailures, n::kRpcRemoteErrors,
        n::kTraceBufferSpans, n::kTraceDroppedSpans, n::kIvfCoarseUs,
        n::kIvfScanUs, n::kPoolParallelForUs, n::kPoolParallelForItems,
        n::kCoreQueryLatencyUs, n::kCoreSamplePhaseUs, n::kCoreDeepPhaseUs,
        n::kRagStrideTotalUs, n::kRagStrideRetrievalUs, n::kRagStrides,
        n::kEnergyPackageJoulesMeasured, n::kEnergyDramJoulesMeasured,
        n::kEnergyModelErrorRatio, n::kProcessRssBytes, n::kProcessVmBytes,
        n::kProcessCpuUserSeconds, n::kProcessCpuSystemSeconds,
        n::kProcessThreads, n::kProcessUptimeSeconds,
        n::kProcessMinorFaults, n::kProcessMajorFaults,
        n::kMmapMappedBytes, n::kMmapResidentBytes,
    };
    if (exact.count(name))
        return true;

    const auto parts = splitDots(name);
    // broker.route.<cluster>.<slot>
    if (parts.size() == 4 && parts[0] == "broker" && parts[1] == "route")
        return isUint(parts[2]) && isUint(parts[3]);
    // node.<cluster>.<suffix>
    if (parts.size() == 3 && parts[0] == "node" && isUint(parts[1])) {
        for (const char *suffix :
             {n::kNodeSampleRequests, n::kNodeDeepRequests,
              n::kNodeHitsReturned, n::kNodeQueueDepth, n::kNodeBusySeconds,
              n::kNodeEnergyJoules, n::kNodeBatchOccupancy}) {
            if (name == n::nodeMetric(std::stoul(parts[1]), suffix))
                return true;
        }
        return false;
    }
    // rpc.error.<code>
    if (parts.size() == 3 && parts[0] == "rpc" && parts[1] == "error")
        return !parts[2].empty();
    // rpc.node.<cluster>.<suffix>
    if (parts.size() == 4 && parts[0] == "rpc" && parts[1] == "node" &&
        isUint(parts[2]))
        return parts[3] == n::kRpcClockOffsetUs;
    // perf.<phase>.<suffix>
    if (parts.size() == 3 && parts[0] == "perf") {
        bool phase_ok = false;
        for (auto phase : {obs::PerfPhase::Sample, obs::PerfPhase::Deep,
                           obs::PerfPhase::Merge, obs::PerfPhase::Scan})
            phase_ok = phase_ok || parts[1] == obs::perfPhaseName(phase);
        if (!phase_ok)
            return false;
        for (const char *suffix :
             {n::kPerfCycles, n::kPerfInstructions, n::kPerfCacheMisses,
              n::kPerfLlcLoadMisses, n::kPerfBranchMisses,
              n::kPerfTaskClockUs, n::kPerfIpc, n::kPerfCacheMpki,
              n::kPerfLlcMpki, n::kPerfBranchMpki}) {
            if (parts[2] == suffix)
                return true;
        }
        return false;
    }
    return false;
}

TEST(ObsCatalog, RuntimeMetricNamesResolveThroughCatalog)
{
    // Emit real serving metrics, then walk every name the registry
    // exports. A new instrumentation site whose name is not in
    // obs/metric_names.hpp (exact or family) fails here — the catalog
    // and the runtime cannot drift apart silently.
    const auto &data = obsServeData();
    serve::HermesBroker broker(*data.store);
    for (std::size_t q = 0; q < 8; ++q)
        broker.search(data.queries.embeddings.row(q), 5);
    obs::updateProcessGauges(obs::Registry::instance());

    auto parsed = util::json::parse(obs::Registry::instance().toJson());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::size_t checked = 0;
    for (const char *section :
         {"counters", "gauges", "histograms", "windows"}) {
        const auto *obj = parsed.value.find(section);
        ASSERT_NE(obj, nullptr) << section;
        for (const auto &name : obj->keys()) {
            if (name.rfind("test.", 0) == 0)
                continue; // this suite's own fixtures
            EXPECT_TRUE(catalogMatches(name))
                << "metric \"" << name << "\" (in " << section
                << ") is not in obs/metric_names.hpp";
            ++checked;
        }
    }
    EXPECT_GT(checked, 10u); // the walk saw real serving metrics
}

// ---------------------------------------------------------------------------
// RAPL sampler over a synthetic powercap sysfs tree
// ---------------------------------------------------------------------------

class RaplFixture
{
  public:
    RaplFixture()
    {
        root_ = std::filesystem::temp_directory_path() /
            ("hermes_rapl_test_" +
             std::to_string(
                 reinterpret_cast<std::uintptr_t>(this) ^
                 static_cast<std::uintptr_t>(::getpid())));
        std::filesystem::create_directories(root_);
    }

    ~RaplFixture()
    {
        std::error_code ec;
        std::filesystem::remove_all(root_, ec);
    }

    const std::string root() const { return root_.string(); }

    /** Create `<root>/<dir>` with a `name` file and an energy counter;
     *  max_range 0 writes no max_energy_range_uj file. */
    void addDomain(const std::string &dir, const std::string &label,
                   std::uint64_t energy_uj, std::uint64_t max_range_uj = 0)
    {
        auto path = root_ / dir;
        std::filesystem::create_directories(path);
        write(path / "name", label + "\n");
        write(path / "energy_uj", std::to_string(energy_uj) + "\n");
        if (max_range_uj > 0)
            write(path / "max_energy_range_uj",
                  std::to_string(max_range_uj) + "\n");
    }

    void setEnergy(const std::string &dir, std::uint64_t energy_uj)
    {
        write(root_ / dir / "energy_uj", std::to_string(energy_uj) + "\n");
    }

  private:
    static void write(const std::filesystem::path &path,
                      const std::string &contents)
    {
        std::ofstream out(path, std::ios::trunc);
        out << contents;
    }

    std::filesystem::path root_;
};

TEST(ObsRapl, DiscoversPackageAndDramAcrossSockets)
{
    RaplFixture fx;
    fx.addDomain("intel-rapl:0", "package-0", 1'000'000, 1'000'000'000);
    fx.addDomain("intel-rapl:0:0", "dram", 500'000, 1'000'000'000);
    fx.addDomain("intel-rapl:1", "package-1", 2'000'000, 1'000'000'000);
    fx.addDomain("intel-rapl:1:0", "core", 100'000); // out of scope
    std::filesystem::create_directories(
        std::filesystem::path(fx.root()) / "intel-rapl"); // control node

    obs::RaplReader reader(fx.root());
    ASSERT_TRUE(reader.available());
    ASSERT_EQ(reader.domains().size(), 3u);
    EXPECT_TRUE(reader.domains()[0].is_package);  // intel-rapl:0
    EXPECT_TRUE(reader.domains()[1].is_dram);     // intel-rapl:0:0
    EXPECT_TRUE(reader.domains()[2].is_package);  // intel-rapl:1

    // +0.3 J on socket 0, +0.1 J dram, +0.2 J on socket 1.
    fx.setEnergy("intel-rapl:0", 1'300'000);
    fx.setEnergy("intel-rapl:0:0", 600'000);
    fx.setEnergy("intel-rapl:1", 2'200'000);
    auto s = reader.sample();
    ASSERT_TRUE(s.valid);
    EXPECT_NEAR(s.package_joules, 0.5, 1e-9); // sums across sockets
    EXPECT_NEAR(s.dram_joules, 0.1, 1e-9);
    EXPECT_GE(s.elapsed_seconds, 0.0);
}

TEST(ObsRapl, WraparoundCorrectedWithKnownRange)
{
    RaplFixture fx;
    fx.addDomain("intel-rapl:0", "package-0", 900'000, 1'000'000);

    obs::RaplReader reader(fx.root());
    ASSERT_TRUE(reader.available());
    fx.setEnergy("intel-rapl:0", 100'000); // counter wrapped at 1 J
    auto s = reader.sample();
    ASSERT_TRUE(s.valid);
    // (range - last) + cur = 100'000 + 100'000 uj = 0.2 J.
    EXPECT_NEAR(s.package_joules, 0.2, 1e-9);
}

TEST(ObsRapl, WrapWithoutRangeDropsDeltaAndReanchors)
{
    RaplFixture fx;
    fx.addDomain("intel-rapl:0", "package-0", 900'000); // no range file

    obs::RaplReader reader(fx.root());
    ASSERT_TRUE(reader.available());
    EXPECT_EQ(reader.domains()[0].max_range_uj, 0u);

    fx.setEnergy("intel-rapl:0", 100'000); // apparent negative delta
    auto s = reader.sample();
    ASSERT_TRUE(s.valid); // the read worked; the delta is just unusable
    EXPECT_NEAR(s.package_joules, 0.0, 1e-9);

    // Re-anchored at 100'000: the next delta counts normally again.
    fx.setEnergy("intel-rapl:0", 150'000);
    s = reader.sample();
    ASSERT_TRUE(s.valid);
    EXPECT_NEAR(s.package_joules, 0.05, 1e-9);
}

TEST(ObsRapl, MissingRootReportsUnavailable)
{
    obs::RaplReader reader("/nonexistent/hermes-powercap");
    EXPECT_FALSE(reader.available());
    EXPECT_FALSE(reader.sample().valid);
}

TEST(ObsRapl, UnreadableEnergyCounterSkipsDomain)
{
    // energy_uj exists but cannot be read as a number (a directory —
    // the root-proof stand-in for EACCES): discovery must skip the
    // domain, leaving the reader unavailable rather than half-broken.
    RaplFixture fx;
    auto dir = std::filesystem::path(fx.root()) / "intel-rapl:0";
    std::filesystem::create_directories(dir);
    {
        std::ofstream out(dir / "name");
        out << "package-0\n";
    }
    std::filesystem::create_directories(dir / "energy_uj");

    obs::RaplReader reader(fx.root());
    EXPECT_FALSE(reader.available());
    EXPECT_FALSE(reader.sample().valid);
}

TEST(ObsRapl, EnvRootIsHonored)
{
    RaplFixture fx;
    fx.addDomain("intel-rapl:0", "package-0", 42'000'000, 1'000'000'000);
    ::setenv("HERMES_RAPL_ROOT", fx.root().c_str(), 1);
    obs::RaplReader reader(""); // "" = env root when set
    ::unsetenv("HERMES_RAPL_ROOT");
    ASSERT_TRUE(reader.available());
    EXPECT_EQ(reader.domains()[0].label, "package-0");
}

// ---------------------------------------------------------------------------
// /perf endpoint, 404 error body, and the unavailable-parity guarantee
// ---------------------------------------------------------------------------

TEST(ObsPerf, PerfRouteServesStatusJson)
{
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());

    std::string body;
    ASSERT_TRUE(obs::httpGet("127.0.0.1", exporter.port(), "/perf", &body));
    auto parsed = util::json::parse(body);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    for (const char *key : {"enabled", "unavailable", "counters_available",
                            "rapl_available"}) {
        const auto *v = parsed.value.find(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_TRUE(v->isBool()) << key;
    }
    ASSERT_NE(parsed.value.find("package_joules"), nullptr);
    ASSERT_NE(parsed.value.find("phases"), nullptr);
    exporter.stop();
}

TEST(ObsExporter, UnknownPathServesJsonErrorBody)
{
    obs::Exporter exporter;
    ASSERT_TRUE(exporter.start());

    std::string body;
    std::string status;
    EXPECT_FALSE(obs::httpGet("127.0.0.1", exporter.port(),
                              "/definitely-missing", &body, &status));
    EXPECT_NE(status.find("404"), std::string::npos);
    auto parsed = util::json::parse(body);
    ASSERT_TRUE(parsed.ok) << "404 body is not JSON: " << body;
    EXPECT_EQ(parsed.value.find("error")->stringOr(""), "unknown path");
    EXPECT_EQ(parsed.value.find("path")->stringOr(""),
              "/definitely-missing");
    exporter.stop();
}

TEST(ObsPerf, ForcedUnavailableRunIsBitIdenticalToDisabled)
{
    const auto &data = obsServeData();
    serve::HermesBroker broker(*data.store);

    // Baseline: perf off entirely.
    obs::setPerfEnabled(false);
    obs::setPerfForceUnavailable(false);
    std::vector<vecstore::HitList> baseline;
    for (std::size_t q = 0; q < 8; ++q)
        baseline.push_back(broker.search(data.queries.embeddings.row(q), 5));

    // Enabled but every probe denied — the CI unavailable leg's shape.
    obs::setPerfEnabled(true);
    obs::setPerfForceUnavailable(true);
    for (std::size_t q = 0; q < 8; ++q) {
        auto hits = broker.search(data.queries.embeddings.row(q), 5);
        ASSERT_EQ(hits.size(), baseline[q].size()) << q;
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].id, baseline[q][i].id);
            EXPECT_FLOAT_EQ(hits[i].score, baseline[q][i].score);
        }
    }
    EXPECT_FALSE(obs::perfCountersAvailable());
    EXPECT_FALSE(obs::raplSample().valid);

    // The probe denial must not have minted a single perf metric: the
    // registry surface is what makes the runs bit-identical.
    EXPECT_EQ(obs::Registry::instance().toJson().find("\"perf."),
              std::string::npos);

    obs::setPerfEnabled(false);
    obs::setPerfForceUnavailable(false);
}

} // namespace
