/**
 * @file
 * In-memory span recorder for the benchmark's traced run. Spans are
 * recorded from the benchmark's own code around calls into each layer:
 * name, start, end, parent span and query id. Each recording thread owns
 * one buffer, so recording takes no lock; everything is written out once,
 * when the run ends.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One finished span. Times are microseconds since the recorder's epoch. */
struct Span
{
    const char *name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t query = 0;
};

class SpanRecorder
{
  public:
    /** @param threads Number of recording threads (buffer slots). */
    explicit SpanRecorder(std::size_t threads)
        : epoch_(Clock::now()), buffers_(threads), next_id_(threads, 0)
    {
    }

    double
    micros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    }

    /** Allocate a span id in @p slot (unique across slots). */
    std::uint64_t
    newId(std::size_t slot)
    {
        return (static_cast<std::uint64_t>(slot + 1) << 40) |
               ++next_id_[slot];
    }

    /** Record a finished span from thread slot @p slot; returns its id. */
    std::uint64_t
    record(std::size_t slot, const char *name, Clock::time_point start,
           Clock::time_point end, std::uint64_t query,
           std::uint64_t parent = 0, std::uint64_t id = 0)
    {
        Span span;
        span.name = name;
        span.start_us = micros(start);
        span.end_us = micros(end);
        span.id = id ? id : newId(slot);
        span.parent = parent;
        span.query = query;
        buffers_[slot].push_back(span);
        return span.id;
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &b : buffers_)
            n += b.size();
        return n;
    }

    /** Write every span as one JSON object per line. */
    bool
    writeJsonLines(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        for (std::size_t slot = 0; slot < buffers_.size(); ++slot) {
            for (const Span &s : buffers_[slot]) {
                std::fprintf(f,
                             "{\"name\":\"%s\",\"start_us\":%.3f,"
                             "\"end_us\":%.3f,\"id\":%llu,\"parent\":%llu,"
                             "\"query\":%llu,\"thread\":%zu}\n",
                             s.name, s.start_us, s.end_us,
                             static_cast<unsigned long long>(s.id),
                             static_cast<unsigned long long>(s.parent),
                             static_cast<unsigned long long>(s.query),
                             slot);
            }
        }
        return std::fclose(f) == 0;
    }

  private:
    Clock::time_point epoch_;
    std::vector<std::vector<Span>> buffers_;
    std::vector<std::uint64_t> next_id_;
};

} // namespace perfbench
