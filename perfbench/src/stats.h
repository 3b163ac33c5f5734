#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own statistics, kept free of the serving stack so the
// self-tests (tests/stats_test.cc) can pin them on synthetic inputs:
// percentile selection under the ten-samples-beyond rule, failure
// counting, open-loop due-time accounting and span self times.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// A reported percentile needs at least this many samples beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank percentile (`pct` in 1..100) without the support check.
/// Zero for an empty sample.
inline double PercentileUnchecked(std::vector<double> values, int pct) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  // Rank ceil(pct * n / 100) in integers, so 99% of 1000 is exactly 990.
  size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
inline size_t SamplesBeyond(size_t n, int pct) {
  const size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
  return n - std::min(rank, n);
}

/// A timing with the moment it completed, in seconds from the start of
/// the measured window.
struct Sample {
  double at_s = 0;
  double ms = 0;
};

/// Median of per-chunk percentiles: the samples, in completion order, are
/// cut into the largest number of equal-count chunks, at most
/// `max_chunks`, that each keep kMinSamplesBeyond samples beyond `pct`;
/// each chunk's nearest-rank percentile is taken and their median returned.
/// A stall confined to one chunk then moves the result only as far as the
/// chunk order allows. nullopt when the whole sample cannot support `pct`
/// (a p99 needs at least 1,000 samples).
inline std::optional<double> ChunkedPercentile(std::vector<Sample> samples,
                                               int pct, size_t max_chunks) {
  if (samples.empty() ||
      SamplesBeyond(samples.size(), pct) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.at_s < b.at_s; });
  size_t chunks = std::max<size_t>(1, max_chunks);
  while (chunks > 1 &&
         SamplesBeyond(samples.size() / chunks, pct) < kMinSamplesBeyond) {
    --chunks;
  }
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = samples.size() * c / chunks;
    const size_t end = samples.size() * (c + 1) / chunks;
    std::vector<double> values;
    for (size_t i = begin; i < end; ++i) values.push_back(samples[i].ms);
    per_chunk.push_back(PercentileUnchecked(std::move(values), pct));
  }
  return PercentileUnchecked(std::move(per_chunk), 50);
}

/// Median over `chunks` equal slices of [0, seconds) of the events per
/// second completed in each slice; events at or after `seconds` are out.
inline double ChunkedRate(const std::vector<Sample>& events, double seconds,
                          size_t chunks) {
  if (seconds <= 0 || chunks == 0) return 0.0;
  std::vector<double> counts(chunks, 0.0);
  for (const Sample& e : events) {
    if (e.at_s < 0 || e.at_s >= seconds) continue;
    const auto c = static_cast<size_t>(e.at_s / seconds *
                                       static_cast<double>(chunks));
    counts[std::min(c, chunks - 1)] += 1.0;
  }
  const double slice = seconds / static_cast<double>(chunks);
  for (double& count : counts) count /= slice;
  return PercentileUnchecked(std::move(counts), 50);
}

inline std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) values.push_back(s.ms);
  return values;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

inline double Median(const std::vector<double>& values) {
  return PercentileUnchecked(values, 50);
}

/// Outcome of one request as the correctness gate sees it.
enum class Outcome {
  kOk,
  kError,     // non-OK status other than a shed or a timeout
  kShed,      // RESOURCE_EXHAUSTED
  kTimeout,   // DEADLINE_EXCEEDED, or never answered
  kBadFlags,  // OK but flagged degraded or cached
  kMismatch,  // OK but the key differs from the reference engine's
};

/// Requests sent and how they ended. Every sent request ends in exactly
/// one bucket; a key mismatch found after the load moves a request from
/// ok to mismatch.
struct Tally {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t error = 0;
  uint64_t shed = 0;
  uint64_t timeout = 0;
  uint64_t bad_flags = 0;
  uint64_t mismatch = 0;

  void Count(Outcome outcome) {
    switch (outcome) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kError: ++error; break;
      case Outcome::kShed: ++shed; break;
      case Outcome::kTimeout: ++timeout; break;
      case Outcome::kBadFlags: ++bad_flags; break;
      case Outcome::kMismatch: ++mismatch; break;
    }
  }

  /// A request first counted ok whose key then failed verification.
  void Demote() {
    --ok;
    ++mismatch;
  }

  void Merge(const Tally& other) {
    sent += other.sent;
    ok += other.ok;
    error += other.error;
    shed += other.shed;
    timeout += other.timeout;
    bad_flags += other.bad_flags;
    mismatch += other.mismatch;
  }

  uint64_t failed() const {
    return error + shed + timeout + bad_flags + mismatch;
  }
  /// Sent requests with no recorded outcome (still in flight).
  uint64_t unanswered() const {
    const uint64_t done = ok + failed();
    return sent > done ? sent - done : 0;
  }
  double failed_frac() const {
    return sent == 0 ? 0.0
                     : static_cast<double>(failed() + unanswered()) /
                           static_cast<double>(sent);
  }
};

/// A fixed-rate open-loop schedule: request i is due at start + i * period.
struct Schedule {
  Clock::time_point start;
  Clock::duration period;
  Clock::time_point Due(uint64_t i) const {
    return start + period * static_cast<int64_t>(i);
  }
};

/// Issues `count` requests on `schedule`. `wait_until(due)` returns once
/// the clock reaches `due` (the real driver receives responses while it
/// waits); `send(i, due)` issues request i. How late each request left is
/// appended to `lag_ms`; latency is the caller's to time from the due time,
/// so a stall inside one send shows up in every later request's latency.
template <typename NowFn, typename WaitFn, typename SendFn>
void DriveSchedule(const Schedule& schedule, uint64_t count, NowFn&& now,
                   WaitFn&& wait_until, SendFn&& send,
                   std::vector<double>* lag_ms) {
  for (uint64_t i = 0; i < count; ++i) {
    const Clock::time_point due = schedule.Due(i);
    wait_until(due);
    lag_ms->push_back(std::max(0.0, Millis(now() - due)));
    send(i, due);
  }
}

/// One traced call into a layer: name, start, end, the span that caused it
/// (index into the same vector, -1 for a root) and the wire request id.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  uint64_t request_id = 0;

  double ms() const { return Millis(end - start); }
};

/// Self time of every span: its duration minus the durations of the spans
/// whose parent it is.
inline std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].ms();
  for (const Span& span : spans) {
    if (span.parent >= 0) self[static_cast<size_t>(span.parent)] -= span.ms();
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
