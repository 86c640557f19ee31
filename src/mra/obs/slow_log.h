// Structured slow-query log: queries whose end-to-end latency crosses a
// configurable threshold are captured as JSON-lines entries — query text,
// an EXPLAIN ANALYZE plan snapshot, the per-phase latency breakdown, and
// any shed/retry events observed — into a fixed-size ring buffer that
// `\slowlog` (REPL) and the ServerStats wire request expose live.
//
// The threshold is in milliseconds (`--slow-query-ms` on mra_serverd and
// xra_repl); negative disables the log entirely, 0 logs every query.
// The schema is documented in docs/OBSERVABILITY.md.

#ifndef MRA_OBS_SLOW_LOG_H_
#define MRA_OBS_SLOW_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mra {
namespace obs {

/// One logged slow query.  All latencies are microseconds.
struct SlowQueryEntry {
  uint64_t query_id = 0;
  uint64_t wall_ms = 0;       // Unix epoch milliseconds at completion.
  uint64_t latency_us = 0;    // End-to-end (what the threshold gates).
  uint64_t bind_us = 0;
  uint64_t optimize_us = 0;
  uint64_t lower_us = 0;
  uint64_t exec_us = 0;
  uint64_t teardown_us = 0;
  uint64_t result_rows = 0;
  std::string source;         // Query text (truncated to kMaxFieldBytes).
  std::string plan;           // EXPLAIN ANALYZE snapshot, same truncation.
  std::vector<std::string> events;  // e.g. "shed", "retry", "rollback".

  /// Renders the entry as one JSON object (no trailing newline).
  std::string ToJsonLine() const;
};

class SlowQueryLog {
 public:
  static constexpr size_t kCapacity = 256;
  /// Source and plan snapshots are clipped to keep entries bounded.
  static constexpr size_t kMaxFieldBytes = 4096;

  static SlowQueryLog& Global();

  SlowQueryLog() = default;
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Threshold in ms; < 0 disables the log (the default), 0 logs all.
  void SetThresholdMs(int64_t ms) {
    threshold_ms_.store(ms, std::memory_order_relaxed);
  }
  int64_t threshold_ms() const {
    return threshold_ms_.load(std::memory_order_relaxed);
  }
  bool enabled() const { return threshold_ms() >= 0; }

  /// Whether a query with this latency should be recorded — the hot-path
  /// check is one relaxed load plus a compare.
  bool ShouldLog(uint64_t latency_us) const {
    int64_t ms = threshold_ms();
    return ms >= 0 && latency_us >= static_cast<uint64_t>(ms) * 1000;
  }

  /// Appends an entry (clipping source/plan), overwriting the oldest
  /// once kCapacity is reached.
  void Record(SlowQueryEntry entry);

  /// Entries in arrival order, oldest first, rendered as JSON lines.
  std::vector<std::string> Lines() const;

  /// Lines() joined with newlines (one JSON object per line).
  std::string RenderJsonLines() const;

  /// Total entries ever recorded (including overwritten ones).
  uint64_t total_logged() const {
    return total_logged_.load(std::memory_order_relaxed);
  }

  void Clear();

 private:
  std::atomic<int64_t> threshold_ms_{-1};
  std::atomic<uint64_t> total_logged_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> ring_;  // Pre-rendered JSON lines.
  size_t next_ = 0;                // Ring insertion cursor once full.
};

}  // namespace obs
}  // namespace mra

#endif  // MRA_OBS_SLOW_LOG_H_
