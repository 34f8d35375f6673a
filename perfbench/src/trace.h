// Spans for the traced run, and the timing decorators that record them
// around calls into the library's public layers.
//
// A span has a name, a start, an end, a parent and the id of the job it
// belongs to. Each job's spans live in one JobTrace; when the job ends its
// trace is folded into per-name totals (count, busy time, self time and a
// bounded sample of durations), so memory stays flat however long the run
// is. Self time is a span's duration minus the time its children cover.
//
// The decorators find the innermost open span through a thread-local
// cursor (TraceScope), so a policy or adversary called deep inside
// sim::run_session nests under the session span without the library
// knowing it is being timed.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "core/policy.h"
#include "solver/table_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::int64_t count = 0;  ///< work the span did: periods, cells, bytes
};

/// Bounded sample of values for percentiles: keeps every value until the
/// buffer fills, then every second one, and so on (a deterministic
/// decimation, so the quantiles stay unbiased for a stationary stream).
class Samples {
 public:
  void add(double value);
  void merge(const Samples& other);
  double quantile(double q) const;  ///< 0 when empty

 private:
  static constexpr std::size_t kCapacity = 1u << 16;
  std::vector<double> values_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
};

struct SpanTotals {
  std::uint64_t spans = 0;
  double busy_ns = 0.0;
  double self_ns = 0.0;
  std::int64_t count = 0;
  Samples duration_ns;
  Samples self_sample_ns;

  void merge(const SpanTotals& other);
};

/// Per-name totals plus the job-root totals the coverage check uses.
struct TraceTotals {
  std::map<std::string, SpanTotals> by_name;
  double root_ns = 0.0;  ///< Σ durations of "job" roots
  std::uint64_t roots = 0;
  std::vector<std::string> kept;  ///< raw spans of the first jobs, as JSON lines
  Samples socket_roundtrip_ns;    ///< rpc only: per-job socket time, see RpcTransport

  void merge(const TraceTotals& other);
};

/// The spans of one job.
class JobTrace {
 public:
  explicit JobTrace(std::uint64_t job) : job_(job) {}

  /// Opens a span now under `parent`; returns its index.
  std::uint32_t open(const char* name, std::uint32_t parent);
  /// Closes span `index` now.
  void close(std::uint32_t index, std::int64_t count = 0);
  /// Records an already finished span.
  std::uint32_t add(const char* name, std::uint32_t parent, std::int64_t start_ns,
                    std::int64_t end_ns, std::int64_t count = 0);
  void rename(std::uint32_t index, const char* name) { spans_[index].name = name; }
  const Span& span(std::uint32_t index) const { return spans_[index]; }

  /// Folds this job into `totals` (roots named "job" count towards the
  /// coverage denominator) and keeps its raw spans when `keep` is set.
  void fold_into(TraceTotals& totals, bool keep) const;

 private:
  std::uint64_t job_;
  std::vector<Span> spans_;
};

/// Thread-local cursor: the trace and innermost open span the decorators
/// nest under. Constructing one installs it; destruction restores the
/// previous cursor.
class TraceScope {
 public:
  explicit TraceScope(JobTrace& trace, std::uint32_t top = kNoParent);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  JobTrace* saved_trace_;
  std::uint32_t saved_top_;
};

/// RAII span under the current cursor; a no-op without a TraceScope.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::int64_t count) noexcept { count_ = count; }
  void rename(const char* name);

 private:
  JobTrace* trace_;
  std::uint32_t index_ = kNoParent;
  std::uint32_t saved_top_ = kNoParent;
  std::int64_t count_ = 0;
};

/// Times every episode() call as `layer` ("solver.extract" for
/// OptimalPolicy, "core.policy" for the closed-form guidelines); the span
/// count is the episode's period count.
class TimedPolicy final : public nowsched::SchedulingPolicy {
 public:
  TimedPolicy(std::shared_ptr<const nowsched::SchedulingPolicy> inner, const char* layer)
      : inner_(std::move(inner)), layer_(layer) {}
  std::string name() const override { return inner_->name(); }
  nowsched::EpisodeSchedule episode(nowsched::Ticks residual, int interrupts_left,
                                    const nowsched::Params& params) const override;

 private:
  std::shared_ptr<const nowsched::SchedulingPolicy> inner_;
  const char* layer_;
};

/// Times every plan_interrupt() call as "adversary.plan".
class TimedAdversary final : public nowsched::adversary::Adversary {
 public:
  explicit TimedAdversary(nowsched::adversary::Adversary& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  std::optional<nowsched::Ticks> plan_interrupt(
      const nowsched::EpisodeSchedule& episode,
      const nowsched::adversary::EpisodeContext& ctx) override;
  void reset(std::uint64_t seed) override { inner_.reset(seed); }

 private:
  nowsched::adversary::Adversary& inner_;
};

/// A TableStore that declines everything: what a SolveCache without a
/// persistent tier behaves like, mounted so TimedStore can see its misses.
class NullStore final : public nowsched::solver::TableStore {
 public:
  std::shared_ptr<const nowsched::solver::ValueTable> load(
      const nowsched::solver::SolveKey&) override {
    return nullptr;
  }
  bool store(const nowsched::solver::SolveKey&,
             const std::shared_ptr<const nowsched::solver::ValueTable>&) override {
    return false;
  }
  void clear() override {}
  nowsched::solver::TableStoreStats stats() const override { return {}; }
  const char* name() const noexcept override { return "null"; }
};

/// Times the persistent tier beneath a SolveCache. SolveCache probes its
/// store on every RAM miss, then on a store miss solves (solve_shared) and
/// offers the fresh table back to the store; so a store() call following a
/// missed load() on the same thread brackets exactly one DP fill, which is
/// recorded as a "solver.fill" span whose count is the table's cell count.
/// A probe also marks the enclosing cache lookup as a miss (probed()).
class TimedStore final : public nowsched::solver::TableStore {
 public:
  explicit TimedStore(std::shared_ptr<nowsched::solver::TableStore> inner)
      : inner_(std::move(inner)) {}

  std::shared_ptr<const nowsched::solver::ValueTable> load(
      const nowsched::solver::SolveKey& key) override;
  bool store(const nowsched::solver::SolveKey& key,
             const std::shared_ptr<const nowsched::solver::ValueTable>& table) override;
  void clear() override { inner_->clear(); }
  nowsched::solver::TableStoreStats stats() const override { return inner_->stats(); }
  const char* name() const noexcept override { return inner_->name(); }

  /// True when this thread probed the store since the last reset_probe().
  static bool probed() noexcept;
  static void reset_probe() noexcept;

 private:
  std::shared_ptr<nowsched::solver::TableStore> inner_;
};

/// The layer a span name belongs to ("solver.store.load" -> "solver.store").
std::string layer_of(const std::string& span_name);

}  // namespace perfbench
