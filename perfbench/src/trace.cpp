#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "util/stats.h"

namespace perfbench {

void Samples::add(double value) {
  if (seen_++ % stride_ != 0) return;
  values_.push_back(value);
  if (values_.size() >= kCapacity) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < values_.size(); i += 2) values_[out++] = values_[i];
    values_.resize(out);
    stride_ *= 2;
  }
}

void Samples::merge(const Samples& other) {
  for (const double v : other.values_) add(v);
}

double Samples::quantile(double q) const { return nowsched::util::Summary(values_).quantile(q); }

void SpanTotals::merge(const SpanTotals& other) {
  spans += other.spans;
  busy_ns += other.busy_ns;
  self_ns += other.self_ns;
  count += other.count;
  duration_ns.merge(other.duration_ns);
  self_sample_ns.merge(other.self_sample_ns);
}

void TraceTotals::merge(const TraceTotals& other) {
  for (const auto& [name, totals] : other.by_name) by_name[name].merge(totals);
  root_ns += other.root_ns;
  roots += other.roots;
  kept.insert(kept.end(), other.kept.begin(), other.kept.end());
  socket_roundtrip_ns.merge(other.socket_roundtrip_ns);
}

std::uint32_t JobTrace::open(const char* name, std::uint32_t parent) {
  const std::int64_t t = now_ns();
  return add(name, parent, t, t);
}

void JobTrace::close(std::uint32_t index, std::int64_t count) {
  Span& span = spans_[index];
  span.end_ns = now_ns();
  span.count = count;
}

std::uint32_t JobTrace::add(const char* name, std::uint32_t parent, std::int64_t start_ns,
                            std::int64_t end_ns, std::int64_t count) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, count});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void JobTrace::fold_into(TraceTotals& totals, bool keep) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    const double self = std::max(0.0, duration - child_ns[i]);
    SpanTotals& t = totals.by_name[span.name];
    ++t.spans;
    t.busy_ns += duration;
    t.self_ns += self;
    t.count += span.count;
    t.duration_ns.add(duration);
    t.self_sample_ns.add(self);
    if (span.parent == kNoParent && std::string_view(span.name) == "job") {
      totals.root_ns += duration;
      ++totals.roots;
    }
    if (keep) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"job\":%llu,\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                    "\"end_ns\":%lld,\"parent\":%lld,\"count\":%lld}",
                    static_cast<unsigned long long>(job_), i, span.name,
                    static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns),
                    span.parent == kNoParent ? -1LL : static_cast<long long>(span.parent),
                    static_cast<long long>(span.count));
      totals.kept.emplace_back(line);
    }
  }
}

namespace {

struct Cursor {
  JobTrace* trace = nullptr;
  std::uint32_t top = kNoParent;
};

thread_local Cursor tl_cursor;
thread_local bool tl_probed = false;
thread_local std::int64_t tl_miss_end_ns = -1;

}  // namespace

TraceScope::TraceScope(JobTrace& trace, std::uint32_t top)
    : saved_trace_(tl_cursor.trace), saved_top_(tl_cursor.top) {
  tl_cursor = Cursor{&trace, top};
}

TraceScope::~TraceScope() { tl_cursor = Cursor{saved_trace_, saved_top_}; }

ScopedSpan::ScopedSpan(const char* name) : trace_(tl_cursor.trace) {
  if (trace_ == nullptr) return;
  saved_top_ = tl_cursor.top;
  index_ = trace_->open(name, saved_top_);
  tl_cursor.top = index_;
}

ScopedSpan::~ScopedSpan() {
  if (trace_ == nullptr) return;
  trace_->close(index_, count_);
  tl_cursor.top = saved_top_;
}

void ScopedSpan::rename(const char* name) {
  if (trace_ != nullptr) trace_->rename(index_, name);
}

nowsched::EpisodeSchedule TimedPolicy::episode(nowsched::Ticks residual, int interrupts_left,
                                               const nowsched::Params& params) const {
  ScopedSpan span(layer_);
  nowsched::EpisodeSchedule episode = inner_->episode(residual, interrupts_left, params);
  span.set_count(static_cast<std::int64_t>(episode.size()));
  return episode;
}

std::optional<nowsched::Ticks> TimedAdversary::plan_interrupt(
    const nowsched::EpisodeSchedule& episode,
    const nowsched::adversary::EpisodeContext& ctx) {
  ScopedSpan span("adversary.plan");
  return inner_.plan_interrupt(episode, ctx);
}

std::shared_ptr<const nowsched::solver::ValueTable> TimedStore::load(
    const nowsched::solver::SolveKey& key) {
  tl_probed = true;
  ScopedSpan span("solver.store.load");
  auto table = inner_->load(key);
  if (table == nullptr) {
    span.rename("solver.store.miss");
    tl_miss_end_ns = now_ns();
  } else {
    span.set_count(1);
    tl_miss_end_ns = -1;
  }
  return table;
}

bool TimedStore::store(const nowsched::solver::SolveKey& key,
                       const std::shared_ptr<const nowsched::solver::ValueTable>& table) {
  const std::int64_t fill_end = now_ns();
  JobTrace* trace = tl_cursor.trace;
  if (trace != nullptr && tl_miss_end_ns >= 0) {
    trace->add("solver.fill", tl_cursor.top, tl_miss_end_ns, fill_end,
               static_cast<std::int64_t>(table->bytes() / sizeof(nowsched::Ticks)));
  }
  tl_miss_end_ns = -1;
  ScopedSpan span("solver.store.store");
  const bool stored = inner_->store(key, table);
  span.set_count(stored ? 1 : 0);
  return stored;
}

bool TimedStore::probed() noexcept { return tl_probed; }
void TimedStore::reset_probe() noexcept {
  tl_probed = false;
  tl_miss_end_ns = -1;
}

std::string layer_of(const std::string& name) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"solver.cache", "solver.cache"}, {"solver.store", "solver.store"},
      {"solver.fill", "solver.fill"},   {"solver.extract", "solver.extract"},
      {"core.policy", "core.policy"},   {"adversary", "adversary"},
      {"sim.session", "sim.session"},   {"service", "service"},
      {"rpc.codec", "rpc.codec"},       {"rpc.", "rpc.socket"},
  };
  for (const auto& [prefix, layer] : kLayers) {
    if (name.rfind(prefix, 0) == 0) return layer;
  }
  return name;  // "job" (glue between layer calls) and "exec"
}

}  // namespace perfbench
