// nowsched_perfbench — one run of one benchmark workload, from scenario
// submission to result, with its outputs checked.
//
//   nowsched_perfbench --workload warm_mix|cold_solve|rpc_open --seed N
//                      --seconds S --trace 0|1 [--scratch DIR] [--rev REV]
//                      [--trace-out FILE] [--calibrate]
//
// --trace 0 measures the end-to-end metrics (closed loop, three fixed open-
// loop rates, the SLO ladder); --trace 1 measures the per-layer metrics
// from a traced replay of the jobs an untraced run completed. Every metric
// is printed as "metric <name> <value> <unit>", and the last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/run.py builds this binary and is the command to use; see
// perfbench/README.md for the workloads and what each metric should move.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "rpc/server.h"
#include "sim/session.h"
#include "solver/extract.h"
#include "solver/solve_cache.h"
#include "trace.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace svc = nowsched::service;
namespace sim = nowsched::sim;
namespace solver = nowsched::solver;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool calibrate = false;
  std::string scratch = ".bench_build/perfbench-run";
  std::string rev = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "usage error: " << why
            << "\nusage: nowsched_perfbench --workload warm_mix|cold_solve|rpc_open --seed N"
               " --seconds S --trace 0|1 [--scratch DIR] [--rev REV] [--trace-out FILE]"
               " [--calibrate]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--calibrate") {
      args.calibrate = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else if (flag == "--rev") {
        args.rev = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string host_class() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  const char* isa = "scalar";
  if (nowsched::util::simd::cpu_supports_avx2()) {
    isa = "avx2";
  } else if (nowsched::util::simd::cpu_supports_neon()) {
    isa = "neon";
  }
  return std::to_string(threads) + "t-" + isa;
}

double quantile(std::vector<double> values, double q) {
  return nowsched::util::Summary(std::move(values)).quantile(q);
}

/// p99 of consecutive windows of 1000 jobs (10 samples beyond the p99 in
/// each), median over the windows; a phase under 2000 jobs is one window.
/// The median keeps a rare host stall (a preempted virtual CPU stalls every
/// thread for milliseconds) from deciding a whole run's tail latency.
double windowed_p99(const std::vector<double>& latency_ms) {
  constexpr std::size_t kWindow = 1000;
  const std::size_t windows = std::max<std::size_t>(1, latency_ms.size() / kWindow);
  const std::size_t size = latency_ms.size() / windows;
  std::vector<double> p99s;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = latency_ms.begin() + static_cast<std::ptrdiff_t>(w * size);
    const auto last = w + 1 == windows ? latency_ms.end() : first + static_cast<std::ptrdiff_t>(size);
    p99s.push_back(quantile(std::vector<double>(first, last), 0.99));
  }
  return quantile(p99s, 0.5);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Cumulative (steal, total) jiffies of all CPUs from /proc/stat; zeros
/// where it cannot be read. Steal is time the hypervisor ran someone else
/// on this machine's virtual CPUs.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double value = 0.0, total = 0.0, steal = 0.0;
  if (!(stat >> cpu) || cpu != "cpu") return {0.0, 0.0};
  for (int field = 0; field < 8 && (stat >> value); ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

double steal_share_since(const std::pair<double, double>& start) {
  const auto now = cpu_steal_jiffies();
  const double total = now.second - start.second;
  return total > 0.0 ? (now.first - start.first) / total : 0.0;
}

// ---------------------------------------------------------------------------
// Metrics output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
    char line[160];
    std::snprintf(line, sizeof line, "metric %-40s %.6g %s", name.c_str(), value, unit.c_str());
    std::cout << line << "\n";
  }
  /// Printed like a metric but left out of the result line: measured, yet
  /// too unsteady on a shared virtual machine to gate on (README.md).
  void info(const std::string& name, double value, const std::string& unit) {
    char line[160];
    std::snprintf(line, sizeof line, "info   %-40s %.6g %s", name.c_str(), value, unit.c_str());
    std::cout << line << "\n";
  }
  void fail(const std::string& why) {
    correct_ = false;
    std::cout << "CHECK FAILED: " << why << "\n";
  }
  bool correct() const noexcept { return correct_; }

  void print_json(std::uint64_t attempted, std::uint64_t failed) const {
    std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      std::cout << (i ? ", " : "") << "\"" << metrics_[i].name << "\": {\"value\": " << value
                << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// ---------------------------------------------------------------------------
// The system under test: a service, optionally behind the rpc server
// ---------------------------------------------------------------------------

class Stack {
 public:
  Stack(const WorkloadConfig& config, const std::string& scratch, int tag) {
    svc::ServiceOptions options;
    options.workers = 2;
    options.queue = svc::QueueKind::kDeficitRoundRobin;
    // Admission stays open: the workloads measure latency, not refusals
    // (a refusal would still be counted as a failed job).
    options.max_queued_jobs_per_tenant = 1u << 16;
    options.max_queued_jobs_total = 1u << 17;
    options.max_pending_scenarios_per_tenant = 1u << 22;
    options.default_tenant_quota_bytes = config.tenant_quota_bytes;
    options.tenant_cache_shards = 4;
    if (config.store) {
      store_dir_ = scratch + "/store-" + std::to_string(tag);
      fs::remove_all(store_dir_);
      options.shared_store_dir = store_dir_;
    }
    service_ = std::make_unique<svc::SchedulerService>(options);
    if (config.rpc) {
      socket_path_ = scratch + "/s" + std::to_string(tag) + ".sock";
      server_ = std::make_unique<nowsched::rpc::Server>(
          *service_, nowsched::rpc::ServerOptions{socket_path_, 16});
      serve_thread_ = std::thread([this] {
        try {
          server_->serve();
        } catch (const std::exception& e) {
          std::cerr << "rpc server stopped: " << e.what() << "\n";
        }
      });
      try {
        transport_ = std::make_unique<RpcTransport>(socket_path_);
      } catch (...) {
        stop();
        throw;
      }
    } else {
      transport_ = std::make_unique<InProcessTransport>(*service_);
    }
  }

  ~Stack() { stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Stops every thread the stack started and removes its files.
  void stop() {
    if (service_ == nullptr) return;
    if (server_ != nullptr) {
      transport_.reset();
      server_->stop();
      serve_thread_.join();
      server_.reset();
    }
    service_->shutdown(svc::SchedulerService::StopMode::kDrain);
    transport_.reset();
    service_.reset();
    if (!store_dir_.empty()) fs::remove_all(store_dir_);
    if (!socket_path_.empty()) fs::remove(socket_path_);
  }

  svc::SchedulerService& service() { return *service_; }
  Transport& transport() { return *transport_; }
  RpcTransport* rpc() { return dynamic_cast<RpcTransport*>(transport_.get()); }

 private:
  std::string store_dir_;
  std::string socket_path_;
  std::unique_ptr<svc::SchedulerService> service_;
  std::unique_ptr<nowsched::rpc::Server> server_;
  std::thread serve_thread_;
  std::unique_ptr<Transport> transport_;
};

/// Set-up: build the stack and warm it (tenant caches for warm_mix, then a
/// short closed-loop burst of set-up jobs so allocators and the page cache
/// are warm before timing).
std::unique_ptr<Stack> set_up(const WorkloadConfig& config, const JobSource& source,
                              const std::string& scratch, int tag) {
  auto stack = std::make_unique<Stack>(config, scratch, tag);
  std::vector<JobRecord> discard;
  std::vector<std::uint64_t> warm_index(kTenants, 0);
  LoadGen warm(stack->transport(), source, warm_index, discard, kWarmStream);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    const auto specs = source.cache_warm_job(t);
    if (specs.empty()) continue;
    if (!warm.run_one(JobRef{t, 0}, specs)) throw std::runtime_error("cache warm-up job failed");
  }
  const PhaseResult burst = warm.closed_loop(60.0, 64);
  if (burst.failed != 0) throw std::runtime_error("set-up jobs failed");
  return stack;
}

// ---------------------------------------------------------------------------
// Correctness: every job against a direct BatchRunner run of the same specs
// ---------------------------------------------------------------------------

/// Returns the number of jobs whose result differs from the reference.
std::uint64_t verify(const std::vector<JobRecord>& records, const JobSource& source,
                     Report& report) {
  nowsched::util::ThreadPool pool(3);
  sim::BatchOptions options;
  options.pool = &pool;
  sim::BatchRunner runner(options);
  std::uint64_t wrong = 0;
  std::size_t next = 0;
  while (next < records.size()) {
    std::vector<sim::ScenarioSpec> specs;
    std::vector<std::size_t> bounds{0};
    const std::size_t first = next;
    while (next < records.size() && specs.size() < 4096) {
      const auto job = source.job(records[next].ref.stream, records[next].ref.index);
      specs.insert(specs.end(), job.begin(), job.end());
      bounds.push_back(specs.size());
      ++next;
    }
    const sim::BatchResult ref = runner.run(specs);
    for (std::size_t j = first; j < next; ++j) {
      const auto lo = ref.per_scenario.begin() + static_cast<std::ptrdiff_t>(bounds[j - first]);
      const auto hi = ref.per_scenario.begin() + static_cast<std::ptrdiff_t>(bounds[j - first + 1]);
      const std::vector<sim::SessionMetrics> slice(lo, hi);
      nowsched::Ticks banked = 0;
      for (const auto& m : slice) banked += m.banked_work;
      const JobRecord& got = records[j];
      if (got.banked != banked || got.digest != metrics_digest(slice)) {
        if (wrong < 5) {
          report.fail("job " + std::to_string(records[j].ref.stream) + "/" +
                      std::to_string(records[j].ref.index) + " banked " +
                      std::to_string(got.banked) + ", reference " + std::to_string(banked));
        }
        ++wrong;
      }
    }
  }
  if (wrong > 0) report.fail(std::to_string(wrong) + " job results differ from BatchRunner");
  return wrong;
}

// ---------------------------------------------------------------------------
// The SLO ladder
// ---------------------------------------------------------------------------

/// The SLO ladder. Rungs are rate_low * 1.05^i; the search starts at the
/// rung nearest ladder_start. A rung passes when its p99 meets the limit, no
/// job failed and the backlog did not grow; it fails only when it fails
/// twice in a row, so one host stall does not decide it. From a passing
/// start the search climbs until a rung fails; from a failing start it
/// descends until one passes. The SLO rate is the highest passing rung.
class SloLadder {
 public:
  explicit SloLadder(const WorkloadConfig& config)
      : config_(config),
        rung_(static_cast<int>(
            std::lround(std::log(config.ladder_start / config.rate_low) / std::log(kStep)))) {}

  bool done() const noexcept { return done_; }
  double rate() const { return config_.rate_low * std::pow(kStep, rung_); }
  double slo_rate() const noexcept { return slo_rate_; }

  void record(const PhaseResult& step) {
    const double p99 = windowed_p99(step.latency_ms);
    const bool pass = step.failed == 0 && !step.backlog_growing && p99 <= config_.slo_p99_ms;
    std::cout << "ladder rung " << rung_ << " rate " << rate() << " jobs/s p99 " << p99
              << " ms backlog_growing " << step.backlog_growing << " -> "
              << (pass ? "pass" : "fail") << "\n";
    if (!pass && !failed_once_) {
      failed_once_ = true;  // retry the rung once
      return;
    }
    failed_once_ = false;
    if (pass) slo_rate_ = std::max(slo_rate_, rate());
    if (direction_ == 0) direction_ = pass ? 1 : -1;
    if ((direction_ > 0) != pass) {
      done_ = true;  // crossed the limit
      return;
    }
    rung_ += direction_;
    done_ = rung_ < 0;
  }

 private:
  static constexpr double kStep = 1.05;
  const WorkloadConfig& config_;
  int rung_;
  int direction_ = 0;
  bool failed_once_ = false;
  bool done_ = false;
  double slo_rate_ = 0.0;
};

// ---------------------------------------------------------------------------
// Traced replay (in-process layers)
// ---------------------------------------------------------------------------

struct ReplayOutcome {
  nowsched::Ticks banked = 0;
  std::uint64_t digest = 0;
  double exec_ms = 0.0;
  std::size_t scenarios = 0;
};

/// One job through the public layer calls, exactly as BatchRunner runs it:
/// cache lookup (dp-optimal), owner, session; every call timed.
ReplayOutcome replay_job(const std::vector<sim::ScenarioSpec>& specs, solver::SolveCache& cache,
                         std::uint64_t job_id, const char* root_name, TraceTotals& totals,
                         bool keep) {
  JobTrace trace(job_id);
  const std::uint32_t root = trace.open(root_name, kNoParent);
  std::vector<sim::SessionMetrics> per_scenario;
  per_scenario.reserve(specs.size());
  {
    TraceScope scope(trace, root);
    {
      ScopedSpan admit("service.admit");
      sim::validate_batch_specs(specs);
    }
    for (const sim::ScenarioSpec& spec : specs) {
      std::shared_ptr<const nowsched::SchedulingPolicy> policy;
      if (spec.policy == sim::PolicyKind::kDpOptimal) {
        std::shared_ptr<const solver::ValueTable> table;
        {
          ScopedSpan lookup("solver.cache.hit");
          TimedStore::reset_probe();
          table = cache.get_or_solve(
              solver::SolveRequest{spec.max_interrupts, spec.lifespan, spec.params}, nullptr);
          if (TimedStore::probed()) lookup.rename("solver.cache.miss");
        }
        policy = std::make_shared<TimedPolicy>(std::make_shared<solver::OptimalPolicy>(table),
                                               "solver.extract");
      } else {
        policy = std::make_shared<TimedPolicy>(sim::make_policy(spec), "core.policy");
      }
      std::unique_ptr<nowsched::adversary::Adversary> owner;
      {
        ScopedSpan make("adversary.make");
        owner = sim::make_owner(spec);
      }
      TimedAdversary timed_owner(*owner);
      ScopedSpan session("sim.session");
      per_scenario.push_back(sim::run_session(
          *policy, timed_owner, nowsched::Opportunity{spec.lifespan, spec.max_interrupts},
          spec.params));
      session.set_count(static_cast<std::int64_t>(per_scenario.back().periods_completed +
                                                  per_scenario.back().periods_killed));
    }
  }
  trace.close(root);
  trace.fold_into(totals, keep);
  ReplayOutcome out;
  for (const auto& m : per_scenario) out.banked += m.banked_work;
  out.digest = metrics_digest(per_scenario);
  out.exec_ms = static_cast<double>(trace.span(root).end_ns - trace.span(root).start_ns) / 1e6;
  out.scenarios = specs.size();
  return out;
}

struct ReplayRun {
  TraceTotals totals;
  std::map<std::pair<std::uint32_t, std::uint64_t>, ReplayOutcome> outcomes;
  double wall_s = 0.0;
  std::uint64_t scenarios = 0;
  solver::SolveCacheStats cache;  ///< summed over tenants, replay only
};

/// Replays `refs` on two threads (one per tenant, like the two service
/// workers) until done or `seconds` pass.
ReplayRun replay(const WorkloadConfig& config, const JobSource& source,
                 const std::vector<JobRef>& refs, const std::string& store_dir,
                 double seconds, const char* root_name) {
  std::shared_ptr<solver::TableStore> store;
  if (config.store) {
    fs::remove_all(store_dir);
    store = std::make_shared<solver::MappedTableStore>(
        solver::MappedTableStore::Options{store_dir, false, true});
  } else {
    store = std::make_shared<NullStore>();
  }
  // Each tenant's cache as the service builds it (quota, 4 shards), over a
  // timed view of the shared store.
  std::vector<std::unique_ptr<solver::SolveCache>> caches;
  std::vector<solver::SolveCacheStats> before;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    caches.push_back(std::make_unique<solver::SolveCache>(solver::SolveCache::Options{
        4, config.tenant_quota_bytes, std::make_shared<TimedStore>(store)}));
    for (const auto& spec : source.cache_warm_job(t)) {
      caches.back()->get_or_solve(
          solver::SolveRequest{spec.max_interrupts, spec.lifespan, spec.params}, nullptr);
    }
    before.push_back(caches.back()->stats());
  }

  ReplayRun run;
  std::vector<ReplayRun> parts(kTenants);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  auto body = [&](std::uint32_t t) {
    ReplayRun& part = parts[t];
    std::size_t kept = 0;
    for (const JobRef& ref : refs) {
      if (ref.stream % kTenants != t) continue;
      if (Clock::now() >= deadline) break;
      const auto specs = source.job(ref.stream, ref.index);
      const ReplayOutcome outcome =
          replay_job(specs, *caches[t], (std::uint64_t{ref.stream} << 48) | ref.index,
                     root_name, part.totals, kept++ < 8);
      part.scenarios += outcome.scenarios;
      part.outcomes.emplace(std::make_pair(ref.stream, ref.index), outcome);
    }
  };
  std::exception_ptr other_error;
  std::jthread other([&] {
    try {
      body(1);
    } catch (...) {
      other_error = std::current_exception();
    }
  });
  body(0);
  other.join();
  if (other_error) std::rethrow_exception(other_error);
  run.wall_s = seconds_since(start);
  for (ReplayRun& part : parts) {
    run.totals.merge(part.totals);
    run.outcomes.merge(part.outcomes);
    run.scenarios += part.scenarios;
  }
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    const solver::SolveCacheStats s = caches[t]->stats();
    run.cache.hits += s.hits - before[t].hits;
    run.cache.misses += s.misses - before[t].misses;
    run.cache.store_hits += s.store_hits - before[t].store_hits;
    run.cache.evictions += s.evictions - before[t].evictions;
    run.cache.resident_bytes += s.resident_bytes;
  }
  caches.clear();
  store.reset();
  if (config.store) fs::remove_all(store_dir);
  return run;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct SetUp {
  std::unique_ptr<Stack> stack;
  double setup_s = 0.0;
};

/// Sets up three times and keeps the last stack; setup_s is the median.
SetUp timed_set_up(const WorkloadConfig& config, const JobSource& source,
                   const std::string& scratch) {
  std::vector<double> times;
  SetUp out;
  for (int rep = 0; rep < 3; ++rep) {
    out.stack.reset();
    const auto start = Clock::now();
    out.stack = set_up(config, source, scratch, rep);
    times.push_back(seconds_since(start));
  }
  out.setup_s = quantile(times, 0.5);
  return out;
}

struct CacheCounters {
  std::uint64_t lookups = 0;
  std::uint64_t fresh_solves = 0;
};

CacheCounters cache_counters(const svc::SchedulerService& service) {
  CacheCounters out;
  for (const auto& tenant : service.stats().tenants) {
    out.lookups += tenant.cache.hits + tenant.cache.misses;
    out.fresh_solves += tenant.cache.misses - tenant.cache.store_hits;
  }
  return out;
}

/// The bypass predictions, as exact counts over the timed phase: no DP
/// fill on warm_mix and rpc_open, no cache lookup (so no extraction) on
/// rpc_open.
void check_bypass_counts(const WorkloadConfig& config, const CacheCounters& before,
                         const CacheCounters& after, Report& report) {
  const std::uint64_t fills = after.fresh_solves - before.fresh_solves;
  const std::uint64_t lookups = after.lookups - before.lookups;
  std::cout << "count timed_phase.fresh_solves " << fills << "\n"
            << "count timed_phase.cache_lookups " << lookups << "\n";
  if (config.kind != WorkloadKind::kColdSolve && fills != 0) {
    report.fail("expected no DP fill in the timed phase, saw " + std::to_string(fills));
  }
  if (config.kind == WorkloadKind::kRpcOpen && lookups != 0) {
    report.fail("expected no cache lookup on rpc_open, saw " + std::to_string(lookups));
  }
}

int run_end_to_end(const Args& args, const WorkloadConfig& config, const JobSource& source) {
  Report report;
  SetUp setup = timed_set_up(config, source, args.scratch);
  Stack& stack = *setup.stack;

  std::vector<std::uint64_t> next_index(kTenants, 0);
  std::vector<JobRecord> records;
  LoadGen gen(stack.transport(), source, next_index, records);
  const CacheCounters before = cache_counters(stack.service());
  const double s = args.seconds;
  const auto steal_start = cpu_steal_jiffies();

  // Rounds interleave the closed loop, the three fixed rates and two SLO
  // ladder rungs, so a slow stretch of the host lands on every metric a
  // little instead of on one metric entirely. Throughput and p99s are
  // medians over rounds; p50s pool every round's samples.
  constexpr int kRounds = 8;
  const char* rate_names[] = {"rate_low", "rate_mid", "rate_high"};
  const double rates[] = {config.rate_low, config.rate_mid, config.rate_high};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> closed_sps, closed_p99, closed_latency;
  std::vector<std::vector<double>> rate_latency(3), rate_p99(3);
  SloLadder ladder(config);
  auto tally = [&](const PhaseResult& phase) {
    attempted += phase.submitted;
    failed += phase.failed;
  };
  for (int round = 0; round < kRounds; ++round) {
    const PhaseResult closed = gen.closed_loop(0.40 * s / kRounds);
    tally(closed);
    closed_sps.push_back(static_cast<double>(closed.scenarios) / closed.wall_s);
    closed_p99.push_back(windowed_p99(closed.latency_ms));
    closed_latency.insert(closed_latency.end(), closed.latency_ms.begin(),
                          closed.latency_ms.end());
    const std::uint64_t round_seed = args.seed * 7919 + static_cast<std::uint64_t>(round) * 4;
    for (int i = 0; i < 3; ++i) {
      const PhaseResult open =
          gen.open_loop(rates[i], 0.12 * s / kRounds, round_seed + static_cast<std::uint64_t>(i));
      tally(open);
      rate_p99[i].push_back(windowed_p99(open.latency_ms));
      rate_latency[i].insert(rate_latency[i].end(), open.latency_ms.begin(),
                             open.latency_ms.end());
    }
    for (int step = 0; step < 2 && !ladder.done(); ++step) {
      const PhaseResult rung =
          gen.open_loop(ladder.rate(), 0.12 * s / kRounds, round_seed + 3 + 4096 * step);
      tally(rung);
      ladder.record(rung);
    }
  }
  const CacheCounters after = cache_counters(stack.service());
  const double rss = peak_rss_mb();
  const double steal = steal_share_since(steal_start);
  setup.stack.reset();

  check_bypass_counts(config, before, after, report);
  const std::uint64_t wrong = verify(records, source, report);
  failed += wrong;

  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(std::max<std::uint64_t>(attempted, 1));
  report.add("scenarios_per_s", quantile(closed_sps, 0.5), "1/s");
  report.add("job_latency_p50_ms", quantile(closed_latency, 0.5), "ms");
  report.add("success_rate", 1.0 - error_rate, "fraction");
  report.add("setup_s", setup.setup_s, "s");
  report.add("peak_rss_mb", rss, "MB");
  report.info("slo_rate_jobs_per_s", ladder.slo_rate(), "1/s");
  report.info("job_latency_p99_ms", quantile(closed_p99, 0.5), "ms");
  for (int i = 0; i < 3; ++i) {
    report.info(std::string("job_latency_p50_ms.") + rate_names[i],
                quantile(rate_latency[i], 0.5), "ms");
  }
  for (int i = 0; i < 3; ++i) {
    report.info(std::string("job_latency_p99_ms.") + rate_names[i], quantile(rate_p99[i], 0.5),
                "ms");
  }
  report.info("error_rate", error_rate, "fraction");
  report.info("host_steal_share", steal, "fraction");
  std::cout << "info   latency samples: closed " << closed_latency.size() << ", rates "
            << rate_latency[0].size() << "/" << rate_latency[1].size() << "/"
            << rate_latency[2].size() << "\n";
  report.print_json(attempted, failed);
  return report.correct() ? 0 : 1;
}

double self_ns(const TraceTotals& totals, const std::string& name) {
  const auto it = totals.by_name.find(name);
  return it == totals.by_name.end() ? 0.0 : it->second.self_ns;
}

const SpanTotals& span_totals(const TraceTotals& totals, const std::string& name) {
  static const SpanTotals kEmpty;
  const auto it = totals.by_name.find(name);
  return it == totals.by_name.end() ? kEmpty : it->second;
}

int run_traced(const Args& args, const WorkloadConfig& config, const JobSource& source) {
  Report report;
  SetUp setup = timed_set_up(config, source, args.scratch);
  std::unique_ptr<Stack>& stack = setup.stack;
  const double s = args.seconds;

  std::vector<std::uint64_t> next_index(kTenants, 0);
  std::vector<JobRecord> records;
  std::size_t queue_depth_max = 0;
  LoadGen gen(stack->transport(), source, next_index, records, 0, [&] {
    queue_depth_max = std::max(queue_depth_max, stack->service().stats().queued_jobs);
  });

  // Untraced reference: closed loop (throughput), then an open loop at
  // rate_mid (queueing, generator health).
  const PhaseResult closed = gen.closed_loop(0.25 * s);
  const double untraced_sps = static_cast<double>(closed.scenarios) / closed.wall_s;
  const std::size_t closed_records = records.size();
  const PhaseResult open = gen.open_loop(config.rate_mid, 0.20 * s, args.seed * 7919 + 1);
  const std::uint64_t rejected_jobs = stack->service().stats().rejected_jobs;
  std::uint64_t attempted = closed.submitted + open.submitted;
  std::uint64_t failed = closed.failed + open.failed;

  // Replay order: the open-loop jobs first (their queue wait is paired with
  // their replayed execution time), then the closed-loop ones.
  std::vector<JobRef> refs;
  for (std::size_t i = closed_records; i < records.size(); ++i) refs.push_back(records[i].ref);
  for (std::size_t i = 0; i < closed_records; ++i) refs.push_back(records[i].ref);
  std::map<std::pair<std::uint32_t, std::uint64_t>, const JobRecord*> by_ref;
  for (const JobRecord& r : records) by_ref[{r.ref.stream, r.ref.index}] = &r;

  TraceTotals path;      // the trees the coverage check accounts for
  TraceTotals exec_tot;  // rpc only: the service's execution, replayed in-process
  double traced_sps = 0.0;
  std::map<std::pair<std::uint32_t, std::uint64_t>, ReplayOutcome> exec;
  solver::SolveCacheStats cache_stats;
  std::uint64_t mismatches = 0;
  auto check_replayed = [&](std::uint32_t stream, std::uint64_t index, nowsched::Ticks banked,
                            std::uint64_t digest) {
    const auto it = by_ref.find({stream, index});
    if (it == by_ref.end()) return;
    if (it->second->banked != banked || it->second->digest != digest) {
      ++mismatches;
    }
  };

  if (config.rpc) {
    std::vector<JobRecord> replayed;
    std::vector<std::uint64_t> unused(kTenants, 0);
    LoadGen traced(stack->transport(), source, unused, replayed);
    stack->rpc()->set_tracing(&path);
    const PhaseResult t2 = traced.closed_loop(0.30 * s, SIZE_MAX, &refs);
    stack->rpc()->set_tracing(nullptr);
    attempted += t2.submitted;
    failed += t2.failed;
    traced_sps = static_cast<double>(t2.scenarios) / t2.wall_s;
    for (const JobRecord& r : replayed) {
      check_replayed(r.ref.stream, r.ref.index, r.banked, r.digest);
    }
    stack.reset();
    ReplayRun side = replay(config, source, refs, args.scratch + "/replay-store", 0.20 * s, "exec");
    exec_tot = std::move(side.totals);
    exec = std::move(side.outcomes);
    cache_stats = side.cache;
  } else {
    stack.reset();
    ReplayRun run = replay(config, source, refs, args.scratch + "/replay-store", 0.45 * s, "job");
    path = std::move(run.totals);
    exec_tot = path;
    exec = std::move(run.outcomes);
    traced_sps = static_cast<double>(run.scenarios) / run.wall_s;
    cache_stats = run.cache;
  }
  for (const auto& [key, outcome] : exec) check_replayed(key.first, key.second, outcome.banked, outcome.digest);
  attempted += exec.size();
  if (mismatches > 0) {
    report.fail("traced replay differs from the untraced run on " + std::to_string(mismatches) +
                " jobs");
  }
  failed += mismatches;
  failed += verify(records, source, report);

  // Queue wait of the open-loop jobs: service latency minus the same job's
  // replayed execution time.
  std::vector<double> queue_wait;
  for (std::size_t i = closed_records; i < records.size(); ++i) {
    const auto it = exec.find({records[i].ref.stream, records[i].ref.index});
    if (it != exec.end()) {
      queue_wait.push_back(std::max(0.0, records[i].service_latency_ms - it->second.exec_ms));
    }
  }

  // Bypass predictions as exact counts.
  const SpanTotals& fill = span_totals(exec_tot, "solver.fill");
  const SpanTotals& extract = span_totals(exec_tot, "solver.extract");
  std::uint64_t rpc_spans = 0;
  for (const auto& [name, t] : path.by_name) {
    if (name.rfind("rpc.", 0) == 0) rpc_spans += t.spans;
  }
  if (config.kind != WorkloadKind::kColdSolve && fill.spans != 0) {
    report.fail("expected solver.fill.solves == 0, got " + std::to_string(fill.spans));
  }
  if (config.kind == WorkloadKind::kRpcOpen && extract.spans != 0) {
    report.fail("expected solver.extract.calls == 0, got " + std::to_string(extract.spans));
  }
  if (!config.rpc && rpc_spans != 0) {
    report.fail("expected no rpc.* spans in process, got " + std::to_string(rpc_spans));
  }

  // Self time by layer over the accounted trees.
  std::map<std::string, double> layer_self;
  for (const auto& [name, t] : path.by_name) layer_self[layer_of(name)] += t.self_ns;
  double accounted = 0.0;
  std::string dominant;
  for (const auto& [layer, ns] : layer_self) {
    if (layer == "job") continue;
    accounted += ns;
    if (dominant.empty() || ns > layer_self[dominant]) dominant = layer;
  }
  const double root_ns = std::max(path.root_ns, 1.0);
  for (const auto& [layer, ns] : layer_self) {
    std::cout << "layer " << layer << " self_share " << ns / root_ns << "\n";
  }
  std::cout << "dominant_layer " << dominant << " self_share " << layer_self[dominant] / root_ns
            << "\n";

  const double exec_root_ns = std::max(config.rpc ? span_totals(exec_tot, "exec").busy_ns : path.root_ns, 1.0);
  const SpanTotals& cache_hit = span_totals(exec_tot, "solver.cache.hit");
  const SpanTotals& cache_miss = span_totals(exec_tot, "solver.cache.miss");
  const SpanTotals& store_load = span_totals(exec_tot, "solver.store.load");
  const SpanTotals& store_store = span_totals(exec_tot, "solver.store.store");
  const SpanTotals& session = span_totals(exec_tot, "sim.session");
  const SpanTotals& plan = span_totals(exec_tot, "adversary.plan");
  const SpanTotals& encode = span_totals(path, "rpc.codec.encode");
  const SpanTotals& decode = span_totals(path, "rpc.codec.decode");
  const double rpc_jobs = std::max(1.0, static_cast<double>(path.roots));
  const SpanTotals& exec_root = span_totals(exec_tot, config.rpc ? "exec" : "job");

  report.add("solver.extract.calls", static_cast<double>(extract.spans), "count");
  report.add("solver.extract.periods", static_cast<double>(extract.count), "count");
  report.add("solver.extract.us_per_call_p50", extract.duration_ns.quantile(0.5) / 1e3, "us");
  report.add("solver.extract.self_share", self_ns(exec_tot, "solver.extract") / exec_root_ns, "fraction");
  report.add("sim.session.self_us_p50", session.self_sample_ns.quantile(0.5) / 1e3, "us");
  report.add("sim.session.periods", static_cast<double>(session.count), "count");
  report.add("adversary.calls", static_cast<double>(plan.spans), "count");
  report.add("adversary.self_us_total",
             (plan.self_ns + self_ns(exec_tot, "adversary.make")) / 1e3, "us");
  report.add("core.policy.episode_us_p50",
             span_totals(exec_tot, "core.policy").duration_ns.quantile(0.5) / 1e3, "us");
  report.add("solver.fill.solves", static_cast<double>(fill.spans), "count");
  report.add("solver.fill.cells", static_cast<double>(fill.count), "count");
  report.add("solver.fill.ns_per_cell",
             fill.count > 0 ? fill.busy_ns / static_cast<double>(fill.count) : 0.0, "ns");
  report.add("solver.fill.self_ms", fill.self_ns / 1e6, "ms");
  report.add("solver.cache.hits", static_cast<double>(cache_stats.hits), "count");
  report.add("solver.cache.misses", static_cast<double>(cache_stats.misses), "count");
  report.add("solver.cache.hit_rate", cache_stats.hit_rate(), "fraction");
  report.add("solver.cache.evictions", static_cast<double>(cache_stats.evictions), "count");
  report.add("solver.cache.resident_bytes", static_cast<double>(cache_stats.resident_bytes), "bytes");
  report.add("solver.cache.get_us_hit_p50", cache_hit.duration_ns.quantile(0.5) / 1e3, "us");
  report.add("solver.cache.get_ms_miss_p50", cache_miss.duration_ns.quantile(0.5) / 1e6, "ms");
  report.add("solver.store.hits", static_cast<double>(store_load.count), "count");
  report.add("solver.store.stores", static_cast<double>(store_store.count), "count");
  report.add("solver.store.load_us_p50", store_load.duration_ns.quantile(0.5) / 1e3, "us");
  report.add("solver.store.store_ms_p50", store_store.duration_ns.quantile(0.5) / 1e6, "ms");
  report.add("service.submit_us_p50", quantile(open.submit_us, 0.5), "us");
  report.add("service.exec_ms_p50", exec_root.duration_ns.quantile(0.5) / 1e6, "ms");
  report.add("service.queue_wait_ms_p99", quantile(queue_wait, 0.99), "ms");
  report.add("service.queue_depth_max", static_cast<double>(queue_depth_max), "count");
  report.add("service.rejected_jobs", static_cast<double>(rejected_jobs), "count");
  report.add("rpc.codec.encode_us_per_job", encode.busy_ns / rpc_jobs / 1e3 * (config.rpc ? 1 : 0), "us");
  report.add("rpc.codec.decode_us_per_job", decode.busy_ns / rpc_jobs / 1e3 * (config.rpc ? 1 : 0), "us");
  report.add("rpc.codec.bytes_per_job", static_cast<double>(encode.count) / rpc_jobs, "bytes");
  report.add("rpc.socket.roundtrip_us_p50", path.socket_roundtrip_ns.quantile(0.5) / 1e3, "us");
  report.add("loadgen.lag_ms_p99", quantile(open.lag_ms, 0.99), "ms");
  report.add("loadgen.backlog_max", static_cast<double>(open.backlog_max), "count");
  report.add("trace.overhead_frac", traced_sps > 0 ? untraced_sps / traced_sps - 1.0 : 0.0, "fraction");
  report.add("trace.coverage", accounted / root_ns, "fraction");
  if (accounted / root_ns < 0.9) {
    report.fail("layer self times cover only " + std::to_string(accounted / root_ns) +
                " of the traced job time");
  }

  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    for (const auto& line : path.kept) out << line << "\n";
    if (config.rpc) {
      for (const auto& line : exec_tot.kept) out << line << "\n";
    }
  }
  report.print_json(attempted, failed);
  return report.correct() ? 0 : 1;
}

/// Sweeps open-loop rates upward from rate_low in 15% steps (1 s each)
/// until the backlog grows; how the frozen rates were chosen.
int run_calibration(const Args& args, const WorkloadConfig& config, const JobSource& source) {
  SetUp setup = timed_set_up(config, source, args.scratch);
  std::vector<std::uint64_t> next_index(kTenants, 0);
  std::vector<JobRecord> records;
  LoadGen gen(setup.stack->transport(), source, next_index, records);
  const PhaseResult closed = gen.closed_loop(2.0);
  std::cout << "closed loop: " << static_cast<double>(closed.completed) / closed.wall_s
            << " jobs/s p50 " << quantile(closed.latency_ms, 0.5) << " ms p99 "
            << quantile(closed.latency_ms, 0.99) << " ms\n";
  int growing = 0;
  for (double rate = config.rate_low / 4; growing < 2; rate *= 1.15) {
    const PhaseResult r = gen.open_loop(rate, 2.0, args.seed + static_cast<std::uint64_t>(rate));
    growing += r.backlog_growing ? 1 : 0;
    std::cout << "rate " << rate << " jobs/s: p50 " << quantile(r.latency_ms, 0.5) << " ms p99 "
              << quantile(r.latency_ms, 0.99) << " ms windowed p99 " << windowed_p99(r.latency_ms)
              << " ms backlog_max " << r.backlog_max
              << " growing " << r.backlog_growing << " lag_p99 " << quantile(r.lag_ms, 0.99)
              << " ms\n";
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  try {
    const WorkloadConfig config = workload_config(args.workload);
    const JobSource source(config.kind, args.seed);
    fs::create_directories(args.scratch);
    std::cout << "stamp host_class=" << host_class() << " workload=" << config.name
              << " seed=" << args.seed << " rev=" << args.rev << " run_seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0) << "\n";
    if (args.calibrate) return run_calibration(args, config, source);
    return args.trace ? run_traced(args, config, source) : run_end_to_end(args, config, source);
  } catch (const std::exception& e) {
    std::cerr << "nowsched_perfbench: " << e.what() << "\n";
    return 1;
  }
}
