// Load generation: two transports (in-process SchedulerService, and the
// nowsched-rpc v1 stack over a Unix socket) behind one interface, and the
// closed- and open-loop generators that run on a single load thread.
//
// One load thread drives everything. Submission is synchronous (the ticket
// comes back at once); completions are waited for asynchronously: the
// in-process transport hears of them through the service's completion hook,
// the rpc transport parks one JobResult(wait=1) request per job on a second
// connection and reads the replies as they arrive. So an open loop never
// waits on a reply before its next send, and the rpc stack fits in four
// threads: the load thread, the server thread and two service workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/client.h"
#include "rpc/frame.h"
#include "service/scheduler_service.h"
#include "trace.h"
#include "util/socket.h"
#include "workloads.h"

namespace perfbench {

/// A job's identity: its stream and index in the JobSource.
struct JobRef {
  std::uint32_t stream = 0;
  std::uint64_t index = 0;
};

/// What the client learned about a finished job.
struct Completion {
  nowsched::service::JobId id = 0;
  Clock::time_point seen{};
  bool done = false;
  std::string error;
  nowsched::Ticks banked = 0;   ///< aggregate banked work
  std::uint64_t digest = 0;     ///< hash of every per-scenario field
  std::size_t scenarios = 0;
  double service_latency_ms = 0.0;  ///< the service's own submit->done time
};

/// Hash of every field of every per-scenario metric, in index order.
std::uint64_t metrics_digest(const std::vector<nowsched::sim::SessionMetrics>& per_scenario);

class Transport {
 public:
  virtual ~Transport() = default;
  /// Submits one job; returns its ticket, or 0 when admission refused it.
  virtual nowsched::service::JobId submit(const std::string& tenant,
                                          const std::vector<nowsched::sim::ScenarioSpec>& specs,
                                          std::uint64_t trace_job) = 0;
  /// Waits until `deadline` or until at least one completion arrived, and
  /// appends what arrived.
  virtual void wait(Clock::time_point deadline, std::vector<Completion>& out) = 0;
};

class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(nowsched::service::SchedulerService& service);
  ~InProcessTransport() override;
  InProcessTransport(const InProcessTransport&) = delete;
  InProcessTransport& operator=(const InProcessTransport&) = delete;

  nowsched::service::JobId submit(const std::string& tenant,
                                  const std::vector<nowsched::sim::ScenarioSpec>& specs,
                                  std::uint64_t trace_job) override;
  void wait(Clock::time_point deadline, std::vector<Completion>& out) override;

 private:
  nowsched::service::SchedulerService& service_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<nowsched::service::JobId> finished_;  // guarded by mu_
};

/// The traced rpc path records, per job: the client's submit call, the
/// parked fetch, the service's own latency inside it, and the four codec
/// steps on the job's payloads (the client's encode and decode, and the
/// server's decode and encode timed again on the same bytes).
class RpcTransport final : public Transport {
 public:
  explicit RpcTransport(const std::string& socket_path);

  nowsched::service::JobId submit(const std::string& tenant,
                                  const std::vector<nowsched::sim::ScenarioSpec>& specs,
                                  std::uint64_t trace_job) override;
  void wait(Clock::time_point deadline, std::vector<Completion>& out) override;

  /// Turns span recording on (into `totals`) or off (nullptr).
  void set_tracing(TraceTotals* totals) { totals_ = totals; }

 private:
  struct Pending {
    std::unique_ptr<JobTrace> trace;
    std::uint32_t root = kNoParent;
    std::uint32_t fetch = kNoParent;
    std::string submit_payload;
  };

  nowsched::rpc::Client client_;
  nowsched::util::Fd fetch_fd_;
  nowsched::rpc::FrameDecoder decoder_;
  std::deque<nowsched::service::JobId> parked_;  ///< fetches in reply order
  std::unordered_map<nowsched::service::JobId, Pending> pending_;
  TraceTotals* totals_ = nullptr;
  std::size_t kept_jobs_ = 0;
};

/// The numbers one load phase produces.
struct PhaseResult {
  double wall_s = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< done, verified later
  std::uint64_t failed = 0;      ///< refused, failed, or never finished
  std::uint64_t scenarios = 0;   ///< in completed jobs
  std::vector<double> latency_ms;
  std::vector<double> submit_us;
  std::vector<double> lag_ms;    ///< open loop: how late each send was
  std::size_t backlog_max = 0;
  bool backlog_growing = false;
};

/// A finished job as the verifier and the replay see it (kept small: one
/// per completed job stays in memory until the run ends).
struct JobRecord {
  JobRef ref;
  nowsched::Ticks banked = 0;
  std::uint64_t digest = 0;
  double service_latency_ms = 0.0;
};

class LoadGen {
 public:
  /// Client c submits the jobs of stream `stream_base + c`, numbered from
  /// next_index[c]. `sample` (optional) runs every ~10 ms on the load
  /// thread, for sampling service stats.
  LoadGen(Transport& transport, const JobSource& source, std::vector<std::uint64_t>& next_index,
          std::vector<JobRecord>& records, std::uint32_t stream_base = 0,
          std::function<void()> sample = nullptr);

  /// Submits one job and waits for it; true when it completed.
  bool run_one(const JobRef& ref, const std::vector<nowsched::sim::ScenarioSpec>& specs);

  /// One client per tenant, each with one job outstanding at a time, for
  /// `seconds` or until `max_jobs` were sent. With `replay` set, each
  /// client takes its tenant's next job from the list instead of a fresh
  /// index, and stops when it runs out.
  PhaseResult closed_loop(double seconds, std::size_t max_jobs = SIZE_MAX,
                          const std::vector<JobRef>* replay = nullptr);

  /// Poisson arrivals at `rate` jobs/s for `seconds`, alternating tenants;
  /// each latency is timed from the job's due time.
  PhaseResult open_loop(double rate, double seconds, std::uint64_t seed);

 private:
  struct InFlight {
    JobRef ref;
    Clock::time_point start;  ///< due time (open) or send time (closed)
    std::uint32_t client = 0;
  };

  nowsched::service::JobId send(const JobRef& ref,
                                const std::vector<nowsched::sim::ScenarioSpec>& specs,
                                PhaseResult& result);
  /// Waits until `deadline`, records what finished; returns finished clients.
  std::vector<std::uint32_t> collect(Clock::time_point deadline, PhaseResult& result);
  void drain(PhaseResult& result);

  Transport& transport_;
  const JobSource& source_;
  std::vector<std::uint64_t>& next_index_;
  std::vector<JobRecord>& records_;
  std::uint32_t stream_base_;
  std::function<void()> sample_;
  Clock::time_point next_sample_{};
  std::unordered_map<nowsched::service::JobId, InFlight> in_flight_;
  std::vector<Completion> arrived_;
};

}  // namespace perfbench
