#include "loadgen.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <system_error>

#include <poll.h>

#include "rpc/protocol.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

namespace svc = nowsched::service;
namespace rpc = nowsched::rpc;
using nowsched::util::hash_combine;

std::uint64_t metrics_digest(const std::vector<nowsched::sim::SessionMetrics>& per_scenario) {
  std::uint64_t h = per_scenario.size();
  for (const auto& m : per_scenario) {
    for (const std::int64_t v :
         {m.banked_work, m.task_work, m.comm_overhead, m.lost_work, m.salvaged_work,
          m.fragmentation, m.lifespan_used, static_cast<std::int64_t>(m.interrupts),
          static_cast<std::int64_t>(m.episodes), static_cast<std::int64_t>(m.periods_completed),
          static_cast<std::int64_t>(m.periods_killed),
          static_cast<std::int64_t>(m.tasks_completed)}) {
      h = hash_combine(h, static_cast<std::uint64_t>(v));
    }
  }
  return h;
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

// The hook runs on worker threads; the owner shuts the service down (joining
// the workers) before destroying this transport.
InProcessTransport::InProcessTransport(svc::SchedulerService& service) : service_(service) {
  service_.set_completion_hook([this](svc::JobId id) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished_.push_back(id);
    }
    cv_.notify_one();
  });
}

InProcessTransport::~InProcessTransport() { service_.set_completion_hook(nullptr); }

svc::JobId InProcessTransport::submit(const std::string& tenant,
                                      const std::vector<nowsched::sim::ScenarioSpec>& specs,
                                      std::uint64_t /*trace_job*/) {
  const svc::TicketSubmission sub = service_.submit_job(tenant, specs);
  return sub.accepted() ? sub.ticket.id : 0;
}

void InProcessTransport::wait(Clock::time_point deadline, std::vector<Completion>& out) {
  std::vector<svc::JobId> ids;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [this] { return !finished_.empty(); });
    ids.swap(finished_);
  }
  for (const svc::JobId id : ids) {
    svc::FetchOutcome outcome = service_.fetch_result(id, /*wait=*/true);
    Completion c;
    c.id = id;
    c.done = outcome.done();
    c.error = outcome.error;
    c.banked = outcome.result.batch.aggregate.banked_work;
    c.digest = metrics_digest(outcome.result.batch.per_scenario);
    c.scenarios = outcome.result.batch.per_scenario.size();
    c.service_latency_ms = outcome.result.latency_ms;
    c.seen = Clock::now();
    out.push_back(std::move(c));
  }
}

// ---------------------------------------------------------------------------
// RPC transport
// ---------------------------------------------------------------------------

RpcTransport::RpcTransport(const std::string& socket_path)
    : client_(socket_path), fetch_fd_(nowsched::util::unix_connect(socket_path)) {}

svc::JobId RpcTransport::submit(const std::string& tenant,
                                const std::vector<nowsched::sim::ScenarioSpec>& specs,
                                std::uint64_t trace_job) {
  Pending pending;
  if (totals_ != nullptr) {
    pending.trace = std::make_unique<JobTrace>(trace_job);
    pending.root = pending.trace->open("job", kNoParent);
    const std::uint32_t encode = pending.trace->open("rpc.codec.encode", pending.root);
    pending.submit_payload = rpc::encode_submit_batch(rpc::SubmitBatchRequest{tenant, specs});
    pending.trace->close(encode, static_cast<std::int64_t>(pending.submit_payload.size()));
  }
  const std::uint32_t call =
      pending.trace ? pending.trace->open("rpc.client.submit", pending.root) : kNoParent;
  const rpc::SubmitReply reply = client_.submit_batch(tenant, specs);
  if (pending.trace) pending.trace->close(call);
  if (reply.status != svc::SubmitStatus::kAccepted) return 0;

  if (pending.trace) pending.fetch = pending.trace->open("rpc.fetch", pending.root);
  const std::string frame =
      rpc::encode_frame(rpc::wire_code(rpc::MsgType::kJobResult),
                        rpc::encode_job_result(rpc::JobResultRequest{reply.job_id, true}));
  nowsched::util::write_all(fetch_fd_.get(), frame.data(), frame.size());
  parked_.push_back(reply.job_id);
  if (pending.trace) pending_.emplace(reply.job_id, std::move(pending));
  return reply.job_id;
}

void RpcTransport::wait(Clock::time_point deadline, std::vector<Completion>& out) {
  const std::size_t before = out.size();
  while (true) {
    rpc::Frame frame;
    while (true) {
      const rpc::DecodeStatus status = decoder_.next(frame);
      if (status == rpc::DecodeStatus::kError) {
        throw std::runtime_error("rpc fetch stream corrupt: " + decoder_.error());
      }
      if (status == rpc::DecodeStatus::kNeedMore) break;
      if (frame.type == rpc::wire_code(rpc::MsgType::kError)) {
        throw rpc::RpcError("server error: " + rpc::decode_error(frame.payload).message);
      }
      if (frame.type != rpc::wire_code(rpc::MsgType::kJobResultReply) || parked_.empty()) {
        throw rpc::RpcError("unexpected frame on the fetch connection");
      }
      const std::int64_t decode_start = now_ns();
      const rpc::JobResultReply reply = rpc::decode_job_result_reply(frame.payload);
      const std::int64_t decode_end = now_ns();
      const svc::JobId id = parked_.front();
      parked_.pop_front();

      Completion c;
      c.id = id;
      c.done = reply.state == svc::JobState::kDone;
      c.error = reply.error;
      c.banked = reply.aggregate.banked_work;
      c.digest = metrics_digest(reply.per_scenario);
      c.scenarios = reply.per_scenario.size();
      c.service_latency_ms = reply.latency_ms;
      c.seen = Clock::now();

      const auto it = pending_.find(id);
      if (it != pending_.end()) {
        Pending& p = it->second;
        JobTrace& trace = *p.trace;
        trace.close(p.fetch);
        const std::int64_t fetch_start = trace.span(p.fetch).start_ns;
        const auto service_ns = static_cast<std::int64_t>(c.service_latency_ms * 1e6);
        trace.add("service", p.fetch, std::max(fetch_start, decode_start - service_ns),
                  decode_start);
        trace.add("rpc.codec.decode", p.fetch, decode_start, decode_end,
                  static_cast<std::int64_t>(frame.payload.size()));
        // The server's side of the codec, timed again on the same bytes.
        const std::int64_t server_decode_start = now_ns();
        (void)rpc::decode_submit_batch(p.submit_payload);
        const std::int64_t server_decode_end = now_ns();
        trace.add("rpc.codec.decode", p.root, server_decode_start, server_decode_end);
        const std::string reply_payload = rpc::encode_job_result_reply(reply);
        const std::int64_t server_encode_end = now_ns();
        trace.add("rpc.codec.encode", p.root, server_decode_end, server_encode_end,
                  static_cast<std::int64_t>(reply_payload.size()));
        trace.close(p.root);

        // Socket round trip = client-seen time minus the service's latency
        // minus the four codec steps. The root also holds the three re-timed
        // codec steps, which the client-seen time does not.
        const Span& root = trace.span(p.root);
        const Span& client_encode = trace.span(p.root + 1);
        const std::int64_t encode_ns = client_encode.end_ns - client_encode.start_ns;
        const std::int64_t server_ns = server_encode_end - server_decode_start;
        const std::int64_t codec_ns = encode_ns + server_ns + (decode_end - decode_start);
        const std::int64_t client_seen_ns = root.end_ns - root.start_ns - encode_ns - server_ns;
        totals_->socket_roundtrip_ns.add(
            static_cast<double>(client_seen_ns - service_ns - codec_ns));
        trace.fold_into(*totals_, kept_jobs_++ < 16);
        pending_.erase(it);
      }
      out.push_back(std::move(c));
    }
    if (out.size() > before) return;

    const auto wait_ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(deadline - Clock::now()).count());
    timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                     static_cast<long>(wait_ns % 1000000000)};
    pollfd pfd{fetch_fd_.get(), POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "ppoll");
    }
    if (ready == 0) return;
    char buf[65536];
    std::size_t n = 0;
    const auto io = nowsched::util::read_some(fetch_fd_.get(), buf, sizeof buf, n);
    if (io == nowsched::util::IoStatus::kEof) {
      throw rpc::RpcError("server closed the fetch connection");
    }
    if (io == nowsched::util::IoStatus::kOk) decoder_.append(std::string_view(buf, n));
  }
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

LoadGen::LoadGen(Transport& transport, const JobSource& source,
                 std::vector<std::uint64_t>& next_index, std::vector<JobRecord>& records,
                 std::uint32_t stream_base, std::function<void()> sample)
    : transport_(transport),
      source_(source),
      next_index_(next_index),
      records_(records),
      stream_base_(stream_base),
      sample_(std::move(sample)) {}

svc::JobId LoadGen::send(const JobRef& ref, const std::vector<nowsched::sim::ScenarioSpec>& specs,
                         PhaseResult& result) {
  const auto t0 = Clock::now();
  const svc::JobId id = transport_.submit(tenant_name(ref.stream), specs,
                                          (std::uint64_t{ref.stream} << 48) | ref.index);
  result.submit_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  ++result.submitted;
  if (id == 0) ++result.failed;
  return id;
}

std::vector<std::uint32_t> LoadGen::collect(Clock::time_point deadline, PhaseResult& result) {
  std::vector<std::uint32_t> clients;
  arrived_.clear();
  transport_.wait(deadline, arrived_);
  for (const Completion& c : arrived_) {
    const auto it = in_flight_.find(c.id);
    if (it == in_flight_.end()) throw std::logic_error("completion for an unknown job");
    const InFlight job = it->second;
    in_flight_.erase(it);
    clients.push_back(job.client);
    if (!c.done) {
      std::cerr << "job " << job.ref.stream << "/" << job.ref.index << " failed: " << c.error
                << "\n";
      ++result.failed;
      continue;
    }
    ++result.completed;
    result.scenarios += c.scenarios;
    const double latency = std::chrono::duration<double, std::milli>(c.seen - job.start).count();
    result.latency_ms.push_back(latency);
    records_.push_back(JobRecord{job.ref, c.banked, c.digest, c.service_latency_ms});
  }
  if (sample_ && Clock::now() >= next_sample_) {
    sample_();
    next_sample_ = Clock::now() + std::chrono::milliseconds(10);
  }
  return clients;
}

void LoadGen::drain(PhaseResult& result) {
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (!in_flight_.empty()) {
    if (Clock::now() >= deadline) {
      throw std::runtime_error(std::to_string(in_flight_.size()) +
                               " jobs did not finish within 60 s");
    }
    collect(deadline, result);
  }
}

bool LoadGen::run_one(const JobRef& ref, const std::vector<nowsched::sim::ScenarioSpec>& specs) {
  PhaseResult result;
  const svc::JobId id = send(ref, specs, result);
  if (id == 0) return false;
  in_flight_.emplace(id, InFlight{ref, Clock::now(), 0});
  drain(result);
  return result.completed == 1;
}

PhaseResult LoadGen::closed_loop(double seconds, std::size_t max_jobs,
                                 const std::vector<JobRef>* replay) {
  PhaseResult result;
  std::vector<std::vector<JobRef>> queues(kTenants);
  if (replay != nullptr) {
    for (const JobRef& ref : *replay) queues[ref.stream % kTenants].push_back(ref);
  }
  std::vector<std::size_t> cursor(kTenants, 0);
  auto issue = [&](std::uint32_t client) {
    while (true) {
      JobRef ref;
      if (replay != nullptr) {
        if (cursor[client] >= queues[client].size()) return;
        ref = queues[client][cursor[client]++];
      } else {
        ref = JobRef{stream_base_ + client, next_index_[client]++};
      }
      if (result.submitted >= max_jobs) return;
      const auto specs = source_.job(ref.stream, ref.index);
      const auto start = Clock::now();
      const svc::JobId id = send(ref, specs, result);
      if (id != 0) {
        in_flight_.emplace(id, InFlight{ref, start, client});
        return;
      }
    }
  };

  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  for (std::uint32_t client = 0; client < kTenants; ++client) issue(client);
  while (!in_flight_.empty() && Clock::now() < end) {
    for (const std::uint32_t client : collect(end, result)) {
      if (Clock::now() < end) issue(client);
    }
  }
  drain(result);
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

PhaseResult LoadGen::open_loop(double rate, double seconds, std::uint64_t seed) {
  PhaseResult result;
  nowsched::util::Rng rng(seed);
  auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - rng.uniform01()) / rate));
  };
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto due = start + gap();
  std::uint64_t sent = 0;
  // Outstanding jobs at each send, for the backlog-growth test.
  std::vector<std::pair<double, std::size_t>> outstanding;
  while (true) {
    const auto now = Clock::now();
    if (now >= end) break;
    if (now < due) {
      collect(std::min(due, end), result);
      continue;
    }
    const auto client = static_cast<std::uint32_t>(sent++ % kTenants);
    const JobRef ref{stream_base_ + client, next_index_[client]++};
    const svc::JobId id = send(ref, source_.job(ref.stream, ref.index), result);
    result.lag_ms.push_back(std::chrono::duration<double, std::milli>(now - due).count());
    if (id != 0) in_flight_.emplace(id, InFlight{ref, due, client});
    outstanding.emplace_back(std::chrono::duration<double>(now - start).count(),
                             in_flight_.size());
    result.backlog_max = std::max(result.backlog_max, in_flight_.size());
    due += gap();
  }
  // A backlog grows when the last quarter of the window holds clearly more
  // outstanding work than the first (a stable queue holds about the same).
  // Medians, so a short host stall does not read as growth.
  std::vector<double> first, last;
  for (const auto& [t, n] : outstanding) {
    if (t < seconds / 4) first.push_back(static_cast<double>(n));
    if (t >= seconds * 3 / 4) last.push_back(static_cast<double>(n));
  }
  if (!first.empty() && !last.empty()) {
    result.backlog_growing = nowsched::util::Summary(std::move(last)).median() >
                             2.0 * nowsched::util::Summary(std::move(first)).median() + 8.0;
  }
  drain(result);
  result.wall_s = seconds;
  return result;
}

}  // namespace perfbench
