#include "rpc/protocol.h"

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/scenario_gen.h"
#include "util/parse.h"

namespace nowsched::rpc {

namespace {

std::string format_double(double x) {
  // max_digits10 == 17 round-trips IEEE doubles exactly through text.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("nowsched-rpc payload: " + what);
}

/// Free-text fields (reason/error/message) occupy the rest of one line; a
/// newline smuggled in via an exception message would corrupt the record,
/// so encoders flatten them.
std::string one_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

std::uint64_t parse_u64(const std::string& value, const std::string& line) {
  const auto x = util::parse_uint64(value);
  if (!x) bad("malformed integer in '" + line + "'");
  return *x;
}

std::int64_t parse_i64(const std::string& value, const std::string& line) {
  const auto x = util::parse_int64(value);
  if (!x) bad("malformed integer in '" + line + "'");
  return *x;
}

double parse_dbl(const std::string& value, const std::string& line) {
  const auto x = util::parse_double(value);
  if (!x) bad("malformed number in '" + line + "'");
  return *x;
}

/// Sequential strict reader over a payload's lines: every expect_* names
/// exactly the next line, so any deviation (missing key, reordered field,
/// trailing junk) is a typed error with the offending line in the message.
class LineReader {
 public:
  explicit LineReader(const std::string& text) : is_(text) {}

  void expect_header(const char* header) {
    std::string line;
    if (!std::getline(is_, line) || line != header) {
      bad(std::string("missing '") + header + "' header");
    }
  }

  /// Next line must be `key=<value>`; returns the value (may be empty, may
  /// contain anything but a newline).
  std::string expect_value(const char* key) {
    std::string line;
    if (!std::getline(is_, line)) {
      bad(std::string("truncated record (expected '") + key + "=')");
    }
    const std::string prefix = std::string(key) + "=";
    if (line.compare(0, prefix.size(), prefix) != 0) {
      bad(std::string("expected '") + key + "=', got '" + line + "'");
    }
    return line.substr(prefix.size());
  }

  std::uint64_t expect_u64(const char* key) {
    const std::string value = expect_value(key);
    return parse_u64(value, std::string(key) + "=" + value);
  }

  double expect_double(const char* key) {
    const std::string value = expect_value(key);
    return parse_dbl(value, std::string(key) + "=" + value);
  }

  void expect_blank() {
    std::string line;
    if (!std::getline(is_, line) || !line.empty()) {
      bad("expected blank separator line, got '" + line + "'");
    }
  }

  /// Lines up to (not including) the next blank line or EOF, newline-joined
  /// with a trailing newline — the shape scenario_from_replay expects.
  std::string block() {
    std::string out;
    std::string line;
    while (std::getline(is_, line)) {
      if (line.empty()) break;
      out += line;
      out += '\n';
    }
    return out;
  }

  void expect_eof() {
    std::string line;
    if (std::getline(is_, line)) bad("trailing data after record: '" + line + "'");
  }

  bool peek_line(std::string& line) { return static_cast<bool>(std::getline(is_, line)); }

 private:
  std::istringstream is_;
};

/// An enum wire code: an int64 that must also fit an int before narrowing,
/// or "status=4294967297" would decode as status 1.
int parse_wire_code(const std::string& value, const std::string& line) {
  const auto code = parse_i64(value, line);
  if (code < std::numeric_limits<int>::min() || code > std::numeric_limits<int>::max()) {
    bad("wire code out of range in '" + line + "'");
  }
  return static_cast<int>(code);
}

service::SubmitStatus status_from_value(const std::string& value,
                                        const std::string& line) {
  const auto status = service::submit_status_from_wire(parse_wire_code(value, line));
  if (!status) bad("unknown submit-status wire code in '" + line + "'");
  return *status;
}

service::JobState state_from_value(const std::string& value, const std::string& line) {
  const auto state = service::job_state_from_wire(parse_wire_code(value, line));
  if (!state) bad("unknown job-state wire code in '" + line + "'");
  return *state;
}

// SessionMetrics crosses as 12 space-separated decimal integers in
// declaration order — all-integer, so bit-exactness is trivial.
std::string metrics_to_line(const sim::SessionMetrics& m) {
  std::ostringstream os;
  os << m.banked_work << ' ' << m.task_work << ' ' << m.comm_overhead << ' '
     << m.lost_work << ' ' << m.salvaged_work << ' ' << m.fragmentation << ' '
     << m.lifespan_used << ' ' << m.interrupts << ' ' << m.episodes << ' '
     << m.periods_completed << ' ' << m.periods_killed << ' '
     << m.tasks_completed;
  return os.str();
}

sim::SessionMetrics metrics_from_line(const std::string& value,
                                      const std::string& line) {
  std::istringstream is(value);
  std::string field;
  std::int64_t v[12];
  for (int i = 0; i < 12; ++i) {
    if (!(is >> field)) bad("metrics line has fewer than 12 fields: '" + line + "'");
    v[i] = parse_i64(field, line);
  }
  if (is >> field) bad("metrics line has more than 12 fields: '" + line + "'");
  sim::SessionMetrics m;
  m.banked_work = v[0];
  m.task_work = v[1];
  m.comm_overhead = v[2];
  m.lost_work = v[3];
  m.salvaged_work = v[4];
  m.fragmentation = v[5];
  m.lifespan_used = v[6];
  m.interrupts = static_cast<int>(v[7]);
  m.episodes = static_cast<std::size_t>(v[8]);
  m.periods_completed = static_cast<std::size_t>(v[9]);
  m.periods_killed = static_cast<std::size_t>(v[10]);
  m.tasks_completed = static_cast<std::size_t>(v[11]);
  return m;
}

void write_cache_stats(std::ostringstream& os, const solver::SolveCacheStats& c) {
  os << "cache_hits=" << c.hits << "\n";
  os << "cache_misses=" << c.misses << "\n";
  os << "cache_store_hits=" << c.store_hits << "\n";
  os << "cache_spills=" << c.spills << "\n";
  os << "cache_evictions=" << c.evictions << "\n";
  os << "cache_entries=" << c.entries << "\n";
  os << "cache_resident_bytes=" << c.resident_bytes << "\n";
}

solver::SolveCacheStats read_cache_stats(LineReader& r) {
  solver::SolveCacheStats c;
  c.hits = r.expect_u64("cache_hits");
  c.misses = r.expect_u64("cache_misses");
  c.store_hits = r.expect_u64("cache_store_hits");
  c.spills = r.expect_u64("cache_spills");
  c.evictions = r.expect_u64("cache_evictions");
  c.entries = static_cast<std::size_t>(r.expect_u64("cache_entries"));
  c.resident_bytes = static_cast<std::size_t>(r.expect_u64("cache_resident_bytes"));
  return c;
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kSubmitBatch: return "submit-batch";
    case MsgType::kSubmitReply: return "submit-reply";
    case MsgType::kJobStatus: return "job-status";
    case MsgType::kJobStatusReply: return "job-status-reply";
    case MsgType::kJobResult: return "job-result";
    case MsgType::kJobResultReply: return "job-result-reply";
    case MsgType::kStats: return "stats";
    case MsgType::kStatsReply: return "stats-reply";
    case MsgType::kCancelJob: return "cancel-job";
    case MsgType::kCancelReply: return "cancel-reply";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kShutdownReply: return "shutdown-reply";
    case MsgType::kError: return "error";
  }
  return "?";
}

std::optional<MsgType> msg_type_from_wire(std::uint8_t code) noexcept {
  if (code >= 1 && code <= 13) return static_cast<MsgType>(code);
  return std::nullopt;
}

// --------------------------------------------------------------------------
// SubmitBatch
// --------------------------------------------------------------------------

std::string encode_submit_batch(const SubmitBatchRequest& req) {
  // The tenant id is a line-oriented field but, unlike reason/error/message,
  // it is an identifier (quota bucket key), so flattening would silently
  // change which tenant gets billed — reject instead.
  if (req.tenant.find('\n') != std::string::npos ||
      req.tenant.find('\r') != std::string::npos) {
    bad("tenant id must not contain newline characters");
  }
  std::ostringstream os;
  os << "nowsched-submit v1\n";
  os << "tenant=" << req.tenant << "\n";
  os << "scenarios=" << req.specs.size() << "\n";
  for (const sim::ScenarioSpec& spec : req.specs) {
    os << "\n" << sim::to_replay_string(spec);
  }
  return os.str();
}

SubmitBatchRequest decode_submit_batch(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-submit v1");
  SubmitBatchRequest req;
  req.tenant = r.expect_value("tenant");
  if (req.tenant.empty()) bad("empty tenant id");
  if (req.tenant.find('\r') != std::string::npos) {
    bad("tenant id must not contain newline characters");
  }
  const std::uint64_t count = r.expect_u64("scenarios");
  // Bound the count before reserving: a valid scenario record is >130 bytes
  // of key=value lines, so any count beyond payload/64 is structurally bogus
  // and would otherwise drive reserve() into std::length_error/bad_alloc —
  // neither is the typed error the server's catch handles (remote DoS).
  if (count > payload.size() / 64) {
    bad("scenario count " + std::to_string(count) +
        " is impossible for a " + std::to_string(payload.size()) +
        "-byte payload");
  }
  req.specs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    // block() consumes the blank line that terminates it, so only the first
    // record is still preceded by an unconsumed separator.
    if (i == 0) r.expect_blank();
    const std::string record = r.block();
    if (record.empty()) bad("missing scenario record " + std::to_string(i));
    req.specs.push_back(sim::scenario_from_replay(record));
  }
  r.expect_eof();
  return req;
}

std::string encode_submit_reply(const SubmitReply& reply) {
  std::ostringstream os;
  os << "nowsched-submit-reply v1\n";
  os << "status=" << service::wire_code(reply.status) << "\n";
  os << "reason=" << one_line(reply.reason) << "\n";
  os << "job_id=" << reply.job_id << "\n";
  return os.str();
}

SubmitReply decode_submit_reply(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-submit-reply v1");
  SubmitReply reply;
  const std::string status = r.expect_value("status");
  reply.status = status_from_value(status, "status=" + status);
  reply.reason = r.expect_value("reason");
  reply.job_id = r.expect_u64("job_id");
  r.expect_eof();
  return reply;
}

// --------------------------------------------------------------------------
// JobStatus
// --------------------------------------------------------------------------

std::string encode_job_status(const JobStatusRequest& req) {
  std::ostringstream os;
  os << "nowsched-job-status v1\n";
  os << "job_id=" << req.job_id << "\n";
  return os.str();
}

JobStatusRequest decode_job_status(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-job-status v1");
  JobStatusRequest req;
  req.job_id = r.expect_u64("job_id");
  r.expect_eof();
  return req;
}

std::string encode_job_status_reply(const JobStatusReply& reply) {
  std::ostringstream os;
  os << "nowsched-job-status-reply v1\n";
  os << "state=" << service::wire_code(reply.state) << "\n";
  return os.str();
}

JobStatusReply decode_job_status_reply(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-job-status-reply v1");
  JobStatusReply reply;
  const std::string state = r.expect_value("state");
  reply.state = state_from_value(state, "state=" + state);
  r.expect_eof();
  return reply;
}

// --------------------------------------------------------------------------
// JobResult
// --------------------------------------------------------------------------

std::string encode_job_result(const JobResultRequest& req) {
  std::ostringstream os;
  os << "nowsched-job-result v1\n";
  os << "job_id=" << req.job_id << "\n";
  os << "wait=" << (req.wait ? 1 : 0) << "\n";
  return os.str();
}

JobResultRequest decode_job_result(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-job-result v1");
  JobResultRequest req;
  req.job_id = r.expect_u64("job_id");
  const std::uint64_t wait = r.expect_u64("wait");
  if (wait > 1) bad("wait must be 0 or 1, got " + std::to_string(wait));
  req.wait = wait == 1;
  r.expect_eof();
  return req;
}

std::string encode_job_result_reply(const JobResultReply& reply) {
  std::ostringstream os;
  os << "nowsched-job-result-reply v1\n";
  os << "state=" << service::wire_code(reply.state) << "\n";
  switch (reply.state) {
    case service::JobState::kFailed:
    case service::JobState::kCancelled:
      os << "error=" << one_line(reply.error) << "\n";
      return os.str();
    case service::JobState::kDone:
      break;
    default:
      return os.str();  // pending / unknown: the state line says it all
  }
  os << "tenant=" << reply.tenant << "\n";
  os << "job_id=" << reply.job_id << "\n";
  os << "completion_index=" << reply.completion_index << "\n";
  os << "latency_ms=" << format_double(reply.latency_ms) << "\n";
  write_cache_stats(os, reply.cache);
  os << "scenarios=" << reply.per_scenario.size() << "\n";
  for (const sim::SessionMetrics& m : reply.per_scenario) {
    os << "metrics=" << metrics_to_line(m) << "\n";
  }
  os << "aggregate=" << metrics_to_line(reply.aggregate) << "\n";
  return os.str();
}

JobResultReply decode_job_result_reply(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-job-result-reply v1");
  JobResultReply reply;
  const std::string state = r.expect_value("state");
  reply.state = state_from_value(state, "state=" + state);
  switch (reply.state) {
    case service::JobState::kFailed:
    case service::JobState::kCancelled:
      reply.error = r.expect_value("error");
      r.expect_eof();
      return reply;
    case service::JobState::kDone:
      break;
    default:
      r.expect_eof();
      return reply;
  }
  reply.tenant = r.expect_value("tenant");
  reply.job_id = r.expect_u64("job_id");
  reply.completion_index = r.expect_u64("completion_index");
  reply.latency_ms = r.expect_double("latency_ms");
  reply.cache = read_cache_stats(r);
  const std::uint64_t count = r.expect_u64("scenarios");
  // Same bound discipline as decode_submit_batch: each metrics line is at
  // least 32 bytes ("metrics=" + 12 integers + 11 separators + newline), so
  // a larger count cannot be genuine and must not reach reserve().
  if (count > payload.size() / 32) {
    bad("metrics count " + std::to_string(count) +
        " is impossible for a " + std::to_string(payload.size()) +
        "-byte payload");
  }
  reply.per_scenario.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string value = r.expect_value("metrics");
    reply.per_scenario.push_back(metrics_from_line(value, "metrics=" + value));
  }
  const std::string aggregate = r.expect_value("aggregate");
  reply.aggregate = metrics_from_line(aggregate, "aggregate=" + aggregate);
  r.expect_eof();
  return reply;
}

// --------------------------------------------------------------------------
// Stats
// --------------------------------------------------------------------------

std::string encode_stats_request() { return std::string(); }

void decode_stats_request(const std::string& payload) {
  if (!payload.empty()) bad("stats request carries no payload");
}

// --------------------------------------------------------------------------
// CancelJob
// --------------------------------------------------------------------------

std::string encode_cancel(const CancelRequest& req) {
  std::ostringstream os;
  os << "nowsched-cancel v1\n";
  os << "job_id=" << req.job_id << "\n";
  return os.str();
}

CancelRequest decode_cancel(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-cancel v1");
  CancelRequest req;
  req.job_id = r.expect_u64("job_id");
  r.expect_eof();
  return req;
}

std::string encode_cancel_reply(const CancelReply& reply) {
  std::ostringstream os;
  os << "nowsched-cancel-reply v1\n";
  os << "cancelled=" << (reply.cancelled ? 1 : 0) << "\n";
  return os.str();
}

CancelReply decode_cancel_reply(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-cancel-reply v1");
  CancelReply reply;
  const std::uint64_t cancelled = r.expect_u64("cancelled");
  if (cancelled > 1) bad("cancelled must be 0 or 1, got " + std::to_string(cancelled));
  reply.cancelled = cancelled == 1;
  r.expect_eof();
  return reply;
}

// --------------------------------------------------------------------------
// Shutdown
// --------------------------------------------------------------------------

std::string encode_shutdown(const ShutdownRequest& req) {
  std::ostringstream os;
  os << "nowsched-shutdown v1\n";
  os << "mode="
     << (req.mode == service::SchedulerService::StopMode::kDrain ? "drain" : "cancel") << "\n";
  return os.str();
}

ShutdownRequest decode_shutdown(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-shutdown v1");
  ShutdownRequest req;
  const std::string mode = r.expect_value("mode");
  if (mode == "drain") {
    req.mode = service::SchedulerService::StopMode::kDrain;
  } else if (mode == "cancel") {
    req.mode = service::SchedulerService::StopMode::kCancelQueued;
  } else {
    bad("unknown shutdown mode '" + mode + "' (expected drain|cancel)");
  }
  r.expect_eof();
  return req;
}

std::string encode_shutdown_reply() { return "nowsched-shutdown-reply v1\n"; }

void decode_shutdown_reply(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-shutdown-reply v1");
  r.expect_eof();
}

// --------------------------------------------------------------------------
// Error
// --------------------------------------------------------------------------

std::string encode_error(const ErrorReply& reply) {
  std::ostringstream os;
  os << "nowsched-error v1\n";
  os << "message=" << one_line(reply.message) << "\n";
  return os.str();
}

ErrorReply decode_error(const std::string& payload) {
  LineReader r(payload);
  r.expect_header("nowsched-error v1");
  ErrorReply reply;
  reply.message = r.expect_value("message");
  r.expect_eof();
  return reply;
}

}  // namespace nowsched::rpc
