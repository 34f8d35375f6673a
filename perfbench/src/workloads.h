// The three benchmark workloads: their frozen settings and the jobs they
// submit. A job is a pure function of (workload, seed, stream, index), so
// the verifier and the traced replay rebuild any job from its coordinates
// instead of keeping specs in memory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/batch_runner.h"

namespace perfbench {

enum class WorkloadKind { kWarmMix, kColdSolve, kRpcOpen };

/// Frozen per-workload settings. The open-loop rates were picked at ~12%,
/// ~25% and ~40% of the rate each workload sustains on a quiet 4t-avx2
/// host and are absolute jobs/s from then on (perfbench/README.md says why
/// not higher). The SLO ladder's rungs are 5% apart
/// and its search starts near the capacity measured there; the SLO rate is
/// the highest rung whose p99 meets slo_p99_ms with no growing backlog.
struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kWarmMix;
  std::string name;
  bool rpc = false;               ///< jobs travel over nowsched-rpc v1
  double rate_low = 0.0;          ///< jobs/s
  double rate_mid = 0.0;          ///< jobs/s
  double rate_high = 0.0;         ///< jobs/s
  double slo_p99_ms = 0.0;        ///< latency limit of the SLO ladder
  double ladder_start = 0.0;      ///< jobs/s; first rung, ~85% of capacity
  std::size_t tenant_quota_bytes = 0;
  bool store = false;             ///< mount a read-write MappedTableStore
};

/// Throws std::invalid_argument on an unknown name.
WorkloadConfig workload_config(const std::string& name);

/// Streams 0 and 1 are the two tenants' measured jobs; streams 2 and 3 are
/// their set-up (warm-up) jobs, which the measured streams never revisit.
inline constexpr std::uint32_t kTenants = 2;
inline constexpr std::uint32_t kWarmStream = 2;

std::string tenant_name(std::uint32_t stream);

class JobSource {
 public:
  JobSource(WorkloadKind kind, std::uint64_t seed);

  /// Job `index` of `stream`.
  std::vector<nowsched::sim::ScenarioSpec> job(std::uint32_t stream,
                                               std::uint64_t index) const;

  /// warm_mix only: one dp-optimal scenario per contract class, the job
  /// that fills a tenant cache during set-up. Empty for other workloads.
  std::vector<nowsched::sim::ScenarioSpec> cache_warm_job(std::uint32_t stream) const;

 private:
  struct Contract {
    nowsched::Ticks c = 0;
    nowsched::Ticks lifespan = 0;
    int p = 0;
  };

  std::vector<nowsched::sim::ScenarioSpec> warm_mix_job(std::uint32_t stream,
                                                        std::uint64_t index) const;
  std::vector<nowsched::sim::ScenarioSpec> cold_solve_job(std::uint32_t stream,
                                                          std::uint64_t index) const;
  std::vector<nowsched::sim::ScenarioSpec> rpc_open_job(std::uint32_t stream,
                                                        std::uint64_t index) const;

  bool cold_is_fresh(std::uint32_t stream, std::uint64_t index, std::size_t slot) const;
  Contract cold_fresh_contract(std::uint32_t stream, std::uint64_t index,
                               std::size_t slot) const;

  WorkloadKind kind_;
  std::uint64_t seed_;
  std::vector<Contract> classes_;  ///< warm_mix contract classes
};

}  // namespace perfbench
