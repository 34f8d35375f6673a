#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

using nowsched::Params;
using nowsched::Ticks;
using nowsched::sim::OwnerKind;
using nowsched::sim::PolicyKind;
using nowsched::sim::ScenarioSpec;
using nowsched::util::hash_combine;
using nowsched::util::Rng;

WorkloadConfig workload_config(const std::string& name) {
  WorkloadConfig config;
  config.name = name;
  if (name == "warm_mix") {
    config.kind = WorkloadKind::kWarmMix;
    config.rate_low = 800.0;
    config.rate_mid = 1700.0;
    config.rate_high = 2700.0;
    config.slo_p99_ms = 15.0;
    config.ladder_start = 5800.0;
    config.tenant_quota_bytes = std::size_t{64} << 20;
  } else if (name == "cold_solve") {
    config.kind = WorkloadKind::kColdSolve;
    config.rate_low = 45.0;
    config.rate_mid = 90.0;
    config.rate_high = 140.0;
    config.slo_p99_ms = 100.0;
    config.ladder_start = 260.0;
    config.tenant_quota_bytes = std::size_t{1} << 20;
    config.store = true;
  } else if (name == "rpc_open") {
    config.kind = WorkloadKind::kRpcOpen;
    config.rpc = true;
    config.rate_low = 1500.0;
    config.rate_mid = 3000.0;
    config.rate_high = 5000.0;
    config.slo_p99_ms = 5.0;
    config.ladder_start = 9800.0;
    config.tenant_quota_bytes = std::size_t{16} << 20;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (warm_mix, cold_solve or rpc_open)");
  }
  return config;
}

std::string tenant_name(std::uint32_t stream) {
  return "tenant-" + std::to_string(stream % kTenants);
}

namespace {

constexpr std::uint64_t kFreshTag = 0xF4E54;
constexpr std::uint64_t kCoinTag = 0xC014;

double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

double positive(double x) { return std::max(1.0, x); }

// Owner mix shared by every workload: Poisson, bursty, Markov-modulated and
// inhomogeneous-Poisson (Lewis-Shedler thinning) owners, parameters scaled
// to the lifespan the same way sim::ScenarioGenerator scales them.
void draw_owner(Rng& rng, ScenarioSpec& spec) {
  const double u = static_cast<double>(spec.lifespan);
  const double c = static_cast<double>(spec.params.c);
  switch (rng.next_below(4)) {
    case 0:
      spec.owner = OwnerKind::kPoisson;
      spec.owner_a = positive(rng.uniform(u / 16.0, u));
      spec.owner_b = 0.0;
      break;
    case 1:
      spec.owner = OwnerKind::kBursty;
      spec.owner_a = positive(rng.uniform(u / 8.0, u / 2.0));
      spec.owner_b = rng.uniform(0.8, 2.0);
      spec.owner_c = rng.uniform(1.0, 6.0);
      spec.owner_d = positive(rng.uniform(1.0, 4.0 * c));
      break;
    case 2:
      spec.owner = OwnerKind::kMarkovModulated;
      spec.owner_a = positive(rng.uniform(u / 4.0, u));
      spec.owner_b = positive(rng.uniform(c, c + u / 16.0));
      spec.owner_c = positive(rng.uniform(u / 8.0, u / 2.0));
      spec.owner_d = positive(rng.uniform(u / 16.0, u / 4.0));
      break;
    default:
      spec.owner = OwnerKind::kInhomogeneous;
      spec.owner_a = positive(rng.uniform(u / 8.0, u / 2.0));
      spec.owner_b = rng.uniform01();
      spec.owner_c = positive(rng.uniform(u / 4.0, u));
      spec.owner_d = rng.uniform(0.0, 6.283185307179586);
      break;
  }
}

PolicyKind draw_guideline(Rng& rng) {
  static constexpr PolicyKind kGuidelines[] = {PolicyKind::kEqualized,
                                               PolicyKind::kAdaptivePaper,
                                               PolicyKind::kNonAdaptiveRestart};
  return kGuidelines[rng.next_below(3)];
}

Rng job_rng(std::uint64_t seed, std::uint32_t stream, std::uint64_t index) {
  return Rng(hash_combine(hash_combine(seed, stream), index));
}

}  // namespace

JobSource::JobSource(WorkloadKind kind, std::uint64_t seed) : kind_(kind), seed_(seed) {
  if (kind_ != WorkloadKind::kWarmMix) return;
  // Fixed classes (the seed picks the job mix, not the contracts): class i
  // takes c and U from the middle of its own eighth of the log range, U's
  // eighths permuted against c's, and p cycles 2..5. Seed-drawn classes made
  // throughput differ by 30% from one seed to the next.
  for (int i = 0; i < 8; ++i) {
    Contract contract;
    contract.c = static_cast<Ticks>(16.0 * std::pow(4.0, (i + 0.5) / 8.0));
    contract.lifespan = static_cast<Ticks>(4096.0 * std::pow(4.0, ((3 * i) % 8 + 0.5) / 8.0));
    contract.p = 2 + i % 4;
    classes_.push_back(contract);
  }
}

std::vector<ScenarioSpec> JobSource::job(std::uint32_t stream, std::uint64_t index) const {
  switch (kind_) {
    case WorkloadKind::kWarmMix: return warm_mix_job(stream, index);
    case WorkloadKind::kColdSolve: return cold_solve_job(stream, index);
    case WorkloadKind::kRpcOpen: return rpc_open_job(stream, index);
  }
  throw std::logic_error("unknown workload kind");
}

std::vector<ScenarioSpec> JobSource::cache_warm_job(std::uint32_t stream) const {
  std::vector<ScenarioSpec> specs;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    ScenarioSpec spec;
    spec.policy = PolicyKind::kDpOptimal;
    spec.params = Params{classes_[i].c};
    spec.lifespan = classes_[i].lifespan;
    spec.max_interrupts = classes_[i].p;
    spec.seed = hash_combine(hash_combine(seed_, stream), 0xCA7E + i);
    spec.owner = OwnerKind::kPoisson;
    spec.owner_a = static_cast<double>(spec.lifespan) / 4.0;
    specs.push_back(spec);
  }
  return specs;
}

// 16 scenarios over 8 contract classes; ~80% dp-optimal (warm-cache
// extraction), the rest closed-form guideline policies.
std::vector<ScenarioSpec> JobSource::warm_mix_job(std::uint32_t stream,
                                                  std::uint64_t index) const {
  Rng rng = job_rng(seed_, stream, index);
  std::vector<ScenarioSpec> specs(16);
  for (ScenarioSpec& spec : specs) {
    const Contract& contract = classes_[rng.next_below(classes_.size())];
    spec.policy = rng.uniform01() < 0.8 ? PolicyKind::kDpOptimal : draw_guideline(rng);
    spec.params = Params{contract.c};
    spec.lifespan = contract.lifespan;
    spec.max_interrupts = contract.p;
    spec.seed = rng.next();
    draw_owner(rng, spec);
  }
  return specs;
}

bool JobSource::cold_is_fresh(std::uint32_t stream, std::uint64_t index,
                              std::size_t slot) const {
  const std::uint64_t h =
      hash_combine(hash_combine(hash_combine(hash_combine(seed_, kCoinTag), stream), index), slot);
  return (h & 1u) == 0;
}

JobSource::Contract JobSource::cold_fresh_contract(std::uint32_t stream, std::uint64_t index,
                                                   std::size_t slot) const {
  Rng rng(hash_combine(
      hash_combine(hash_combine(hash_combine(seed_, kFreshTag), stream), index), slot));
  Contract contract;
  contract.c = static_cast<Ticks>(log_uniform(rng, 16.0, 512.0));
  const double min_u = std::max(2048.0, 4.0 * static_cast<double>(contract.c));
  contract.lifespan = static_cast<Ticks>(log_uniform(rng, min_u, 65536.0));
  contract.p = 2 + static_cast<int>(rng.next_below(5));
  return contract;
}

// 4 heterogeneous dp-optimal scenarios: each either a fresh contract (a
// fill and a spill) or a revisit of a contract this tenant solved at least
// 8 jobs earlier, long since evicted from the tight RAM quota (a mapped
// load from the store).
std::vector<ScenarioSpec> JobSource::cold_solve_job(std::uint32_t stream,
                                                    std::uint64_t index) const {
  constexpr std::size_t kScenarios = 4;
  constexpr std::uint64_t kMinAge = 8;
  constexpr std::uint64_t kMaxAge = 64;
  Rng rng = job_rng(seed_, stream, index);
  std::vector<ScenarioSpec> specs(kScenarios);
  for (std::size_t slot = 0; slot < kScenarios; ++slot) {
    Contract contract = cold_fresh_contract(stream, index, slot);
    if (!cold_is_fresh(stream, index, slot) && index > kMinAge) {
      const std::uint64_t span = std::min(index - kMinAge, kMaxAge);
      const std::uint64_t old = index - kMinAge - rng.next_below(span);
      const std::size_t first = rng.next_below(kScenarios);
      for (std::size_t j = 0; j < kScenarios; ++j) {
        const std::size_t old_slot = (first + j) % kScenarios;
        if (cold_is_fresh(stream, old, old_slot)) {
          contract = cold_fresh_contract(stream, old, old_slot);
          break;
        }
      }
    }
    ScenarioSpec& spec = specs[slot];
    spec.policy = PolicyKind::kDpOptimal;
    spec.params = Params{contract.c};
    spec.lifespan = contract.lifespan;
    spec.max_interrupts = contract.p;
    spec.seed = rng.next();
    draw_owner(rng, spec);
  }
  return specs;
}

// 1-4 closed-form scenarios: the session work is microseconds, so the wire,
// admission and queueing are what the job costs.
std::vector<ScenarioSpec> JobSource::rpc_open_job(std::uint32_t stream,
                                                  std::uint64_t index) const {
  Rng rng = job_rng(seed_, stream, index);
  std::vector<ScenarioSpec> specs(1 + rng.next_below(4));
  for (ScenarioSpec& spec : specs) {
    spec.policy = draw_guideline(rng);
    spec.params = Params{static_cast<Ticks>(log_uniform(rng, 16.0, 64.0))};
    spec.lifespan = static_cast<Ticks>(log_uniform(rng, 1024.0, 8192.0));
    spec.max_interrupts = 1 + static_cast<int>(rng.next_below(4));
    spec.seed = rng.next();
    draw_owner(rng, spec);
  }
  return specs;
}

}  // namespace perfbench
