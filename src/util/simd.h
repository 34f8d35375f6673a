// Run-time CPU feature probes. Benches stamp their records with a host class
// ("4t-avx2", "1t-neon", ...) built from these, so timing ratios are only
// compared between machines of the same class. The library itself carries
// no ISA-specific code paths.
#pragma once

namespace nowsched::util::simd {

/// True when the running CPU can execute AVX2 instructions. Callable from
/// baseline-ISA code (it is a CPUID probe, not an AVX2 instruction).
inline bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// True when the running CPU has AArch64 AdvSIMD (baseline on AArch64).
inline bool cpu_supports_neon() noexcept {
#if defined(__aarch64__)
  return true;
#else
  return false;
#endif
}

}  // namespace nowsched::util::simd
