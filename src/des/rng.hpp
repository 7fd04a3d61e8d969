// Deterministic random number generation.
//
// xoshiro256** core with splitmix64 seeding. Each simulation component forks
// its own independent stream from the replication's root seed, so adding a
// component never perturbs the draws seen by another (a common source of
// accidental nondeterminism in network simulators).
#pragma once

#include <cstdint>
#include <string_view>

namespace rrnet::des {

/// splitmix64 step; used for seeding and for hashing stream tags.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Derive an independent stream seed from (base, index) by full splitmix64
/// mixing. Replication i of a run MUST NOT use `base + i`: runs at adjacent
/// base seeds would then share entire replication streams (seed 1 reps 4..9
/// == seed 5 reps 0..5), silently correlating sweep variants.
[[nodiscard]] std::uint64_t derive_stream_seed(std::uint64_t base,
                                               std::uint64_t index) noexcept;

/// Derive the seed of a counter-based per-link stream keyed on
/// (base, tx, rx, draw_index). Pure function of its inputs: at any point
/// in the event sequence, the same key reconstructs the same stream, so a
/// stochastic propagation draw depends only on the link and the frame
/// (see phy::Channel).
[[nodiscard]] std::uint64_t link_stream_seed(std::uint64_t base,
                                             std::uint32_t tx,
                                             std::uint32_t rx,
                                             std::uint64_t draw_index) noexcept;

/// xoshiro256** engine (public domain algorithm by Blackman & Vigna).
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) noexcept;

  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept;

 private:
  std::uint64_t s_[4];
};

/// Convenience distribution wrapper around Xoshiro256.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : engine_(seed), seed_(seed) {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept;
  /// Uniform double in [lo, hi). Requires hi >= lo.
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires hi >= lo.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;
  /// Exponential with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) noexcept;
  /// Standard normal via Box-Muller (no caching: keeps forks independent).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) noexcept;
  [[nodiscard]] bool bernoulli(double p) noexcept;
  /// Rayleigh-distributed sample with the given scale sigma.
  [[nodiscard]] double rayleigh(double sigma) noexcept;

  /// Derive an independent child stream keyed by (this seed, tag, index).
  [[nodiscard]] Rng fork(std::string_view tag, std::uint64_t index = 0) const noexcept;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::uint64_t next_u64() noexcept { return engine_(); }

 private:
  Xoshiro256 engine_;
  std::uint64_t seed_;
};

/// Stateless-per-draw RNG for one (tx, rx, draw_index) link event: a
/// short-lived Rng seeded by link_stream_seed. Stochastic propagation
/// models consume a handful of uniforms per received-power draw; giving
/// each (link, draw) its own stream means the value depends only on the
/// key, never on how many draws other links made before it.
class LinkRng {
 public:
  LinkRng(std::uint64_t base, std::uint32_t tx, std::uint32_t rx,
          std::uint64_t draw_index) noexcept
      : rng_(link_stream_seed(base, tx, rx, draw_index)) {}

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  Rng rng_;
};

}  // namespace rrnet::des
