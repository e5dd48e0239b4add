// Deterministic random-number generation.
//
// Reproducibility across platforms and compilers is a hard requirement (the
// benches print tables that EXPERIMENTS.md records), so nothing here uses
// <random>'s distribution objects — their output is implementation-defined.
// The generator is xoshiro256** seeded via splitmix64; all distributions are
// implemented explicitly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mlio::util {

/// splitmix64 step — used for seeding and cheap hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna).  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Derive an independent stream: deterministic function of (seed, stream).
  /// Used to give every job / file its own generator so generation order and
  /// thread count never change the output.
  static Rng stream(std::uint64_t seed, std::uint64_t stream_id);

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi] (inclusive); requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);
  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);
  /// Log-uniform integer in [lo, hi]; requires 1 <= lo <= hi.  Used to place
  /// a size inside a decade-wide Darshan bin.
  std::uint64_t log_uniform_u64(std::uint64_t lo, std::uint64_t hi);
  /// Standard normal via Box–Muller (one value per call; no caching so the
  /// stream is position-independent).
  double normal();
  /// Log-normal with the given log-space parameters.
  double lognormal(double mu, double sigma);
  /// Bernoulli.
  bool chance(double p);


 private:
  std::uint64_t s_[4];
};

/// O(1) sampling from a fixed discrete distribution (Walker alias method).
/// Weights need not be normalized; zero-weight entries are never returned.
class AliasTable {
 public:
  explicit AliasTable(std::span<const double> weights);

  std::size_t sample(Rng& rng) const;
  std::size_t size() const { return prob_.size(); }
  /// Normalized probability of entry i (for tests).
  double probability(std::size_t i) const { return norm_.at(i); }

 private:
  std::vector<double> prob_;
  std::vector<std::size_t> alias_;
  std::vector<double> norm_;
};

}  // namespace mlio::util
