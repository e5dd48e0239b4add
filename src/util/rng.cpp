#include "util/rng.hpp"

#include <cmath>
#include <numbers>
#include <numeric>

#include "util/error.hpp"

namespace mlio::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_id) {
  // Mix the stream id through splitmix so nearby ids give unrelated states.
  std::uint64_t sm = seed ^ 0xa0761d6478bd642full;
  const std::uint64_t a = splitmix64(sm);
  sm ^= stream_id * 0xe7037ed1a0b428dbull + 0x8ebc6af09c88c6e3ull;
  const std::uint64_t b = splitmix64(sm);
  return Rng(a ^ rotl(b, 23));
}

double Rng::uniform() {
  // 53-bit mantissa construction; always in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  MLIO_ASSERT(lo <= hi);
  const std::uint64_t span = hi - lo;
  if (span == ~0ull) return next();
  // Debiased modulo (Lemire-style rejection kept simple: span+1 <= 2^64-1).
  const std::uint64_t bound = span + 1;
  const std::uint64_t limit = (~0ull) - ((~0ull) % bound + 1) % bound;
  std::uint64_t x = next();
  while (x > limit) x = next();
  return lo + x % bound;
}

double Rng::uniform_real(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::log_uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  MLIO_ASSERT(lo >= 1 && lo <= hi);
  if (lo == hi) return lo;
  const double llo = std::log(static_cast<double>(lo));
  const double lhi = std::log(static_cast<double>(hi) + 1.0);
  const double v = std::exp(uniform_real(llo, lhi));
  auto out = static_cast<std::uint64_t>(v);
  if (out < lo) out = lo;
  if (out > hi) out = hi;
  return out;
}

double Rng::normal() {
  // Box–Muller; u1 is kept away from zero to avoid log(0).
  const double u1 = (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(mu + sigma * normal()); }

bool Rng::chance(double p) { return uniform() < p; }

AliasTable::AliasTable(std::span<const double> weights) {
  const std::size_t n = weights.size();
  if (n == 0) throw ConfigError("AliasTable: empty weights");
  double sum = 0;
  for (double w : weights) {
    if (w < 0 || !std::isfinite(w)) throw ConfigError("AliasTable: invalid weight");
    sum += w;
  }
  if (sum <= 0) throw ConfigError("AliasTable: all weights zero");

  norm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) norm_[i] = weights[i] / sum;

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = norm_[i] * static_cast<double>(n);

  std::vector<std::size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) (scaled[i] < 1.0 ? small : large).push_back(i);

  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::size_t i : large) prob_[i] = 1.0;
  for (std::size_t i : small) prob_[i] = 1.0;
}

std::size_t AliasTable::sample(Rng& rng) const {
  const std::size_t n = prob_.size();
  std::size_t col = static_cast<std::size_t>(rng.uniform_u64(0, n - 1));
  const bool keep = rng.uniform() < prob_[col];
  std::size_t out = keep ? col : alias_[col];
  // Zero-weight entries can only be reached as their own column with
  // prob_ == 0, in which case the alias is taken — but guard anyway.
  if (norm_[out] == 0.0) {
    // Deterministic fallback: walk to the next positive entry.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (out + i) % n;
      if (norm_[j] > 0.0) return j;
    }
  }
  return out;
}

}  // namespace mlio::util
