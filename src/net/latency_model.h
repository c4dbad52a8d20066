// Network latency model for the simulated cluster fabric.
//
// The paper's evaluation runs on a real datacenter network; the simulated
// RPC layer delays each hop by a lognormal sample (base + jitter) so fan-out
// amplification and tail-latency effects — the phenomena the 3-level
// architecture is designed around — appear at laptop scale. The delay is
// wire time: Node posts the message to the callee's pool with that due time
// (ThreadPool::SubmitAfter), so no worker is held while it is in flight.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/hash.h"
#include "common/rng.h"

namespace jdvs {

struct LatencyModel {
  // Fixed per-hop cost; 0 with zero sigma disables delays entirely.
  std::int64_t base_micros = 0;
  // Median of the lognormal jitter component (0 => no jitter).
  std::int64_t jitter_median_micros = 0;
  // Lognormal shape parameter of the jitter.
  double sigma = 0.5;

  bool IsZero() const noexcept {
    return base_micros <= 0 && jitter_median_micros <= 0;
  }

  // One-hop delay sample.
  std::int64_t SampleMicros(Rng& rng) const;
};

// Counter-based stream of one node's hop delays: the n-th draw is a pure
// function of (seed, stream, n), so a node's delay sequence depends only on
// its own seed, not on which thread samples it. `stream` separates a node's
// request hops from its reply hops. Thread-safe.
class HopStream {
 public:
  HopStream(std::uint64_t seed, std::uint64_t stream)
      : key_(Mix64(HashCombine(seed, stream))) {}

  std::int64_t Next(const LatencyModel& model) {
    if (model.IsZero()) return 0;
    Rng rng(HashCombine(
        key_, Mix64(counter_.fetch_add(1, std::memory_order_relaxed))));
    return model.SampleMicros(rng);
  }

 private:
  const std::uint64_t key_;
  std::atomic<std::uint64_t> counter_{0};
};

}  // namespace jdvs
