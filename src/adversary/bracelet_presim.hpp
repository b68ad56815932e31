#pragma once

// The oblivious pre-simulation adversary of Theorem 4.3.
//
// On the §4.2 bracelet network, a node's behavior during the first
// k = √(n/2) rounds is a function of its own band's randomness only —
// information from outside a band needs k hops (or an unreliable cross edge,
// which this adversary itself controls and floods only when collisions are
// assured). Lemma 4.4 packages this as *isolated broadcast functions*, and
// Lemma 4.5 shows their aggregate output concentrates: evaluating them on
// fresh random bits predicts the dense/sparse profile of the real execution.
//
// Concretely, before round 0 this adversary privately simulates each band in
// isolation (same algorithm, same roles, fresh coins from its own stream;
// on the algorithm's batch kernel when ExecutionSetup::kernel offers one,
// else on the scalar adapter, with the same result either way), counts how
// many band *heads* transmit in each round r < k, and commits:
//   round dense  (count > threshold)  -> activate all cross edges
//   round sparse (count <= threshold) -> activate none
// After its k-round prediction window it falls back to a configurable static
// choice. The resulting schedule is a function of (network, algorithm,
// problem, private coins) only — a legitimate oblivious adversary — yet it
// delays local broadcast across the clasp for Ω(√n / log n) rounds.

#include <vector>

#include "graph/generators.hpp"
#include "sim/link_process.hpp"

namespace dualcast {

struct BraceletPresimConfig {
  /// Dense iff (#heads predicted to transmit) > threshold_factor * log2(n).
  double threshold_factor = 1.0;
  /// Edge choice after the prediction window: true -> none (release the
  /// network), false -> all.
  bool fallback_none = true;
};

class BraceletPresimOblivious final : public LinkProcess {
 public:
  /// `bracelet` must outlive the adversary and must be the same network the
  /// execution runs on.
  BraceletPresimOblivious(const BraceletNet& bracelet,
                          BraceletPresimConfig config = {});

  AdversaryClass adversary_class() const override {
    return AdversaryClass::oblivious;
  }
  void on_execution_start(const ExecutionSetup& setup, Rng& rng) override;
  void choose_oblivious(int round, Rng& rng, EdgeSet& out) override;

  /// The committed dense labels for the prediction window (diagnostics).
  const std::vector<char>& dense_schedule() const { return dense_; }
  /// Predicted head-transmitter counts per round (diagnostics).
  const std::vector<int>& predicted_counts() const { return counts_; }

 private:
  const BraceletNet* bracelet_;
  BraceletPresimConfig config_;
  std::vector<char> dense_;
  std::vector<int> counts_;
};

}  // namespace dualcast
