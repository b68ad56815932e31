#pragma once

// StateInspector: the engine-provided oracle through which adaptive
// adversaries observe node state.
//
// §3 defines the online adaptive adversary's knowledge as "the state of the
// nodes at the beginning of this round ... not the random bits the nodes
// will use in round r", and its key derived quantity is E[|X| | S] — the
// expected number of transmitters given that state. The inspector exposes
// exactly that: per-node transmit probabilities and message possession,
// read from the execution's algorithm kernel strictly before the round's
// coins are drawn. For the scalar adapter the kernel forwards both to its
// processes, which must then be InspectableProcess instances.

namespace dualcast {

class AlgorithmKernel;

class StateInspector {
 public:
  StateInspector(const AlgorithmKernel* kernel, int n)
      : kernel_(kernel), n_(n) {}

  int n() const { return n_; }

  /// P[node v transmits in `round` | its state now]. For the scalar
  /// adapter, requires the process to be an InspectableProcess (all
  /// algorithms in this library are); throws ContractViolation otherwise,
  /// so an adversary cannot silently miscompute.
  double transmit_probability(int v, int round) const;

  /// Sum of transmit probabilities over all nodes: E[|X| | S].
  double expected_transmitters(int round) const;

  /// Whether node v currently holds the broadcast message.
  bool has_message(int v) const;

 private:
  const AlgorithmKernel* kernel_;
  int n_;
};

}  // namespace dualcast
