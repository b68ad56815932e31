#pragma once

// Round-robin broadcast — the deterministic fallback the paper uses as the
// offline-adaptive upper bound (footnote 4: "local broadcast can always be
// solved in O(n) rounds using round robin broadcasting on the n node ids";
// for global broadcast, relaying gives O(n·D), which is O(n) on the
// constant-diameter lower-bound networks).
//
// Node v transmits in rounds r with r ≡ v (mod n), iff it holds a message.
// Because at most one node transmits per round, no adversary of any class
// can cause a collision: every transmission reaches the transmitter's whole
// reliable (G) neighborhood. This is the algorithm that *meets* the adaptive
// lower bounds and certifies they are about contention, not connectivity.

namespace dualcast {

struct RoundRobinConfig {
  /// Global broadcast: nodes that receive the message start relaying it.
  /// Local broadcast sets this false — only original B nodes transmit.
  bool relay = true;
};

}  // namespace dualcast
