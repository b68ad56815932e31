#include "sim/inspector.hpp"

#include "sim/kernel.hpp"
#include "util/assert.hpp"

namespace dualcast {

double StateInspector::transmit_probability(int v, int round) const {
  DC_EXPECTS(v >= 0 && v < n_);
  const double p = kernel_->transmit_probability(v, round);
  DC_ENSURES(p >= 0.0 && p <= 1.0);
  return p;
}

double StateInspector::expected_transmitters(int round) const {
  // Kernels with SoA actor lists produce the sum in O(actors); the value
  // is bit-identical to the scan below (see AlgorithmKernel contract).
  const double batched = kernel_->expected_transmitters(round);
  if (batched >= 0.0) return batched;
  double sum = 0.0;
  for (int v = 0; v < n_; ++v) sum += transmit_probability(v, round);
  return sum;
}

bool StateInspector::has_message(int v) const {
  DC_EXPECTS(v >= 0 && v < n_);
  return kernel_->has_message(v);
}

}  // namespace dualcast
