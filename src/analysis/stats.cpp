#include "analysis/stats.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace dualcast {

double quantile(std::vector<double> values, double q) {
  DC_EXPECTS(!values.empty());
  DC_EXPECTS(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

}  // namespace dualcast
