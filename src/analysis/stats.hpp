#pragma once

// Summary statistics over trial measurements.

#include <vector>

namespace dualcast {

/// q-quantile (0 <= q <= 1) by linear interpolation of the sorted sample.
double quantile(std::vector<double> values, double q);

}  // namespace dualcast
