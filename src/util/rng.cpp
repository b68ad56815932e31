#include "util/rng.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace dualcast {

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  DC_EXPECTS(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling for exact uniformity.
  const std::uint64_t limit = std::uint64_t(-1) - (std::uint64_t(-1) % span);
  std::uint64_t draw;
  do {
    draw = next_u64();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

Rng Rng::fork(std::string_view tag) {
  // FNV-1a over the tag, then defer to the numeric fork.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return fork(h);
}

}  // namespace dualcast
