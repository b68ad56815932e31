#pragma once

// Packed 64-bit-block bitset primitives, shared by the kernels' holder
// bitmaps and the engine's holder set. One definition of the
// shift/mask/countr_zero idiom; iterating
// blocks then set bits ascending visits members in ascending index order
// (the engines' node-visit order).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace dualcast {

class Bitset64 {
 public:
  /// Sizes for indices [0, n) and zeroes every bit.
  void resize(std::int64_t n) {
    words_.assign(static_cast<std::size_t>((n + 63) / 64), 0);
  }
  /// Zeroes every bit, keeping the size. O(blocks).
  void reset_all() { std::fill(words_.begin(), words_.end(), 0); }

  void set(std::int64_t v) {
    words_[static_cast<std::size_t>(v) / 64] |=
        std::uint64_t{1} << (static_cast<std::uint64_t>(v) % 64);
  }
  void clear(std::int64_t v) {
    words_[static_cast<std::size_t>(v) / 64] &=
        ~(std::uint64_t{1} << (static_cast<std::uint64_t>(v) % 64));
  }
  bool test(std::int64_t v) const {
    return (words_[static_cast<std::size_t>(v) / 64] >>
            (static_cast<std::uint64_t>(v) % 64)) &
           1u;
  }

  /// Word-parallel set/clear of the members `bits` of block b.
  void set_bits(int b, std::uint64_t bits) {
    words_[static_cast<std::size_t>(b)] |= bits;
  }
  void clear_bits(int b, std::uint64_t bits) {
    words_[static_cast<std::size_t>(b)] &= ~bits;
  }

  int blocks() const { return static_cast<int>(words_.size()); }
  std::uint64_t word(int b) const {
    return words_[static_cast<std::size_t>(b)];
  }
  /// Raw block storage, for word-parallel consumers (the resolver's
  /// AND+popcount scan).
  const std::uint64_t* data() const { return words_.data(); }

 private:
  std::vector<std::uint64_t> words_;
};

/// Visits the set bits of `word` ascending: fn(index, lane_bit).
template <typename Fn>
void for_each_bit(std::uint64_t word, int base, Fn&& fn) {
  while (word != 0) {
    const int bit = std::countr_zero(word);
    fn(base + bit, std::uint64_t{1} << bit);
    word &= word - 1;
  }
}

}  // namespace dualcast
