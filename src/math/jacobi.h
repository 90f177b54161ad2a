// Jacobi symbol (a | n) for fixed-width integers, by the binary algorithm.
//
// The symbol needs no multiplication: only subtraction, comparison and
// shifts, so for an odd prime n it costs a small fraction of the Euler
// criterion a^((n-1)/2) mod n it replaces. Each step keeps both operands
// odd, subtracts the smaller from the larger, and strips the resulting
// trailing zeros. A shift by an odd count flips the sign when n = 3, 5
// (mod 8), since (2 | n) = -1 exactly then; swapping the operands flips it
// (quadratic reciprocity) when both are 3 (mod 4).
//
// Variable time: the number of steps and the branches taken depend on a
// and n. Use it only on public values, such as wire bytes under validation.
#ifndef SRC_MATH_JACOBI_H_
#define SRC_MATH_JACOBI_H_

#include <utility>

#include "src/math/bigint.h"

namespace vdp {

// Shifts v right by its trailing-zero count; returns that count. v != 0.
template <size_t L>
size_t StripTrailingZeros(BigInt<L>& v) {
  size_t words = 0;
  while (v.limb[words] == 0) {
    ++words;
  }
  const unsigned bits = static_cast<unsigned>(__builtin_ctzll(v.limb[words]));
  for (size_t i = 0; i + words < L; ++i) {
    uint64_t lo = v.limb[i + words] >> bits;
    uint64_t hi = (bits != 0 && i + words + 1 < L) ? v.limb[i + words + 1] << (64 - bits) : 0;
    v.limb[i] = lo | hi;
  }
  for (size_t i = L - words; i < L; ++i) {
    v.limb[i] = 0;
  }
  return words * 64 + bits;
}

// Returns (a | n) in {-1, 0, 1}. Requires n odd; a may be any value
// (including a >= n).
template <size_t L>
int Jacobi(BigInt<L> a, BigInt<L> n) {
  int sign = 1;
  while (!a.IsZero()) {
    size_t shift = StripTrailingZeros(a);
    const uint64_t n_mod8 = n.limb[0] & 7;
    if ((shift & 1) != 0 && (n_mod8 == 3 || n_mod8 == 5)) {
      sign = -sign;
    }
    // Both odd now. Keep a >= n; swapping applies reciprocity.
    if (a < n) {
      std::swap(a, n);
      if ((a.limb[0] & 3) == 3 && (n.limb[0] & 3) == 3) {
        sign = -sign;
      }
    }
    // (a - n | n) = (a | n), and a - n is even (or zero when a == n).
    BigInt<L>::SubInto(a, a, n);
  }
  // gcd(a, n) is the final n; the symbol is 0 unless it is 1.
  return n == BigInt<L>::One() ? sign : 0;
}

}  // namespace vdp

#endif  // SRC_MATH_JACOBI_H_
