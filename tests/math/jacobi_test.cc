#include "src/math/jacobi.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace vdp {
namespace {

// Legendre symbol for a small odd prime by Euler's criterion.
int EulerLegendre(uint64_t a, uint64_t p) {
  a %= p;
  if (a == 0) {
    return 0;
  }
  uint64_t r = 1;
  uint64_t base = a;
  for (uint64_t e = (p - 1) / 2; e != 0; e >>= 1) {
    if ((e & 1) != 0) {
      r = r * base % p;
    }
    base = base * base % p;
  }
  return r == 1 ? 1 : -1;
}

// Jacobi symbol by definition: the product of Legendre symbols over the
// prime factorisation of n (trial division; n is small).
int JacobiByFactoring(uint64_t a, uint64_t n) {
  int result = 1;
  for (uint64_t p = 3; n > 1; p += 2) {
    while (n % p == 0) {
      result *= EulerLegendre(a, p);
      n /= p;
    }
  }
  return result;
}

TEST(JacobiTest, MatchesDefinitionOnSmallOperands) {
  for (uint64_t n = 1; n < 400; n += 2) {
    for (uint64_t a = 0; a < 2 * n + 5; ++a) {
      ASSERT_EQ(Jacobi(BigInt<1>::FromU64(a), BigInt<1>::FromU64(n)),
                JacobiByFactoring(a, n))
          << "(" << a << " | " << n << ")";
    }
  }
}

TEST(JacobiTest, MultiLimbShiftsAndMultiplicativity) {
  // (2^k m | n) = (2 | n)^k (m | n) exercises trailing-zero runs that cross
  // whole limbs; (ab | n) = (a | n)(b | n) pins the multi-limb subtract path.
  using U = BigInt<4>;
  SecureRng rng("jacobi-multi-limb");
  for (int iter = 0; iter < 300; ++iter) {
    U n;
    U m;
    for (size_t i = 0; i < 4; ++i) {
      n.limb[i] = rng.NextU64();
      m.limb[i] = i < 2 ? rng.NextU64() : 0;
    }
    n.limb[0] |= 1;
    m.limb[0] |= 1;
    const int two = ((n.limb[0] & 7) == 1 || (n.limb[0] & 7) == 7) ? 1 : -1;
    const size_t k = rng.UniformBelow(120);
    U shifted = m;
    for (size_t i = 0; i < k; ++i) {
      shifted.ShiftLeft1();
    }
    const int expected = ((k & 1) != 0 ? two : 1) * Jacobi(m, n);
    EXPECT_EQ(Jacobi(shifted, n), expected) << "k=" << k;

    U a;
    U b;
    for (size_t i = 0; i < 4; ++i) {
      a.limb[i] = rng.NextU64();
      b.limb[i] = rng.NextU64();
    }
    EXPECT_EQ(Jacobi(MulMod(a, b, n), n), Jacobi(a, n) * Jacobi(b, n));
  }
}

TEST(JacobiTest, SharedFactorGivesZero) {
  using U = BigInt<2>;
  U n;
  n.limb[1] = 3;
  n.limb[0] = 0x8000000000000001ull;  // odd, divisible by 3
  EXPECT_EQ(Jacobi(U::FromU64(3), n), 0);
  EXPECT_EQ(Jacobi(n, n), 0);
  EXPECT_EQ(Jacobi(U::Zero(), n), 0);
  EXPECT_EQ(Jacobi(U::Zero(), U::One()), 1);
}

}  // namespace
}  // namespace vdp
