// Differential decode test for the safe-prime groups: Decode's Legendre-
// symbol membership test must give the same verdict as the definitional
// e^q == 1 oracle (DecodeByExponent) on random, boundary-biased, edge and
// structured encodings, and every accepted encoding must round-trip to the
// same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/group/modp_group.h"

namespace vdp {
namespace {

// Per-group sample size, scaled so the 2048-bit oracle stays cheap.
template <typename G>
size_t SamplesFor() {
  switch (G::kLimbs) {
    case 1:
      return 4000;
    case 4:
      return 2000;
    case 8:
      return 400;
    case 16:
      return 80;
    default:
      return 24;
  }
}

// p = 2q + 1, recovered from the scalar order so the test needs no access
// to the parameter set.
template <typename G>
BigInt<G::kLimbs> Modulus() {
  BigInt<G::kLimbs> p = G::Scalar::Order();
  p.ShiftLeft1();
  p.limb[0] |= 1;
  return p;
}

struct Verdicts {
  size_t accepted = 0;
  size_t rejected = 0;
};

// Decodes `bytes` both ways; the verdicts must agree and an accepted
// encoding must name the same element and re-encode to the same bytes.
template <typename G>
bool CheckAgainstOracle(const Bytes& bytes, Verdicts* tally) {
  auto fast = G::Decode(bytes);
  auto oracle = G::DecodeByExponent(bytes);
  EXPECT_EQ(fast.has_value(), oracle.has_value()) << G::Name() << " " << HexEncode(bytes);
  if (!fast.has_value()) {
    ++tally->rejected;
    return false;
  }
  ++tally->accepted;
  if (oracle.has_value()) {
    EXPECT_TRUE(*fast == *oracle) << G::Name();
  }
  EXPECT_EQ(G::Encode(*fast), bytes) << G::Name();
  return true;
}

template <typename G>
class ModPDecodeFuzzTest : public ::testing::Test {};

using SafePrimeGroups = ::testing::Types<ModP64, ModP256, ModP512, ModP1024, ModP2048>;
TYPED_TEST_SUITE(ModPDecodeFuzzTest, SafePrimeGroups);

TYPED_TEST(ModPDecodeFuzzTest, RandomFullWidthStringsMatchOracle) {
  using G = TypeParam;
  SecureRng rng("modp-decode-fuzz-random-" + G::Name());
  Verdicts tally;
  const size_t n = SamplesFor<G>();
  for (size_t i = 0; i < n; ++i) {
    CheckAgainstOracle<G>(rng.RandomBytes(G::kElementSize), &tally);
  }
  // p > 2^(bits-1), so at least half the strings are in range and about half
  // of those are residues: neither verdict can be rare unless decode is
  // broken.
  EXPECT_GT(tally.accepted, n / 8) << G::Name();
  EXPECT_GT(tally.rejected, n / 8) << G::Name();
}

TYPED_TEST(ModPDecodeFuzzTest, HighBytesNearModulusMatchOracle) {
  // Keep the top half of p's bytes and randomise the rest, so the samples
  // straddle p: both the range check and the symbol are exercised there.
  using G = TypeParam;
  SecureRng rng("modp-decode-fuzz-high-" + G::Name());
  const Bytes p_bytes = Modulus<G>().ToBytesBe();
  const size_t keep = G::kElementSize / 2;
  Verdicts tally;
  const size_t n = SamplesFor<G>();
  for (size_t i = 0; i < n; ++i) {
    Bytes raw = rng.RandomBytes(G::kElementSize);
    std::copy(p_bytes.begin(), p_bytes.begin() + keep, raw.begin());
    CheckAgainstOracle<G>(raw, &tally);
  }
  EXPECT_GT(tally.accepted, 0u) << G::Name();
  EXPECT_GT(tally.rejected, 0u) << G::Name();
}

TYPED_TEST(ModPDecodeFuzzTest, EdgeValuesMatchOracle) {
  using G = TypeParam;
  using B = BigInt<G::kLimbs>;
  const B p = Modulus<G>();
  B p_minus_1;
  B::SubInto(p_minus_1, p, B::One());
  B p_plus_1;
  ASSERT_EQ(B::AddInto(p_plus_1, p, B::One()), 0u);
  B all_ones;
  all_ones.limb.fill(~uint64_t{0});

  Verdicts tally;
  // 1 is the identity: the only edge value in the subgroup.
  EXPECT_TRUE(CheckAgainstOracle<G>(B::One().ToBytesBe(), &tally));
  EXPECT_TRUE(G::Decode(B::One().ToBytesBe()).value() == G::Identity());
  // 0 and p, p + 1, 2^bits - 1 are out of range; p - 1 = -1 has order 2 and
  // is a non-residue because p = 3 (mod 4).
  for (const B& v : {B::Zero(), p_minus_1, p, p_plus_1, all_ones}) {
    EXPECT_FALSE(CheckAgainstOracle<G>(v.ToBytesBe(), &tally)) << G::Name() << " " << v.ToHex();
  }
  EXPECT_EQ(p.limb[0] & 3, 3u);
}

TYPED_TEST(ModPDecodeFuzzTest, ResiduesAcceptedAndTheirNegationsRejected) {
  // g^k is a quadratic residue; p - g^k = (-1) * g^k is not, since -1 is a
  // non-residue. Small k pins the low-value shapes, random k the rest.
  using G = TypeParam;
  using B = BigInt<G::kLimbs>;
  SecureRng rng("modp-decode-fuzz-residues-" + G::Name());
  const B p = Modulus<G>();
  std::vector<typename G::Element> residues;
  auto acc = G::Identity();
  for (int k = 0; k < 8; ++k) {
    residues.push_back(acc);
    acc = G::Mul(acc, G::Generator());
  }
  for (size_t i = 0; i < SamplesFor<G>() / 4; ++i) {
    residues.push_back(G::ExpG(G::Scalar::Random(rng)));
  }
  const std::string name = G::Name();
  residues.push_back(G::HashToGroup(StrView("modp-decode-fuzz"), StrView(name.c_str())));

  Verdicts tally;
  for (const auto& r : residues) {
    EXPECT_TRUE(CheckAgainstOracle<G>(G::Encode(r), &tally)) << G::Name();
    B negated;
    B::SubInto(negated, p, r.value());
    EXPECT_FALSE(CheckAgainstOracle<G>(negated.ToBytesBe(), &tally)) << G::Name();
  }
  EXPECT_EQ(tally.accepted, residues.size());
  EXPECT_EQ(tally.rejected, residues.size());
}

}  // namespace
}  // namespace vdp
