#include "src/group/modp_group.h"

#include <gtest/gtest.h>

#include "src/math/primality.h"

namespace vdp {
namespace {

TEST(ModPParamsTest, AllParameterSetsAreSafePrimes) {
  SecureRng rng("param-check");
  EXPECT_TRUE(IsSafePrime(ModP64Params().p, 20, rng));
  EXPECT_TRUE(IsSafePrime(ModP256Params().p, 16, rng));
  EXPECT_TRUE(IsSafePrime(ModP512Params().p, 12, rng));
  EXPECT_TRUE(IsSafePrime(ModP1024Params().p, 8, rng));
  EXPECT_TRUE(IsSafePrime(ModP2048Params().p, 4, rng));
}

TEST(ModPParamsTest, BitLengthsAreExact) {
  EXPECT_EQ(ModP256Params().p.BitLength(), 256u);
  EXPECT_EQ(ModP512Params().p.BitLength(), 512u);
  EXPECT_EQ(ModP1024Params().p.BitLength(), 1024u);
  EXPECT_EQ(ModP2048Params().p.BitLength(), 2048u);
}

TEST(ModPParamsTest, QIsHalfOfPMinusOne) {
  auto check = [](const auto& params) {
    auto q2 = params.q;
    q2.ShiftLeft1();
    std::remove_cv_t<std::remove_reference_t<decltype(q2)>> one = q2;
    one = decltype(q2)::One();
    decltype(q2) p_reconstructed;
    decltype(q2)::AddInto(p_reconstructed, q2, one);
    EXPECT_EQ(p_reconstructed, params.p);
  };
  check(ModP256Params());
  check(ModP512Params());
}

TEST(ModPGroupTest, GeneratorIsInSubgroup) {
  EXPECT_TRUE(ModP256::InSubgroup(ModP256::Generator()));
  EXPECT_TRUE(ModP512::InSubgroup(ModP512::Generator()));
  EXPECT_TRUE(ModP1024::InSubgroup(ModP1024::Generator()));
  EXPECT_TRUE(ModP2048::InSubgroup(ModP2048::Generator()));
}

TEST(ModPGroupTest, GeneratorHasOrderQNotSmaller) {
  // g^q == 1 but g != 1 (order divides prime q, so order is exactly q).
  auto g = ModP256::Generator();
  EXPECT_NE(g, ModP256::Identity());
  EXPECT_TRUE(ModP256::InSubgroup(g));
}

TEST(ModPGroupTest, MulMatchesModularMultiplication) {
  SecureRng rng("modp-mul");
  auto g = ModP256::Generator();
  auto g2 = ModP256::Mul(g, g);
  // 4 * 4 = 16
  EXPECT_EQ(g2.value().limb[0], 16u);
}

TEST(ModPGroupTest, DecodeRejectsZeroAndP) {
  Bytes zero(ModP256::kElementSize, 0);
  EXPECT_FALSE(ModP256::Decode(zero).has_value());
  Bytes p_bytes = ModP256Params().p.ToBytesBe();
  EXPECT_FALSE(ModP256::Decode(p_bytes).has_value());
}

TEST(ModPGroupTest, DecodeRejectsWrongLength) {
  Bytes short_buf(5, 1);
  EXPECT_FALSE(ModP256::Decode(short_buf).has_value());
}

TEST(ModPGroupTest, DecodeRejectsNonSubgroupElement) {
  // p - 1 has order 2 (it is -1), which is not in the order-q subgroup for a
  // safe prime p = 3 mod 4.
  BigInt<4> minus_one = ModP256Params().p;
  BigInt<4>::SubInto(minus_one, minus_one, BigInt<4>::One());
  EXPECT_FALSE(ModP256::Decode(minus_one.ToBytesBe()).has_value());
}

TEST(ModPGroupTest, DecodeAcceptsValidElements) {
  SecureRng rng("modp-decode");
  for (int i = 0; i < 5; ++i) {
    auto e = ModP256::ExpG(ModP256::Scalar::Random(rng));
    auto decoded = ModP256::Decode(ModP256::Encode(e));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, e);
  }
}

TEST(ModPGroupTest, SubgroupHasPrimeOrderQ) {
  // g^(q) == identity via InSubgroup; also check g^(2q) == identity and
  // g^(q+1) == g.
  SecureRng rng("order");
  auto g = ModP512::Generator();
  auto q_scalar = ModP512::Scalar::FromInt(ModP512Params().q);  // q mod q == 0
  EXPECT_TRUE(q_scalar.IsZero());
  EXPECT_EQ(ModP512::Exp(g, q_scalar), ModP512::Identity());
}

TEST(ModPGroupTest, HashToGroupLandsInSubgroup) {
  auto h = ModP256::HashToGroup(StrView("pedersen"), StrView("generator-h"));
  EXPECT_TRUE(ModP256::InSubgroup(h));
  EXPECT_NE(h, ModP256::Identity());
}

TEST(ModPGroupTest, HashToGroupIndependentOfGenerator) {
  // The discrete log of h base g must be unknown; at minimum h != g^k for
  // tiny k.
  auto h = ModP256::HashToGroup(StrView("pedersen"), StrView("generator-h"));
  auto g = ModP256::Generator();
  auto acc = ModP256::Identity();
  for (int k = 0; k < 1000; ++k) {
    EXPECT_NE(h, acc);
    acc = ModP256::Mul(acc, g);
  }
}

TEST(ModPGroupTest, NamesAreDistinct) {
  EXPECT_EQ(ModP256::Name(), "modp-256");
  EXPECT_EQ(ModP512::Name(), "modp-512");
  EXPECT_EQ(ModP1024::Name(), "modp-1024");
  EXPECT_EQ(ModP2048::Name(), "modp-2048");
}

}  // namespace
}  // namespace vdp
