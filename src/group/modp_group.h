// Schnorr groups: the order-q subgroup of quadratic residues in Z_p* for a
// safe prime p = 2q + 1. This is the "Gq subset of Z_p* based on the finite
// field discrete log problem" instantiation the paper benchmarks.
//
// Elements are stored in plain (non-Montgomery) representation and always
// satisfy 1 <= e < p with e^q = 1. Decode() enforces subgroup membership, so
// adversarial wire input cannot smuggle in elements of order 2 or 2q. Because
// p is a safe prime, the order-q subgroup is exactly the set of quadratic
// residues, so membership is the Legendre symbol (e | p) = 1 -- an exact
// test, not a probabilistic one, and far cheaper than e^q.
#ifndef SRC_GROUP_MODP_GROUP_H_
#define SRC_GROUP_MODP_GROUP_H_

#include <string>
#include <vector>

#include "src/common/sha256.h"
#include "src/group/modp_params.h"
#include "src/group/scalar_field.h"
#include "src/math/jacobi.h"

namespace vdp {

template <size_t L, const ModPParams<L>& (*Params)()>
class ModPGroup {
 public:
  static constexpr size_t kLimbs = L;
  static constexpr size_t kElementSize = BigInt<L>::kBytes;

  struct ScalarTag {
    static const BigInt<L>& Order() { return Params().q; }
  };
  using Scalar = ScalarField<L, ScalarTag>;

  class Element {
   public:
    Element() : v_(BigInt<L>::One()) {}  // identity

    const BigInt<L>& value() const { return v_; }

    friend bool operator==(const Element& a, const Element& b) { return a.v_ == b.v_; }
    friend bool operator!=(const Element& a, const Element& b) { return a.v_ != b.v_; }

   private:
    friend class ModPGroup;
    explicit Element(const BigInt<L>& v) : v_(v) {}
    BigInt<L> v_;
  };

  // Acceleration kernel (see src/group/accel.h): values held in Montgomery
  // form so the MulMont/SqrMont round-trips of the public Mul disappear from
  // table and MSM inner loops. "Affine" and accumulator forms coincide.
  struct Accel {
    using P = BigInt<L>;
    using A = BigInt<L>;
    static constexpr bool kCheapNegate = false;

    static P Identity() { return PCtx().r(); }  // 1 in Montgomery form
    static P Lift(const Element& e) { return PCtx().ToMont(e.v_); }
    static Element Lower(const P& p) { return Element(PCtx().FromMont(p)); }
    static A ToA(const P& p) { return p; }
    static void Normalize(const std::vector<P>& pts, std::vector<A>* out) {
      *out = pts;
    }
    static P Add(const P& a, const P& b) { return PCtx().MulMont(a, b); }
    static P AddA(const P& a, const A& b) { return PCtx().MulMont(a, b); }
    static P Dbl(const P& a) { return PCtx().SqrMont(a); }
    static A NegA(const A& a) {
      return PCtx().ToMont(PCtx().Inverse(PCtx().FromMont(a)));
    }
  };

  static std::string Name() { return "modp-" + std::to_string(L * 64); }

  static Element Identity() { return Element(); }

  static Element Generator() { return Element(Mod(BigInt<L>::FromU64(Params().g), Params().p)); }

  // Group operation (modular multiplication).
  static Element Mul(const Element& a, const Element& b) {
    return Element(PCtx().MulMod(a.v_, b.v_));
  }

  // Exponentiation by a scalar in Z_q.
  static Element Exp(const Element& base, const Scalar& e) {
    return Element(PCtx().ExpMod(base.v_, e.value()));
  }

  static Element Inverse(const Element& a) { return Element(PCtx().Inverse(a.v_)); }

  // g^e for the fixed generator.
  static Element ExpG(const Scalar& e) { return Exp(Generator(), e); }

  static Bytes Encode(const Element& e) { return e.v_.ToBytesBe(); }

  // Strict decode: correct width, in range (0, p), and in the order-q subgroup.
  static std::optional<Element> Decode(BytesView bytes) {
    std::optional<Element> e = DecodeInRange(bytes);
    if (!e.has_value() || !InSubgroup(*e)) {
      return std::nullopt;
    }
    return e;
  }

  // Decode with the definitional membership test e^q == 1, one full
  // exponentiation: the oracle the Legendre-symbol Decode is differentially
  // tested against.
  static std::optional<Element> DecodeByExponent(BytesView bytes) {
    std::optional<Element> e = DecodeInRange(bytes);
    if (!e.has_value() ||
        PCtx().template ExpMod<L>(e->v_, Params().q) != BigInt<L>::One()) {
      return std::nullopt;
    }
    return e;
  }

  // Membership test: the Legendre symbol (e | p) == 1. For a safe prime
  // p = 2q + 1, Z_p* is cyclic of order 2q and its order-q subgroup is the
  // set of quadratic residues, so this equals e^q == 1 on every 1 <= e < p
  // (the safe-prime precondition is pinned by
  // ModPParamsTest.AllParameterSetsAreSafePrimes). Variable time, which is
  // fine: Decode calls it on public wire bytes.
  static bool InSubgroup(const Element& e) { return Jacobi(e.v_, Params().p) == 1; }

  // Derives an element of the subgroup from a domain-separated hash by
  // squaring a pseudorandom field element (every square is a QR; the QR group
  // has prime order q so every non-identity element generates it).
  static Element HashToGroup(BytesView domain, BytesView msg) {
    for (uint64_t counter = 0;; ++counter) {
      Sha256 h;
      h.Update(StrView("vdp/modp-hash-to-group"));
      uint8_t dlen = static_cast<uint8_t>(domain.size());
      h.Update(BytesView(&dlen, 1));
      h.Update(domain);
      h.Update(msg);
      uint8_t ctr[8];
      for (int i = 0; i < 8; ++i) {
        ctr[i] = static_cast<uint8_t>(counter >> (8 * i));
      }
      h.Update(BytesView(ctr, 8));
      // Expand the 32-byte digest to L limbs of pseudorandom data.
      Bytes wide;
      Sha256::Digest block = h.Finalize();
      while (wide.size() < kElementSize) {
        wide.insert(wide.end(), block.begin(), block.end());
        block = Sha256::Hash(BytesView(block.data(), block.size()));
      }
      wide.resize(kElementSize);
      auto u = BigInt<L>::FromBytesBe(wide);
      BigInt<L> reduced = Mod(*u, Params().p);
      BigInt<L> squared = PCtx().MulMod(reduced, reduced);
      if (!squared.IsZero() && squared != BigInt<L>::One()) {
        return Element(squared);
      }
    }
  }

 private:
  // Width and range checks only: 0 < v < p, membership not yet tested.
  static std::optional<Element> DecodeInRange(BytesView bytes) {
    if (bytes.size() != kElementSize) {
      return std::nullopt;
    }
    auto v = BigInt<L>::FromBytesBe(bytes);
    if (!v.has_value() || v->IsZero() || *v >= Params().p) {
      return std::nullopt;
    }
    return Element(*v);
  }

  static const MontgomeryCtx<L>& PCtx() {
    static const MontgomeryCtx<L> ctx(Params().p);
    return ctx;
  }
};

// Parameter sets. ModP64 exists solely for memory/throughput soak runs that
// need millions of cheap-but-real proofs (tools/stream_soak) and ModP256 is
// for fast tests only -- neither has any security margin; ModP2048 matches
// contemporary guidance for finite-field DLOG.
using ModP64 = ModPGroup<1, ModP64Params>;
using ModP256 = ModPGroup<4, ModP256Params>;
using ModP512 = ModPGroup<8, ModP512Params>;
using ModP1024 = ModPGroup<16, ModP1024Params>;
using ModP2048 = ModPGroup<32, ModP2048Params>;

}  // namespace vdp

#endif  // SRC_GROUP_MODP_GROUP_H_
