// Group-operation microbenchmarks across every registered group: the raw
// costs the protocol layers are built on. For each group: generic Exp,
// comb fixed-base Exp (the Pedersen/verifier path), wNAF and Pippenger MSM
// per-term cost, plain group Mul, (batch) encoding, and strict Decode of a
// subgroup element and of an in-range non-member (the verifier's
// untrusted-input cost). One table makes the comb and kernel speedups
// visible per group, and the committed BENCH_group_ops.json baseline plus
// the CI artifact keep them trended. The JSON names the host: nproc, CPU
// model and build type.
//
// Usage: bench_group_ops [out.json]   (default BENCH_group_ops.json)
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/batch/msm.h"
#include "src/commit/pedersen.h"
#include "src/common/timer.h"
#include "src/group/fixed_base.h"
#include "src/group/registry.h"

#ifndef VDP_BUILD_TYPE
#define VDP_BUILD_TYPE "unknown"
#endif

namespace {

// Reps scaled so slow groups (2048-bit exponentiations are milliseconds)
// don't blow up the wall clock while fast groups still measure cleanly.
size_t RepsFor(size_t order_bits) {
  if (order_bits <= 320) {
    return 400;
  }
  if (order_bits <= 600) {
    return 100;
  }
  if (order_bits <= 1100) {
    return 30;
  }
  return 10;
}

struct GroupRow {
  std::string group;
  size_t order_bits = 0;
  double exp_generic_us = 0;
  double exp_comb_us = 0;
  double table_build_ms = 0;
  double msm_wnaf_per_term_us = 0;       // n = 32
  double msm_pippenger_per_term_us = 0;  // n = 512
  double mul_us = 0;
  double encode_us = 0;
  double encode_batch_us = 0;  // per element, batch of 256
  double decode_us = 0;         // subgroup element: accepted
  double decode_reject_us = 0;  // in range (on the curve), not a member
};

// An encoding that passes every range check but names a non-member, so
// Decode pays its full membership test and rejects.
template <vdp::PrimeOrderGroup G>
vdp::Bytes NonMemberEncoding(const typename G::Element& member) {
  if constexpr (std::is_same_v<G, vdp::Ed25519Group>) {
    // member + (0, -1) = (-x, -y): on the curve, but (0, -1) has order 2,
    // so the sum is outside the order-l subgroup. The encoding is y
    // little-endian with the sign of x in bit 255.
    vdp::Bytes enc = G::Encode(member);
    vdp::BigInt<4> y;
    for (size_t i = 0; i < 32; ++i) {
      y.limb[i / 8] |= static_cast<uint64_t>(enc[i] & (i == 31 ? 0x7f : 0xff)) << (8 * (i % 8));
    }
    vdp::BigInt<4> neg_y;
    vdp::BigInt<4>::SubInto(neg_y, vdp::Fe25519::P(), y);
    const uint8_t sign = static_cast<uint8_t>((enc[31] & 0x80) ^ 0x80);
    for (size_t i = 0; i < 32; ++i) {
      enc[i] = static_cast<uint8_t>(neg_y.limb[i / 8] >> (8 * (i % 8)));
    }
    enc[31] = static_cast<uint8_t>((enc[31] & 0x7f) | sign);
    return enc;
  } else {
    // Z_p*: every value below a member is in range (0, p); walk down to the
    // first one Decode refuses.
    auto v = member.value();
    using B = decltype(v);
    do {
      B::SubInto(v, v, B::One());
    } while (G::Decode(v.ToBytesBe()).has_value());
    return v.ToBytesBe();
  }
}

template <vdp::PrimeOrderGroup G>
GroupRow Measure() {
  using S = typename G::Scalar;
  GroupRow row;
  row.group = G::Name();
  row.order_bits = S::Order().BitLength();
  const size_t reps = RepsFor(row.order_bits);

  vdp::SecureRng rng("bench-group-ops-" + G::Name());
  const auto gen = G::Generator();
  std::vector<S> scalars(reps);
  for (auto& s : scalars) {
    s = S::Random(rng);
  }

  vdp::Stopwatch timer;
  auto sink = G::Identity();

  timer.Reset();
  for (size_t i = 0; i < reps; ++i) {
    sink = G::Mul(sink, G::Exp(gen, scalars[i]));
  }
  row.exp_generic_us = timer.ElapsedMillis() * 1000.0 / reps;

  timer.Reset();
  vdp::FixedBaseTable<G> table(gen);
  row.table_build_ms = timer.ElapsedMillis();

  timer.Reset();
  for (size_t i = 0; i < reps; ++i) {
    sink = G::Mul(sink, table.Exp(scalars[i]));
  }
  row.exp_comb_us = timer.ElapsedMillis() * 1000.0 / reps;

  // MSM per-term costs on realistic batch shapes.
  const size_t wnaf_n = 32;
  const size_t pip_n = row.order_bits <= 600 ? 512 : 128;
  std::vector<typename G::Element> bases;
  std::vector<S> msm_scalars;
  for (size_t i = 0; i < pip_n; ++i) {
    bases.push_back(G::Exp(gen, S::Random(rng)));
    msm_scalars.push_back(S::Random(rng));
  }
  std::vector<typename G::Element> wnaf_bases(bases.begin(), bases.begin() + wnaf_n);
  std::vector<S> wnaf_scalars(msm_scalars.begin(), msm_scalars.begin() + wnaf_n);

  const size_t msm_reps = reps / 10 + 1;
  timer.Reset();
  for (size_t r = 0; r < msm_reps; ++r) {
    sink = G::Mul(sink, vdp::MsmWnaf<G>(wnaf_bases, wnaf_scalars));
  }
  row.msm_wnaf_per_term_us = timer.ElapsedMillis() * 1000.0 / (msm_reps * wnaf_n);

  std::vector<std::vector<uint64_t>> limbs;
  for (const auto& s : msm_scalars) {
    limbs.push_back(vdp::msm_internal::ToLimbs(s.Encode()));
  }
  timer.Reset();
  for (size_t r = 0; r < msm_reps; ++r) {
    sink = G::Mul(sink, vdp::MsmPippenger<G>(bases, limbs, 0, pip_n));
  }
  row.msm_pippenger_per_term_us = timer.ElapsedMillis() * 1000.0 / (msm_reps * pip_n);

  const size_t mul_reps = reps * 20;
  timer.Reset();
  for (size_t i = 0; i < mul_reps; ++i) {
    sink = G::Mul(sink, gen);
  }
  row.mul_us = timer.ElapsedMillis() * 1000.0 / mul_reps;

  timer.Reset();
  size_t enc_bytes = 0;
  for (size_t i = 0; i < reps; ++i) {
    enc_bytes += G::Encode(bases[i % bases.size()]).size();
  }
  row.encode_us = timer.ElapsedMillis() * 1000.0 / reps;

  std::vector<typename G::Element> batch(bases.begin(),
                                         bases.begin() + std::min<size_t>(256, bases.size()));
  timer.Reset();
  auto encoded = vdp::EncodeAll<G>(batch);
  row.encode_batch_us = timer.ElapsedMillis() * 1000.0 / batch.size();
  enc_bytes += encoded.size();

  const size_t decode_samples = std::min<size_t>(32, bases.size());
  std::vector<vdp::Bytes> members;
  std::vector<vdp::Bytes> non_members;
  for (size_t i = 0; i < decode_samples; ++i) {
    members.push_back(G::Encode(bases[i]));
    non_members.push_back(NonMemberEncoding<G>(bases[i]));
    if (G::Decode(non_members.back()).has_value()) {
      std::fprintf(stderr, "%s: non-member encoding decoded\n", G::Name().c_str());
    }
  }
  const size_t decode_reps = reps * 5;
  size_t decoded = 0;
  timer.Reset();
  for (size_t i = 0; i < decode_reps; ++i) {
    decoded += G::Decode(members[i % decode_samples]).has_value() ? 1 : 0;
  }
  row.decode_us = timer.ElapsedMillis() * 1000.0 / decode_reps;
  timer.Reset();
  for (size_t i = 0; i < decode_reps; ++i) {
    decoded += G::Decode(non_members[i % decode_samples]).has_value() ? 1 : 0;
  }
  row.decode_reject_us = timer.ElapsedMillis() * 1000.0 / decode_reps;
  if (decoded != decode_reps) {
    std::fprintf(stderr, "%s: %zu of %zu decodes accepted, expected %zu\n",
                 G::Name().c_str(), decoded, 2 * decode_reps, decode_reps);
  }

  // Keep the accumulators alive so nothing is optimized away.
  if (G::Encode(sink).empty() || enc_bytes == 0) {
    std::fprintf(stderr, "impossible: empty encoding\n");
  }
  return row;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_group_ops.json";
  std::vector<GroupRow> rows;
  vdp::ForEachRegisteredGroup([&](auto tag) {
    using G = typename decltype(tag)::Group;
    std::printf("measuring %s...\n", G::Name().c_str());
    rows.push_back(Measure<G>());
  });

  std::printf("\n%-18s %6s %12s %12s %12s %12s %10s %10s %10s %10s %10s\n", "group",
              "bits", "exp(us)", "comb(us)", "wnaf/t(us)", "pip/t(us)", "mul(us)", "enc(us)",
              "encB(us)", "dec(us)", "decRej(us)");
  for (const auto& r : rows) {
    std::printf("%-18s %6zu %12.2f %12.2f %12.2f %12.2f %10.3f %10.3f %10.3f %10.2f %10.2f\n",
                r.group.c_str(), r.order_bits, r.exp_generic_us, r.exp_comb_us,
                r.msm_wnaf_per_term_us, r.msm_pippenger_per_term_us, r.mul_us, r.encode_us,
                r.encode_batch_us, r.decode_us, r.decode_reject_us);
  }

  FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"group_ops\",\n  \"host\": {\"nproc\": %u, "
               "\"cpu_model\": \"%s\", \"build_type\": \"%s\"},\n  \"results\": [\n",
               std::thread::hardware_concurrency(), CpuModel().c_str(), VDP_BUILD_TYPE);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"group\": \"%s\", \"order_bits\": %zu, \"exp_generic_us\": %.3f, "
                 "\"exp_comb_us\": %.3f, \"table_build_ms\": %.3f, "
                 "\"msm_wnaf_per_term_us\": %.3f, \"msm_pippenger_per_term_us\": %.3f, "
                 "\"mul_us\": %.4f, \"encode_us\": %.4f, \"encode_batch_us\": %.4f, "
                 "\"decode_us\": %.3f, \"decode_reject_us\": %.3f}%s\n",
                 r.group.c_str(), r.order_bits, r.exp_generic_us, r.exp_comb_us,
                 r.table_build_ms, r.msm_wnaf_per_term_us, r.msm_pippenger_per_term_us,
                 r.mul_us, r.encode_us, r.encode_batch_us, r.decode_us, r.decode_reject_us,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
