// Similar-mask union coarsening, from the bitset primitives up through the
// executor, under a forced 4-thread pool:
//   - packed kept-set bitsets round-trip (keep-all canonicalization,
//     intersection and union popcounts) and mask_equal's kept-count
//     fast-reject;
//   - union-SUPERSET execution is bitwise: running a group kernel with a
//     superset mask whose extra channels/positions are zero in the input
//     matches the exact mask bit for bit, f32 and int8 (exact integer
//     accumulation + the u8-bias correction cancel the zero-point rows);
//   - keep-all groups: a one-member group (the dense plan step: weights
//     read in place, tiles stored straight into the output) equals the
//     module walk's dense kernel, and a two-member group (y_sub + scatter)
//     gives every member the same bytes, f32 and int8, tiled or not, and
//     int8 output does not depend on the tile width;
//   - both sides of the channel path's width test: groups narrower than
//     one gemm_nn panel (the filter-lane kernel) and wider ones, on 2x2
//     and 3x3 grids with 1-4 members and 6 or 20 filters, equal the
//     module walk's kernels member by member, and each call's measured
//     arena peak stays within conv_group_masked_scratch_bytes;
//   - coarsen_plan merge eligibility: identical groups always merge;
//     disjoint, filter-mismatched or mixed-position-kind groups never
//     merge — structural eligibility, not a cost outcome;
//   - end to end, a batch of near-identical hand-built masks merges below
//     the exact-identity bucket count, stays bitwise identical to the
//     per-sample module walk, and performs zero arena growths from the
//     first reserved pass (f32 and int8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/mask.h"
#include "models/factory.h"
#include "nn/conv_kernels.h"
#include "nn/execution_context.h"
#include "plan/plan.h"
#include "tensor/gemm.h"
#include "tensor/workspace.h"

namespace antidote {
namespace {

// Must run before any antidote code touches the pool (see
// parallel_groups_test.cc). 4 compute threads = caller + 3 workers.
const bool kForcedThreads = [] {
  ::setenv("ANTIDOTE_THREADS", "4", /*overwrite=*/1);
  return true;
}();

// --- bitset primitives ----------------------------------------------------

TEST(CoarsenBits, PackRoundTripsAndCanonicalizesKeepAll) {
  const int n = 70;  // straddles a word boundary
  const int words = core::mask_bits_words(n);
  ASSERT_EQ(words, 2);
  std::vector<uint64_t> bits(static_cast<size_t>(words));

  const std::vector<int> kept = {0, 1, 33, 63, 64, 69};
  core::pack_kept_bits(kept, n, bits.data());
  EXPECT_EQ(core::popcount_words(bits.data(), words),
            static_cast<int>(kept.size()));
  std::vector<int> back;
  core::bits_to_kept(bits.data(), n, back);
  EXPECT_EQ(back, kept);

  // Empty kept = keep all: packs as all n bits, unpacks back to EMPTY.
  core::pack_kept_bits({}, n, bits.data());
  EXPECT_EQ(core::popcount_words(bits.data(), words), n);
  core::bits_to_kept(bits.data(), n, back);
  EXPECT_TRUE(back.empty());
}

TEST(CoarsenBits, IntersectUnion) {
  const int n = 64, words = 1;
  uint64_t a, b;
  core::pack_kept_bits(std::vector<int>{0, 1, 2, 3}, n, &a);
  core::pack_kept_bits(std::vector<int>{2, 3, 4, 5}, n, &b);
  EXPECT_EQ(core::mask_intersect_bits(&a, &b, words), 2);

  core::union_bits_inplace(&a, &b, words);
  EXPECT_EQ(core::popcount_words(&a, words), 6);
  std::vector<int> back;
  core::bits_to_kept(&a, n, back);
  EXPECT_EQ(back, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(CoarsenBits, MaskEqualKeptCountFastReject) {
  nn::ConvRuntimeMask a, b;
  a.channels = {0, 1, 2};
  b.channels = {0, 1, 2};
  EXPECT_TRUE(core::mask_equal(a, b));
  b.channels = {0, 1, 2, 3};  // size mismatch rejects before any walk
  EXPECT_FALSE(core::mask_equal(a, b));
  b.channels = {0, 1, 3};
  EXPECT_FALSE(core::mask_equal(a, b));
  b.channels = {0, 1, 2};
  b.out_channels = {4};
  EXPECT_FALSE(core::mask_equal(a, b));
}

// --- merge eligibility (coarsen_plan seam) --------------------------------

struct PlanInputs {
  std::vector<plan::CoarsenGroup> groups;
  std::vector<uint64_t> bits;  // ngroups x ch_words, clobbered per run
  std::vector<int> cluster;
  std::vector<int> iscratch;
};

PlanInputs make_inputs(const std::vector<std::vector<int>>& kept_ch,
                       const std::vector<int>* out_channels, int domain) {
  PlanInputs in;
  const int words = core::mask_bits_words(domain);
  const int g = static_cast<int>(kept_ch.size());
  in.bits.resize(static_cast<size_t>(g) * words);
  for (int i = 0; i < g; ++i) {
    core::pack_kept_bits(kept_ch[static_cast<size_t>(i)], domain,
                         in.bits.data() + static_cast<size_t>(i) * words);
    plan::CoarsenGroup cg;
    cg.size = 1;
    cg.kept_ch = static_cast<int>(kept_ch[static_cast<size_t>(i)].size());
    cg.kept_pos = 100;  // no spatial domain: full output positions
    cg.kept_out = 16;
    cg.out_channels = out_channels;
    in.groups.push_back(cg);
  }
  in.cluster.assign(static_cast<size_t>(g), -1);
  in.iscratch.assign(static_cast<size_t>(plan::coarsen_iscratch_ints(g)), 0);
  return in;
}

TEST(CoarsenPlan, IdenticalGroupsAlwaysMerge) {
  const std::vector<int> oc;  // keep-all filters, shared by every group
  std::vector<int> kept_mut(32);
  std::iota(kept_mut.begin(), kept_mut.end(), 0);
  plan::CoarsenCost cost;
  cost.kk = 9.0;
  cost.pack_macs_per_elem = 1.0;
  cost.overhead_macs = 20000.0;
  cost.threads = 4;
  PlanInputs in =
      make_inputs({kept_mut, kept_mut, kept_mut, kept_mut}, &oc, 64);
  const plan::CoarsenDecision dec = plan::coarsen_plan(
      in.groups.data(), 4, /*ch_words=*/1, /*pos_words=*/0, cost,
      in.bits.data(), in.cluster.data(), in.iscratch.data());
  EXPECT_EQ(dec.clusters, 1);
  EXPECT_EQ(dec.extra_macs, 0);
  // With workers saturated (one group per lane) an identical merge is an
  // exact critical-path tie; ties break toward fewer groups because they
  // delete whole pack+dispatch terms of total work.
  EXPECT_LE(dec.predicted_after, dec.predicted_before);
  for (const int c : in.cluster) EXPECT_EQ(c, 0);
}

TEST(CoarsenPlan, DisjointGroupsNeverMerge) {
  const std::vector<int> oc;
  std::vector<std::vector<int>> kept_ch(4);
  for (int i = 0; i < 4; ++i) {
    for (int c = 16 * i; c < 16 * (i + 1); ++c) {
      kept_ch[static_cast<size_t>(i)].push_back(c);
    }
  }
  plan::CoarsenCost cost;
  cost.kk = 9.0;
  cost.pack_macs_per_elem = 1.0;
  cost.overhead_macs = 20000.0;
  cost.threads = 4;
  PlanInputs in = make_inputs(kept_ch, &oc, 64);
  const plan::CoarsenDecision dec =
      plan::coarsen_plan(in.groups.data(), 4, 1, 0, cost, in.bits.data(),
                         in.cluster.data(), in.iscratch.data());
  EXPECT_EQ(dec.clusters, 4);
  EXPECT_EQ(dec.extra_macs, 0);
  EXPECT_EQ(dec.predicted_after, dec.predicted_before);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(in.cluster[i], i);
}

TEST(CoarsenPlan, UnequalKeptFiltersNeverMerge) {
  // Identical channel bits, but different kept OUT-FILTER sets: a filter
  // union would write real (nonzero-weight) rows the other sample's walk
  // leaves zero, so eligibility requires exact filter equality.
  const std::vector<int> oc_a = {0, 1, 2, 3};
  const std::vector<int> oc_b = {0, 1, 2, 4};
  std::vector<int> kept(32);
  std::iota(kept.begin(), kept.end(), 0);
  PlanInputs in = make_inputs({kept, kept}, nullptr, 64);
  in.groups[0].out_channels = &oc_a;
  in.groups[1].out_channels = &oc_b;
  in.groups[0].kept_out = in.groups[1].kept_out = 4;
  plan::CoarsenCost cost;
  cost.kk = 9.0;
  cost.pack_macs_per_elem = 1.0;
  cost.overhead_macs = 20000.0;
  cost.threads = 4;
  const plan::CoarsenDecision dec =
      plan::coarsen_plan(in.groups.data(), 2, 1, 0, cost, in.bits.data(),
                         in.cluster.data(), in.iscratch.data());
  EXPECT_EQ(dec.clusters, 2);
}

TEST(CoarsenPlan, MixedPositionKindsNeverMerge) {
  // Identical channels, but one group keeps a PROPER position subset
  // (shift-GEMM path) and the other keeps all positions (im2col channel
  // path): a merged group can only execute one path, so the kinds must
  // match for eligibility.
  const std::vector<int> oc;
  const int ch_domain = 64, pos_domain = 64;
  std::vector<int> kept_ch(32), part_pos(32);
  std::iota(kept_ch.begin(), kept_ch.end(), 0);
  std::iota(part_pos.begin(), part_pos.end(), 0);
  std::vector<uint64_t> bits(4);  // 2 groups x (1 ch word + 1 pos word)
  core::pack_kept_bits(kept_ch, ch_domain, &bits[0]);
  core::pack_kept_bits(part_pos, pos_domain, &bits[1]);
  core::pack_kept_bits(kept_ch, ch_domain, &bits[2]);
  core::pack_kept_bits({}, pos_domain, &bits[3]);  // keep-all
  plan::CoarsenGroup g[2];
  for (plan::CoarsenGroup& cg : g) {
    cg.size = 1;
    cg.kept_ch = 32;
    cg.kept_out = 16;
    cg.out_channels = &oc;
  }
  g[0].kept_pos = 32;
  g[0].pos_partial = true;
  g[1].kept_pos = pos_domain;
  g[1].pos_partial = false;
  plan::CoarsenCost cost;
  cost.kk = 9.0;
  cost.pack_macs_per_elem = 1.0;
  cost.overhead_macs = 20000.0;
  cost.threads = 4;
  std::vector<int> cluster(2), iscratch(plan::coarsen_iscratch_ints(2));
  const plan::CoarsenDecision dec =
      plan::coarsen_plan(g, 2, /*ch_words=*/1, /*pos_words=*/1, cost,
                         bits.data(), cluster.data(), iscratch.data());
  EXPECT_EQ(dec.clusters, 2);
}

// --- union-superset kernel parity -----------------------------------------

struct KernelRig {
  ConvGeom g;
  int out_c;
  static constexpr int kN = 8;  // samples in x; `samples` picks the members
  std::vector<float> w, bias, x;
  std::vector<int> iota;
  std::vector<int> samples{0, 1, 2};
  bool with_bias = true;
  int64_t tile = 0;    // the group kernels' tile width (0 = untiled)
  float y_init = 0.f;  // what every output starts as
  Workspace ws;

  explicit KernelRig(ConvGeom geom = {8, 8, 8, 3, 3, 1, 1}, int filters = 6)
      : g(geom), out_c(filters) {
    Rng rng(77);
    w.resize(static_cast<size_t>(out_c) * g.patch_rows());
    for (float& v : w) v = static_cast<float>(rng.normal());
    bias.resize(static_cast<size_t>(out_c));
    for (float& v : bias) v = static_cast<float>(rng.normal());
    x.resize(static_cast<size_t>(kN) * g.in_c * g.in_h * g.in_w);
    for (float& v : x) v = static_cast<float>(rng.normal());
    iota.resize(512);
    std::iota(iota.begin(), iota.end(), 0);
  }

  int64_t in_floats() const {
    return static_cast<int64_t>(g.in_c) * g.in_h * g.in_w;
  }
  int64_t out_floats() const { return out_c * g.out_positions(); }
  nn::ConvIdentityIndices ids() const {
    return {iota.data(), iota.data()};
  }
  const float* bias_or_null() const {
    return with_bias ? bias.data() : nullptr;
  }
  void zero_channel(int c) {
    const int64_t plane = static_cast<int64_t>(g.in_h) * g.in_w;
    for (int s = 0; s < kN; ++s) {
      std::memset(x.data() + s * in_floats() + c * plane, 0,
                  static_cast<size_t>(plane) * sizeof(float));
    }
  }
  void zero_position(int p) {
    const int64_t plane = static_cast<int64_t>(g.in_h) * g.in_w;
    for (int s = 0; s < kN; ++s) {
      for (int c = 0; c < g.in_c; ++c) {
        x[static_cast<size_t>(s * in_floats() + c * plane + p)] = 0.f;
      }
    }
  }

  // The group kernel over `samples`, drawing its scratch from `arena`
  // (default: the rig's workspace).
  std::vector<float> run_f32(const nn::ConvRuntimeMask& m,
                             Workspace* arena = nullptr) {
    std::vector<float> y(static_cast<size_t>(kN) * out_floats(), y_init);
    nn::conv_group_masked(x.data(), in_floats(), g, w.data(), out_c,
                          bias_or_null(), m, samples, ids(), y.data(),
                          out_floats(), arena != nullptr ? *arena : ws, tile);
    return y;
  }
  // The module walk's per-sample kernel, member by member.
  std::vector<float> run_reference(const nn::ConvRuntimeMask& m) {
    std::vector<float> y(static_cast<size_t>(kN) * out_floats(), y_init);
    for (int b : samples) {
      nn::conv_sample_masked(x.data() + b * in_floats(), g, w.data(), out_c,
                             bias_or_null(), m, ids(),
                             y.data() + b * out_floats(), ws);
    }
    return y;
  }
  // The dense module-walk kernel on sample s, into its output slot.
  std::vector<float> run_dense(int s) {
    std::vector<float> y(static_cast<size_t>(kN) * out_floats(), y_init);
    std::vector<float> cols(
        static_cast<size_t>(g.patch_rows() * g.out_positions()));
    nn::conv_sample_dense(x.data() + s * in_floats(), g, w.data(), out_c,
                          bias_or_null(), cols.data(),
                          y.data() + s * out_floats(), ws);
    return y;
  }
  std::vector<float> run_i8(const nn::Int8ConvWeights& qw,
                            const nn::ConvRuntimeMask& m) {
    std::vector<float> y(static_cast<size_t>(kN) * out_floats(), y_init);
    nn::conv_group_masked(x.data(), in_floats(), g, w.data(), out_c,
                          bias_or_null(), m, samples, ids(), y.data(),
                          out_floats(), ws, tile, &qw);
    return y;
  }
};

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(CoarsenKernel, ChannelUnionSupersetBitwiseF32) {
  KernelRig rig;
  rig.zero_channel(6);
  rig.zero_channel(7);
  // Ragged kept sizes on both sides of the union, plus a kept-filter mask
  // (identical in both runs — filter sets must match for eligibility).
  nn::ConvRuntimeMask exact, sup;
  exact.channels = {0, 2, 4, 5};
  exact.out_channels = {0, 1, 3, 5};
  sup.channels = {0, 2, 4, 5, 6, 7};  // extras are zero input planes
  sup.out_channels = exact.out_channels;
  EXPECT_TRUE(bitwise_equal(rig.run_f32(exact), rig.run_f32(sup)));
}

TEST(CoarsenKernel, PositionUnionSupersetBitwiseF32) {
  KernelRig rig;
  std::vector<int> dropped;
  for (int p = 20; p < 30; ++p) {
    rig.zero_position(p);
    dropped.push_back(p);
  }
  nn::ConvRuntimeMask exact, sup;
  const int domain = rig.g.in_h * rig.g.in_w;
  for (int p = 0; p < domain; ++p) {
    if (p < 20 || p >= 30) exact.positions.push_back(p);
    // A saturated union of proper subsets stays an EXPLICIT full index
    // set (what the executor materializes), keeping the group on the
    // members' shift-GEMM path — the extra zero-input columns contribute
    // exact zeros to accumulators that can never be -0.
    sup.positions.push_back(p);
  }
  EXPECT_TRUE(bitwise_equal(rig.run_f32(exact), rig.run_f32(sup)));
}

TEST(CoarsenKernel, ChannelUnionSupersetBitwiseInt8) {
  KernelRig rig;
  rig.zero_channel(6);
  // Zero activations quantize to the zero-point exactly; the extra
  // channel's zp * weight rows cancel against the panel wsum correction
  // in exact int32 arithmetic, so the superset is bitwise even in int8.
  nn::Int8ConvWeights qw;
  nn::quantize_conv_weights(rig.w.data(), rig.out_c, rig.g.in_c,
                            rig.g.k_h * rig.g.k_w, qw);
  nn::ConvRuntimeMask exact, sup;
  exact.channels = {0, 1, 3, 4, 5};
  sup.channels = {0, 1, 3, 4, 5, 6};
  EXPECT_TRUE(bitwise_equal(rig.run_i8(qw, exact), rig.run_i8(qw, sup)));
}

// --- keep-all groups: the dense step and its scatter twin ----------------

// Untiled, a width that divides the 8x8 grid, and a ragged one.
constexpr int64_t kKeepAllTiles[] = {0, 16, 37};

// Both sides of the channel path's width test. At 1-4 members a 2x2 output
// grid lowers 4, 8, 12 or 16 columns and a 3x3 grid 9, 18, 27 or 36:
// below one 16-column gemm_nn panel the filter-lane kernel runs, from one
// panel up gemm_nn. Six filters fill part of one 16-filter tile; twenty
// fill one tile and part of a second.
const ConvGeom kNarrowGrids[] = {{8, 2, 2, 3, 3, 1, 1}, {8, 3, 3, 3, 3, 1, 1}};
constexpr int kNarrowFilterCounts[] = {6, 20};
constexpr int kNarrowMembers[] = {2, 5, 7, 0};  // a group of m: the first m

// The first `count` of kNarrowMembers.
std::vector<int> narrow_members(int count) {
  return std::vector<int>(kNarrowMembers, kNarrowMembers + count);
}

bool slot_equal(const std::vector<float>& a, const std::vector<float>& b,
                int64_t slot_floats, int s) {
  return std::memcmp(a.data() + s * slot_floats, b.data() + s * slot_floats,
                     static_cast<size_t>(slot_floats) * sizeof(float)) == 0;
}

TEST(CoarsenKernel, KeepAllOneMemberGroupMatchesDenseSampleBitwise) {
  // A dense plan step is one keep-all group per sample: the weights are
  // read in place and the scatter writes every row of the sample's output,
  // so no zero-fill is needed (the outputs start at a sentinel here) and
  // the result is the module walk's dense kernel.
  KernelRig rig;
  rig.y_init = -9.5f;
  const nn::ConvRuntimeMask keep_all;
  for (const bool with_bias : {true, false}) {
    rig.with_bias = with_bias;
    for (const int s : {0, 5}) {
      rig.samples = {s};
      const std::vector<float> ref = rig.run_dense(s);
      for (const int64_t tile : kKeepAllTiles) {
        rig.tile = tile;
        EXPECT_TRUE(bitwise_equal(rig.run_f32(keep_all), ref))
            << "sample " << s << ", tile " << tile << ", bias "
            << with_bias;
      }
    }
  }
  // The same on both sides of the width test, with 1-4 members: every
  // member's output is the dense kernel's on its sample.
  for (const ConvGeom& geom : kNarrowGrids) {
    for (const int filters : kNarrowFilterCounts) {
      KernelRig narrow(geom, filters);
      narrow.y_init = -9.5f;
      for (const bool with_bias : {true, false}) {
        narrow.with_bias = with_bias;
        for (int members = 1; members <= 4; ++members) {
          narrow.samples = narrow_members(members);
          const std::vector<float> got = narrow.run_f32(keep_all);
          for (const int s : narrow.samples) {
            EXPECT_TRUE(slot_equal(got, narrow.run_dense(s),
                                   narrow.out_floats(), s))
                << geom.out_h() << "x" << geom.out_w() << ", " << filters
                << " filters, " << members << " members, sample " << s
                << ", bias " << with_bias;
          }
        }
      }
    }
  }
}

TEST(CoarsenKernel, KeepAllTwoMemberGroupMatchesOneMemberBothRegimes) {
  // The same sample as a two-member group sits beside a second member in
  // one wider (i)gemm and scatter; each member's bytes must not change. The
  // second member repeats the first one's planes, so in int8 the group
  // quantizes at the one-member scale too. int8 quantizes a step's input
  // once, before the tile loop, so its output must not depend on the tile
  // width either: every tile matches the untiled (tile 0) bytes.
  KernelRig rig;
  std::copy(rig.x.begin(), rig.x.begin() + rig.in_floats(),
            rig.x.begin() + rig.in_floats());
  nn::Int8ConvWeights qw;
  nn::quantize_conv_weights(rig.w.data(), rig.out_c, rig.g.in_c,
                            rig.g.k_h * rig.g.k_w, qw);
  const nn::ConvRuntimeMask keep_all;
  const size_t slot = static_cast<size_t>(rig.out_floats());
  const auto same_slot = [&](const std::vector<float>& a, int sa,
                             const std::vector<float>& b, int sb) {
    return std::memcmp(a.data() + sa * slot, b.data() + sb * slot,
                       slot * sizeof(float)) == 0;
  };
  static_assert(kKeepAllTiles[0] == 0, "tile 0 is the untiled reference");
  for (const bool with_bias : {true, false}) {
    rig.with_bias = with_bias;
    std::vector<float> untiled_one_i8, untiled_two_i8;
    for (const int64_t tile : kKeepAllTiles) {
      rig.tile = tile;
      rig.samples = {0};
      const std::vector<float> one_f32 = rig.run_f32(keep_all);
      const std::vector<float> one_i8 = rig.run_i8(qw, keep_all);
      rig.samples = {0, 1};
      const std::vector<float> two_f32 = rig.run_f32(keep_all);
      const std::vector<float> two_i8 = rig.run_i8(qw, keep_all);
      if (tile == 0) {
        untiled_one_i8 = one_i8;
        untiled_two_i8 = two_i8;
      }
      EXPECT_TRUE(bitwise_equal(one_i8, untiled_one_i8))
          << "int8 one member, tile " << tile << " vs 0, bias " << with_bias;
      EXPECT_TRUE(bitwise_equal(two_i8, untiled_two_i8))
          << "int8 two members, tile " << tile << " vs 0, bias "
          << with_bias;
      for (const int member : {0, 1}) {
        EXPECT_TRUE(same_slot(two_f32, member, one_f32, 0))
            << "f32 member " << member << ", tile " << tile << ", bias "
            << with_bias;
        EXPECT_TRUE(same_slot(two_i8, member, one_i8, 0))
            << "int8 member " << member << ", tile " << tile << ", bias "
            << with_bias;
      }
    }
  }
}

// --- fused spatial kernel vs the per-sample module-walk kernel -----------

// `count` distinct positions of [0, domain), ascending, drawn by `seed`.
std::vector<int> some_positions(int count, int domain, uint64_t seed) {
  std::vector<int> all(static_cast<size_t>(domain));
  std::iota(all.begin(), all.end(), 0);
  Rng rng(seed);
  for (int i = domain - 1; i > 0; --i) {
    const uint64_t j = rng.next_below(static_cast<uint64_t>(i) + 1);
    std::swap(all[static_cast<size_t>(i)], all[static_cast<size_t>(j)]);
  }
  all.resize(static_cast<size_t>(count));
  std::sort(all.begin(), all.end());
  return all;
}

// Every position on the grid's four borders, ascending.
std::vector<int> border_positions(int h, int w) {
  std::vector<int> out;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      if (y == 0 || y == h - 1 || x == 0 || x == w - 1) {
        out.push_back(y * w + x);
      }
    }
  }
  return out;
}

// The masks every spatial parity case runs: kept-position counts on both
// sides of the 8-lane gather width and of a 16-column panel, all four
// borders (every inverse-table edge), filter subsets whose size is not a
// multiple of the 4-filter tile, and a single kept channel.
std::vector<nn::ConvRuntimeMask> spatial_cases(const ConvGeom& g) {
  const int domain = g.in_h * g.in_w;
  std::vector<nn::ConvRuntimeMask> cases;
  uint64_t seed = 5;
  for (int count : {1, 7, 8, 17, domain}) {
    nn::ConvRuntimeMask m;
    m.positions = some_positions(count, domain, seed++);
    cases.push_back(m);
  }
  nn::ConvRuntimeMask border;
  border.positions = border_positions(g.in_h, g.in_w);
  cases.push_back(border);
  for (const std::vector<int>& oc :
       {std::vector<int>{4}, std::vector<int>{0, 2, 5},
        std::vector<int>{0, 1, 2, 3, 5}}) {
    nn::ConvRuntimeMask m = border;
    m.out_channels = oc;
    cases.push_back(m);
  }
  nn::ConvRuntimeMask one_channel;
  one_channel.channels = {g.in_c - 1};
  one_channel.positions = some_positions(17, domain, seed++);
  cases.push_back(one_channel);
  nn::ConvRuntimeMask mixed;
  mixed.channels = {0, 2, 3, 6};
  mixed.positions = some_positions(domain / 2, domain, seed++);
  mixed.out_channels = {1, 2, 4};
  cases.push_back(mixed);
  return cases;
}

void expect_spatial_parity(KernelRig& rig) {
  for (int members : {1, 3, 8}) {
    rig.samples.resize(static_cast<size_t>(members));
    std::iota(rig.samples.begin(), rig.samples.end(), 0);
    // Without a bias, outputs no kept column reaches must stay exactly +0.
    for (bool with_bias : {true, false}) {
      rig.with_bias = with_bias;
      int index = 0;
      for (const nn::ConvRuntimeMask& m : spatial_cases(rig.g)) {
        EXPECT_TRUE(bitwise_equal(rig.run_f32(m), rig.run_reference(m)))
            << members << " members, bias " << with_bias << ", case "
            << index;
        ++index;
      }
    }
  }
}

TEST(CoarsenKernel, FusedSpatialMatchesPerSampleKernelBitwise) {
  KernelRig rig;
  expect_spatial_parity(rig);
}

TEST(CoarsenKernel, FusedSpatialOneByOneConvMatchesPerSampleKernelBitwise) {
  KernelRig rig(ConvGeom{8, 8, 8, 1, 1, 1, 0});
  expect_spatial_parity(rig);
}

// --- the group kernel's zero-fill contract ---------------------------------

struct NamedMask {
  const char* name;
  nn::ConvRuntimeMask m;
};

// conv_group_masked zero-fills exactly what its arithmetic does not write,
// so run into a NaN-filled output every member's output must equal the
// reference run into zeros, and every other sample must still be NaN. The
// f32 reference is the module walk's per-sample kernel; the int8 one is the
// same group into zeros (a group quantizes at one shared scale). Each f32
// group also runs on a fresh arena, whose peak is the call's scratch: at
// most conv_group_masked_scratch_bytes, and exactly its channel-path term
// for a keep-all group narrower than one gemm_nn panel (the filter-lane
// kernel allocates the lowered operand alone).
void expect_group_writes(KernelRig& rig, const std::vector<NamedMask>& masks) {
  nn::Int8ConvWeights qw;
  nn::quantize_conv_weights(rig.w.data(), rig.out_c, rig.g.in_c,
                            rig.g.k_h * rig.g.k_w, qw);
  const int gs = static_cast<int>(rig.samples.size());
  const size_t slot = static_cast<size_t>(rig.out_floats());
  for (const NamedMask& group : masks) {
    for (const int64_t tile : kKeepAllTiles) {
      rig.tile = tile;
      const std::string where =
          std::string(group.name) + ", " + std::to_string(rig.g.out_h()) +
          "x" + std::to_string(rig.g.out_w()) + ", " +
          std::to_string(rig.out_c) + " filters, " + std::to_string(gs) +
          " members, tile " + std::to_string(tile) + ", bias " +
          std::to_string(rig.with_bias);
      for (const bool int8 : {false, true}) {
        rig.y_init = std::numeric_limits<float>::quiet_NaN();
        Workspace fresh;
        const std::vector<float> got =
            int8 ? rig.run_i8(qw, group.m) : rig.run_f32(group.m, &fresh);
        rig.y_init = 0.f;
        const std::vector<float> ref =
            int8 ? rig.run_i8(qw, group.m) : rig.run_reference(group.m);
        if (!int8) {
          EXPECT_LE(fresh.peak_bytes(), nn::conv_group_masked_scratch_bytes(
                                            rig.g, rig.out_c, gs, false, tile))
              << where;
          const bool narrow = tile == 0 && group.m.channels.empty() &&
                              group.m.out_channels.empty() &&
                              group.m.positions.empty() &&
                              gs * rig.g.out_positions() < kGemmPanelCols;
          if (narrow) {
            EXPECT_EQ(fresh.peak_bytes(),
                      nn::conv_group_masked_scratch_bytes(
                          rig.g, rig.out_c, gs, false, 0,
                          /*spatial_masks=*/false))
                << where;
          }
        }
        for (int s = 0; s < KernelRig::kN; ++s) {
          const bool member = std::find(rig.samples.begin(),
                                        rig.samples.end(),
                                        s) != rig.samples.end();
          const float* g = got.data() + s * slot;
          if (member) {
            EXPECT_EQ(std::memcmp(g, ref.data() + s * slot,
                                  slot * sizeof(float)),
                      0)
                << where << ", int8 " << int8 << ", member " << s;
          } else {
            EXPECT_TRUE(std::all_of(g, g + slot,
                                    [](float v) { return std::isnan(v); }))
                << where << ", int8 " << int8 << ", non-member " << s;
          }
        }
      }
    }
  }
}

TEST(CoarsenKernel, GroupWritesEveryMemberElementAndNoOtherSample) {
  KernelRig rig;
  NamedMask keep_all{"keep-all", {}}, drop_filters{"filter-dropping", {}},
      drop_channels{"channel-dropping", {}}, spatial{"spatial", {}};
  drop_filters.m.out_channels = {0, 2, 5};
  drop_channels.m.channels = {0, 1, 3, 6};
  spatial.m.positions = some_positions(20, rig.g.in_h * rig.g.in_w, 9);
  rig.samples = {1, 4, 6};
  expect_group_writes(rig, {keep_all, drop_filters, drop_channels, spatial});

  // Both sides of the channel path's width test, with and without a bias.
  // Dropping every filter f with f % 8 == 3 leaves 5 of 6 (one ragged
  // tile) or 17 of 20 (a full tile and one lane of a second).
  for (const ConvGeom& geom : kNarrowGrids) {
    for (const int filters : kNarrowFilterCounts) {
      KernelRig narrow(geom, filters);
      NamedMask narrow_filters{"filter-dropping", {}};
      for (int f = 0; f < filters; ++f) {
        if (f % 8 != 3) narrow_filters.m.out_channels.push_back(f);
      }
      for (const bool with_bias : {true, false}) {
        narrow.with_bias = with_bias;
        for (int members = 1; members <= 4; ++members) {
          narrow.samples = narrow_members(members);
          expect_group_writes(narrow,
                              {keep_all, narrow_filters, drop_channels});
        }
      }
    }
  }
}

// --- end to end through the plan executor ---------------------------------

// Hand-built near-identical masks on the first conv (whose input is the
// network input, so the test can zero exactly the entries the masks drop —
// the gate invariant union safety relies on). Every sample drops input
// channel 1 and a private kBlock-position spatial block, so all 8 masks
// are pairwise distinct (8 exact-identity buckets) but overlap so heavily
// that the coarsening cost model merges them.
struct E2ERig {
  static constexpr int kBatch = 8;
  static constexpr int kBlock = 8;  // positions each sample drops
  std::unique_ptr<models::ConvNet> net;
  nn::Conv2d* conv0 = nullptr;
  Tensor x;
  std::vector<nn::ConvRuntimeMask> masks;

  E2ERig() {
    EXPECT_TRUE(kForcedThreads);
    Rng rng(29);
    net = models::make_model("small_cnn", 10, 1.0f, rng);
    net->set_training(false);
    Rng data_rng(41);
    x = Tensor::randn({kBatch, 3, 16, 16}, data_rng);
    masks.resize(kBatch);
    const int64_t plane = 16 * 16;
    for (int i = 0; i < kBatch; ++i) {
      nn::ConvRuntimeMask& m = masks[static_cast<size_t>(i)];
      const int drop_ch = 1;
      for (int c = 0; c < 3; ++c) {
        if (c != drop_ch) m.channels.push_back(c);
      }
      const int p0 = kBlock * i, p1 = p0 + kBlock;
      for (int p = 0; p < plane; ++p) {
        if (p < p0 || p >= p1) m.positions.push_back(p);
      }
      // Zero what the mask drops, exactly like the hard top-k gates do
      // upstream, so union extras contribute exact zeros.
      float* xb = x.data() + i * 3 * plane;
      std::memset(xb + drop_ch * plane, 0,
                  static_cast<size_t>(plane) * sizeof(float));
      for (int c = 0; c < 3; ++c) {
        for (int p = p0; p < p1; ++p) xb[c * plane + p] = 0.f;
      }
    }
  }

  // The first conv step of the compiled plan (the op the masks target).
  void bind_conv(plan::InferencePlan& plan) {
    for (const plan::PlanOp& op : plan.ops()) {
      if (op.kind == plan::OpKind::kConv) {
        conv0 = op.conv;
        break;
      }
    }
    ASSERT_NE(conv0, nullptr);
  }
};

TEST(CoarsenE2E, MergedScheduleBitwiseEqualsModuleWalkZeroGrowthF32) {
  E2ERig rig;
  rig.net->set_coarsen_policy(
      plan::CoarsenMode::kAuto);
  plan::InferencePlan& plan = rig.net->inference_plan(3, 16, 16);
  rig.bind_conv(plan);

  // Per-sample module walk with the same masks: the bitwise reference.
  rig.conv0->set_runtime_masks(rig.masks);
  const Tensor plain = rig.net->forward(rig.x);

  nn::ExecutionContext ctx;
  plan.reserve(ctx.workspace(), E2ERig::kBatch);
  const int64_t grows = ctx.workspace().grow_count();
  for (int pass = 0; pass < 3; ++pass) {
    rig.conv0->set_runtime_masks(rig.masks);
    ctx.begin_pass();
    Tensor staged = ctx.alloc(rig.x.shape());
    std::memcpy(staged.data(), rig.x.data(),
                static_cast<size_t>(rig.x.size()) * sizeof(float));
    const Tensor fused = rig.net->forward(staged, ctx);
    ASSERT_TRUE(plain.same_shape(fused));
    EXPECT_EQ(std::memcmp(plain.data(), fused.data(),
                          static_cast<size_t>(plain.size()) * sizeof(float)),
              0)
        << "pass " << pass;
    EXPECT_EQ(ctx.workspace().grow_count(), grows) << "pass " << pass;
  }
  // All 8 masks are distinct, so exact-identity bucketing sees 8 groups;
  // the latency model must find merges among these near-identical kept
  // sets (fewer ceil(G/W) dispatch rounds for a handful of union MACs).
  EXPECT_EQ(plan.last_mask_groups_raw(), E2ERig::kBatch);
  EXPECT_LT(plan.last_mask_groups(), plan.last_mask_groups_raw());
  EXPECT_GT(plan.last_coarsen_extra_macs(), 0);
  EXPECT_GT(plan.last_coarsen_extra_mac_frac(), 0.0);
  EXPECT_LT(plan.last_coarsen_extra_mac_frac(), 0.5);
}

TEST(CoarsenE2E, CoarsenOffExecutesExactIdentityButStaysBitwise) {
  E2ERig rig;
  rig.net->set_coarsen_policy(plan::CoarsenMode::kOff);
  plan::InferencePlan& plan = rig.net->inference_plan(3, 16, 16);
  rig.bind_conv(plan);
  rig.conv0->set_runtime_masks(rig.masks);
  const Tensor plain = rig.net->forward(rig.x);

  nn::ExecutionContext ctx;
  plan.reserve(ctx.workspace(), E2ERig::kBatch);
  rig.conv0->set_runtime_masks(rig.masks);
  ctx.begin_pass();
  Tensor staged = ctx.alloc(rig.x.shape());
  std::memcpy(staged.data(), rig.x.data(),
              static_cast<size_t>(rig.x.size()) * sizeof(float));
  const Tensor fused = rig.net->forward(staged, ctx);
  EXPECT_EQ(std::memcmp(plain.data(), fused.data(),
                        static_cast<size_t>(plain.size()) * sizeof(float)),
            0);
  EXPECT_EQ(plan.last_mask_groups(), E2ERig::kBatch);
  EXPECT_EQ(plan.last_mask_groups_raw(), E2ERig::kBatch);
  EXPECT_EQ(plan.last_coarsen_extra_macs(), 0);
}

TEST(CoarsenE2E, Int8CoarsenedPassZeroGrowthWithinAccuracyBudget) {
  E2ERig rig;
  // f32 per-sample module walk reference (int8 is tolerance-compared, not
  // bitwise: group membership feeds the dynamic activation scale).
  rig.net->set_coarsen_policy(
      plan::CoarsenMode::kAuto);
  plan::InferencePlan& plan = rig.net->inference_plan(3, 16, 16);
  rig.bind_conv(plan);
  rig.conv0->set_runtime_masks(rig.masks);
  const Tensor plain = rig.net->forward(rig.x);

  rig.net->set_numeric_regime(plan::NumericRegime::kInt8);
  nn::ExecutionContext ctx;
  plan.reserve(ctx.workspace(), E2ERig::kBatch);
  const int64_t grows = ctx.workspace().grow_count();
  Tensor last;
  for (int pass = 0; pass < 2; ++pass) {
    rig.conv0->set_runtime_masks(rig.masks);
    ctx.begin_pass();
    Tensor staged = ctx.alloc(rig.x.shape());
    std::memcpy(staged.data(), rig.x.data(),
                static_cast<size_t>(rig.x.size()) * sizeof(float));
    last = rig.net->forward(staged, ctx).clone();
    EXPECT_EQ(ctx.workspace().grow_count(), grows) << "pass " << pass;
  }
  EXPECT_EQ(plan.last_mask_groups_raw(), E2ERig::kBatch);
  EXPECT_LE(plan.last_mask_groups(), plan.last_mask_groups_raw());
  // Same relative accuracy budget as the int8 plan test in int8_quant_test.
  ASSERT_TRUE(plain.same_shape(last));
  double max_diff = 0.0, max_ref = 0.0;
  for (int64_t i = 0; i < plain.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(double(plain[i]) - last[i]));
    max_ref = std::max(max_ref, std::abs(double(plain[i])));
  }
  EXPECT_GT(max_ref, 0.0);
  EXPECT_LE(max_diff / max_ref, 0.05);
}

}  // namespace
}  // namespace antidote
