// Binary top-k mask generation (paper Eq. 3 / Eq. 4).
//
// Given attention coefficients and a *drop ratio* r, the mask keeps the
// top k = n - round(r*n) entries (always at least one) and drops the rest.
// Three orderings are supported, matching the paper's Fig. 2 comparison:
//   kAttention        — keep the highest-attention entries (the method),
//   kRandom           — keep a uniformly random subset of the same size,
//   kInverseAttention — keep the lowest-attention entries (adversarial).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/rng.h"
#include "nn/conv2d.h"

namespace antidote::core {

enum class MaskOrder { kAttention, kRandom, kInverseAttention };

const char* mask_order_name(MaskOrder order);

// Number of entries kept out of `n` at drop ratio `drop_ratio` in [0, 1]:
// n - round(drop_ratio * n), clamped to [1, n].
int kept_count(int n, float drop_ratio);

// Indices (sorted ascending) kept by the mask over `attention` at the given
// drop ratio and ordering. `rng` is consulted only for kRandom.
std::vector<int> select_kept(std::span<const float> attention,
                             float drop_ratio, MaskOrder order, Rng& rng);

// Reusable scratch of select_kept_into.
struct SelectScratch {
  std::vector<float> values;  // attention orders: the pivot search's copy
  std::vector<int> order;     // kRandom: the shuffled indices
};

// Reusable-buffer variant for the inference hot path, by kept count
// `k` in [1, attention.size()] rather than drop ratio: `scratch` and
// `kept` retain their capacity across calls (zero allocations once warm).
// Result identical to select_kept at any ratio whose kept_count is `k`:
// value descending for kAttention (ascending for kInverseAttention), ties
// to the lower index, returned ascending. The k-th ranked value is found
// with nth_element over a copy of the values; one ascending scan then
// keeps every value ranked ahead of it plus the lowest-index ties. Values
// must not be NaN.
void select_kept_into(std::span<const float> attention, int k,
                      MaskOrder order, Rng& rng, SelectScratch& scratch,
                      std::vector<int>& kept);

// Expands kept indices into a dense 0/1 mask of length n.
std::vector<uint8_t> kept_to_mask(std::span<const int> kept, int n);

// Canonical 64-bit key of a runtime mask's kept sets (FNV-1a over the
// three index vectors with component separators). Masks with equal kept
// sets always hash equal, so a batch executor can bucket samples by key
// and execute each bucket as one compacted multi-sample problem; callers
// that must be collision-proof confirm key matches with mask_equal.
uint64_t mask_key(const nn::ConvRuntimeMask& m);
// Exact kept-set equality (all three components), with a kept-count
// fast-reject: all three component sizes are compared before any
// element-wise walk, so bucketing a batch of obviously unequal masks
// never touches the index data.
bool mask_equal(const nn::ConvRuntimeMask& a, const nn::ConvRuntimeMask& b);

// --- packed kept-set bitsets (similar-mask union coarsening) --------------
//
// The coarsening planner compares and merges kept sets many times per
// pass, so the sorted index vectors are packed once into little-endian
// 64-bit bitsets and all similarity/union arithmetic runs as word-wise
// popcounts. An EMPTY kept vector means "keep all" (the ConvRuntimeMask
// convention), and packs as all `n` bits set — so intersections and
// unions need no keep-all special case.

// Words needed for an n-bit kept set.
inline int mask_bits_words(int n) { return (n + 63) / 64; }

// Packs sorted kept indices over a domain of `n` into `words` (the caller
// provides mask_bits_words(n) of them). Empty `kept` sets all n bits.
void pack_kept_bits(std::span<const int> kept, int n, uint64_t* words);

// Total population count of a packed set.
int popcount_words(const uint64_t* w, int words);

// Popcount of the intersection |a & b|.
int mask_intersect_bits(const uint64_t* a, const uint64_t* b, int words);

// dst |= src over `words`.
void union_bits_inplace(uint64_t* dst, const uint64_t* src, int words);

// Unpacks a bitset over domain `n` back into sorted kept indices,
// canonicalized to the ConvRuntimeMask convention: a full set (all n bits)
// yields an EMPTY vector (= keep all). Reuses `kept`'s capacity.
void bits_to_kept(const uint64_t* words, int n, std::vector<int>& kept);

}  // namespace antidote::core
