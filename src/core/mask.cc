#include "core/mask.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "base/error.h"

namespace antidote::core {

const char* mask_order_name(MaskOrder order) {
  switch (order) {
    case MaskOrder::kAttention:
      return "attention";
    case MaskOrder::kRandom:
      return "random";
    case MaskOrder::kInverseAttention:
      return "inverse";
  }
  return "?";
}

int kept_count(int n, float drop_ratio) {
  AD_CHECK_GT(n, 0);
  AD_CHECK(drop_ratio >= 0.f && drop_ratio <= 1.f)
      << " drop ratio " << drop_ratio;
  const int dropped = static_cast<int>(std::lround(drop_ratio * n));
  return std::clamp(n - dropped, 1, n);
}

std::vector<int> select_kept(std::span<const float> attention,
                             float drop_ratio, MaskOrder order, Rng& rng) {
  std::vector<int> scratch, kept;
  select_kept_into(attention, drop_ratio, order, rng, scratch, kept);
  return kept;
}

void select_kept_into(std::span<const float> attention, float drop_ratio,
                      MaskOrder order, Rng& rng, std::vector<int>& scratch,
                      std::vector<int>& kept) {
  const int n = static_cast<int>(attention.size());
  const int k = kept_count(n, drop_ratio);
  scratch.resize(static_cast<size_t>(n));
  std::iota(scratch.begin(), scratch.end(), 0);
  if (order == MaskOrder::kRandom) {
    // Same draw as Rng::permutation: shuffle of iota, first k kept.
    rng.shuffle(scratch);
    kept.assign(scratch.begin(), scratch.begin() + k);
    std::sort(kept.begin(), kept.end());
    return;
  }
  // Strict total order: a ranks ahead of b by value (descending for
  // attention, ascending for inverse), ties to the lower index.
  const bool top = order == MaskOrder::kAttention;
  const auto ahead = [&](int a, int b) {
    const float va = attention[static_cast<size_t>(a)];
    const float vb = attention[static_cast<size_t>(b)];
    if (va != vb) return top ? va > vb : va < vb;
    return a < b;
  };
  // nth_element puts the k-th ranked index at k - 1. Under a strict total
  // order exactly k indices do not rank behind it, so marking those in
  // one ascending scan emits the kept set already sorted.
  std::nth_element(scratch.begin(), scratch.begin() + (k - 1),
                   scratch.end(), ahead);
  const int pivot = scratch[static_cast<size_t>(k - 1)];
  kept.clear();
  kept.reserve(static_cast<size_t>(k));
  for (int i = 0; i < n; ++i) {
    if (!ahead(pivot, i)) kept.push_back(i);
  }
}

std::vector<uint8_t> kept_to_mask(std::span<const int> kept, int n) {
  std::vector<uint8_t> mask;
  kept_to_mask_into(kept, n, mask);
  return mask;
}

void kept_to_mask_into(std::span<const int> kept, int n,
                       std::vector<uint8_t>& mask) {
  mask.assign(static_cast<size_t>(n), 0);
  for (int i : kept) {
    AD_CHECK(i >= 0 && i < n) << " kept index " << i;
    mask[static_cast<size_t>(i)] = 1;
  }
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t fnv1a_ints(uint64_t h, std::span<const int> v) {
  for (int i : v) {
    // Mix all four value bytes; kept indices are small non-negative ints,
    // so byte-wise mixing keeps nearby sets well separated.
    uint32_t u = static_cast<uint32_t>(i);
    for (int b = 0; b < 4; ++b) {
      h = (h ^ (u & 0xffu)) * kFnvPrime;
      u >>= 8;
    }
  }
  // Component separator: an empty-vs-absent boundary must change the key.
  h = (h ^ 0xabu) * kFnvPrime;
  return h;
}

}  // namespace

uint64_t mask_key(const nn::ConvRuntimeMask& m) {
  uint64_t h = kFnvOffset;
  h = fnv1a_ints(h, m.channels);
  h = fnv1a_ints(h, m.positions);
  h = fnv1a_ints(h, m.out_channels);
  return h;
}

bool mask_equal(const nn::ConvRuntimeMask& a, const nn::ConvRuntimeMask& b) {
  // Kept-count fast-reject: check all three component sizes before any
  // element compare, so unequal masks (the common case while bucketing a
  // high-entropy batch) bail before touching index data.
  if (a.channels.size() != b.channels.size() ||
      a.positions.size() != b.positions.size() ||
      a.out_channels.size() != b.out_channels.size()) {
    return false;
  }
  return a.channels == b.channels && a.positions == b.positions &&
         a.out_channels == b.out_channels;
}

void pack_kept_bits(std::span<const int> kept, int n, uint64_t* words) {
  AD_CHECK_GT(n, 0);
  const int nw = mask_bits_words(n);
  if (kept.empty()) {
    // Empty = keep all: set every valid bit, clear the tail so word-wise
    // popcounts and equality see a canonical representation.
    for (int w = 0; w < nw; ++w) words[w] = ~0ULL;
    const int tail = n & 63;
    if (tail != 0) words[nw - 1] = (1ULL << tail) - 1;
    return;
  }
  for (int w = 0; w < nw; ++w) words[w] = 0;
  for (int i : kept) {
    AD_CHECK(i >= 0 && i < n) << " kept index " << i;
    words[i >> 6] |= 1ULL << (i & 63);
  }
}

int popcount_words(const uint64_t* w, int words) {
  int count = 0;
  for (int i = 0; i < words; ++i) count += std::popcount(w[i]);
  return count;
}

int mask_symdiff_bits(const uint64_t* a, int ka, const uint64_t* b, int kb,
                      int words, int limit) {
  // |a ^ b| >= ||a| - |b||: when the kept counts alone are `limit` apart
  // the sets cannot be closer either, so the words are never touched.
  const int gap = ka > kb ? ka - kb : kb - ka;
  if (gap >= limit) return limit;
  int count = 0;
  for (int i = 0; i < words; ++i) {
    count += std::popcount(a[i] ^ b[i]);
    if (count >= limit) return limit;
  }
  return count;
}

int mask_intersect_bits(const uint64_t* a, const uint64_t* b, int words) {
  int count = 0;
  for (int i = 0; i < words; ++i) count += std::popcount(a[i] & b[i]);
  return count;
}

void union_bits_inplace(uint64_t* dst, const uint64_t* src, int words) {
  for (int i = 0; i < words; ++i) dst[i] |= src[i];
}

bool bits_equal(const uint64_t* a, const uint64_t* b, int words) {
  for (int i = 0; i < words; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

void bits_to_kept(const uint64_t* words, int n, std::vector<int>& kept) {
  kept.clear();
  const int nw = mask_bits_words(n);
  if (popcount_words(words, nw) == n) return;  // full set = keep all = empty
  for (int w = 0; w < nw; ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      kept.push_back((w << 6) + bit);
      bits &= bits - 1;
    }
  }
}

}  // namespace antidote::core
