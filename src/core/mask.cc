#include "core/mask.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
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
  SelectScratch scratch;
  std::vector<int> kept;
  select_kept_into(attention,
                   kept_count(static_cast<int>(attention.size()), drop_ratio),
                   order, rng, scratch, kept);
  return kept;
}

namespace {

// The ascending scan of select_kept_into: keeps every index whose value
// ranks strictly ahead of `pivot` (above it for kTop, below it otherwise)
// plus the first `ties` indices equal to it. Branch-free: `kept` holds n
// slots and each index is written, then kept or overwritten. Returns the
// kept count.
template <bool kTop>
int scan_kept(std::span<const float> attention, float pivot, int ties,
              int* kept) {
  const int n = static_cast<int>(attention.size());
  int m = 0;
  for (int i = 0; i < n; ++i) {
    const float v = attention[static_cast<size_t>(i)];
    const bool ahead = kTop ? v > pivot : v < pivot;
    const bool tie = (v == pivot) & (ties > 0);
    kept[m] = i;
    m += ahead | tie;
    ties -= tie;
  }
  return m;
}

}  // namespace

void select_kept_into(std::span<const float> attention, int k,
                      MaskOrder order, Rng& rng, SelectScratch& scratch,
                      std::vector<int>& kept) {
  const int n = static_cast<int>(attention.size());
  AD_CHECK(k >= 1 && k <= n) << " kept count " << k << " of " << n;
  if (order == MaskOrder::kRandom) {
    // Same draw as Rng::permutation: shuffle of iota, first k kept.
    scratch.order.resize(static_cast<size_t>(n));
    std::iota(scratch.order.begin(), scratch.order.end(), 0);
    rng.shuffle(scratch.order);
    kept.assign(scratch.order.begin(), scratch.order.begin() + k);
    std::sort(kept.begin(), kept.end());
    return;
  }
  // The k-th ranked value. After nth_element every value in [0, k - 1)
  // ranks no later than it and every value after it no earlier, so the
  // values ranked strictly ahead of the pivot are exactly the ones in that
  // prefix, and the remaining k - ahead kept slots go to its ties.
  const bool top = order == MaskOrder::kAttention;
  std::vector<float>& v = scratch.values;
  v.assign(attention.begin(), attention.end());
  const auto kth = v.begin() + (k - 1);
  if (top) {
    std::nth_element(v.begin(), kth, v.end(), std::greater<float>());
  } else {
    std::nth_element(v.begin(), kth, v.end());
  }
  const float pivot = *kth;
  int ahead = 0;
  for (auto it = v.begin(); it != kth; ++it) {
    ahead += top ? *it > pivot : *it < pivot;
  }
  kept.resize(static_cast<size_t>(n));
  const int m = top ? scan_kept<true>(attention, pivot, k - ahead, kept.data())
                    : scan_kept<false>(attention, pivot, k - ahead,
                                       kept.data());
  kept.resize(static_cast<size_t>(m));
}

std::vector<uint8_t> kept_to_mask(std::span<const int> kept, int n) {
  std::vector<uint8_t> mask(static_cast<size_t>(n), 0);
  for (int i : kept) {
    AD_CHECK(i >= 0 && i < n) << " kept index " << i;
    mask[static_cast<size_t>(i)] = 1;
  }
  return mask;
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

int mask_intersect_bits(const uint64_t* a, const uint64_t* b, int words) {
  int count = 0;
  for (int i = 0; i < words; ++i) count += std::popcount(a[i] & b[i]);
  return count;
}

void union_bits_inplace(uint64_t* dst, const uint64_t* src, int words) {
  for (int i = 0; i < words; ++i) dst[i] |= src[i];
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
