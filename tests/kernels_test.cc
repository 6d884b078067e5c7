// Word-blocked-vs-reference parity for every masked run kernel: each
// kernel must produce results bit-identical to its ...Scalar per-element
// reference, over randomized values (including ±0.0, denormals, huge and
// tiny magnitudes), randomized bitmaps (including all-set and all-clear),
// word-misaligned bit offsets and ragged lengths, and weights both == 1.0
// and != 1.0.

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "agg/kernels.h"
#include "common/rng.h"
#include "common/value.h"

namespace olap::kernels {
namespace {

constexpr int kRounds = 400;
constexpr int kMaxLen = 333;       // > 5 mask words of 64, with ragged tail.
constexpr int kMaxBitOffset = 200; // Crosses multiple word boundaries.

double RandomValue(Rng& rng) {
  switch (rng.NextBelow(10)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return 5e-324;                    // Smallest denormal.
    case 3: return -2.2250738585072014e-308;  // Negative min normal.
    case 4: return 1e300;
    case 5: return -1e300;
    case 6: return 1e-300;
    default: return (rng.NextDouble() - 0.5) * 2e6;
  }
}

// A random word array covering [0, bits): mostly random words, sometimes
// all-ones or all-zero so the dense and empty fast paths both run.
std::vector<uint64_t> RandomMask(Rng& rng, int64_t bits) {
  std::vector<uint64_t> words((bits + 63) / 64 + 1, 0);
  const uint64_t mode = rng.NextBelow(4);
  for (uint64_t& w : words) {
    if (mode == 0) {
      w = ~uint64_t{0};
    } else if (mode == 1) {
      w = 0;
    } else {
      w = rng.Next();
    }
  }
  return words;
}

std::vector<double> RandomValues(Rng& rng, int64_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = RandomValue(rng);
  return v;
}

// Sentinel-encoded array: a mix of ⊥ sentinels and values.
std::vector<double> RandomSentinel(Rng& rng, int64_t n) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.NextBool(0.3) ? CellValue::NullStorage() : RandomValue(rng);
  }
  return v;
}

bool BytesEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(KernelsTest, MaskedRunSumMatchesScalar) {
  Rng rng(101);
  for (int round = 0; round < kRounds; ++round) {
    const int64_t len = rng.NextBelow(kMaxLen + 1);
    const int64_t off = rng.NextBelow(kMaxBitOffset + 1);
    std::vector<uint64_t> mask = RandomMask(rng, off + len);
    std::vector<double> values = RandomValues(rng, len);
    RunSum got = MaskedRunSum(values.data(), mask.data(), off, len);
    RunSum want = MaskedRunSumScalar(values.data(), mask.data(), off, len);
    EXPECT_EQ(got.count, want.count) << "round " << round;
    EXPECT_EQ(0, std::memcmp(&got.sum, &want.sum, sizeof(double)))
        << "round " << round << ": " << got.sum << " vs " << want.sum;
  }
}

TEST(KernelsTest, MergeWeightedRunIntoSentinelMatchesScalar) {
  Rng rng(202);
  const double weights[] = {1.0, 0.77, -1.25, 0.0};
  for (int round = 0; round < kRounds; ++round) {
    const double w = weights[round % 4];
    const int64_t len = rng.NextBelow(kMaxLen + 1);
    const int64_t off = rng.NextBelow(kMaxBitOffset + 1);
    std::vector<uint64_t> mask = RandomMask(rng, off + len);
    std::vector<double> src = RandomValues(rng, len);
    std::vector<double> dst = RandomSentinel(rng, len);
    std::vector<double> dst2 = dst;
    MergeWeightedRunIntoSentinel(w, src.data(), mask.data(), off, dst.data(),
                                 len);
    MergeWeightedRunIntoSentinelScalar(w, src.data(), mask.data(), off,
                                       dst2.data(), len);
    EXPECT_TRUE(BytesEqual(dst, dst2)) << "round " << round << " w " << w;
  }
}

TEST(KernelsTest, CopyRunMaskedMatchesScalar) {
  Rng rng(404);
  for (int round = 0; round < kRounds; ++round) {
    const int64_t len = rng.NextBelow(kMaxLen + 1);
    const int64_t src_off = rng.NextBelow(kMaxBitOffset + 1);
    const int64_t dst_off = rng.NextBelow(kMaxBitOffset + 1);
    std::vector<uint64_t> src_mask = RandomMask(rng, src_off + len);
    std::vector<double> src = RandomValues(rng, len);
    // Pre-populated destination: ⊥-source positions must stay untouched,
    // both the value slot and the validity bit.
    std::vector<uint64_t> dst_mask = RandomMask(rng, dst_off + len);
    std::vector<double> dst = RandomValues(rng, dst_off + len);
    std::vector<uint64_t> dst_mask2 = dst_mask;
    std::vector<double> dst2 = dst;
    int64_t got = CopyRunMasked(src.data(), src_mask.data(), src_off,
                                dst.data() + dst_off, dst_mask.data(), dst_off,
                                len);
    int64_t want = CopyRunMaskedScalar(src.data(), src_mask.data(), src_off,
                                       dst2.data() + dst_off, dst_mask2.data(),
                                       dst_off, len);
    EXPECT_EQ(got, want) << "round " << round;
    EXPECT_TRUE(BytesEqual(dst, dst2)) << "round " << round;
    EXPECT_EQ(dst_mask, dst_mask2) << "round " << round;
  }
}

TEST(KernelsTest, ExpandToSentinelMatchesScalar) {
  Rng rng(505);
  for (int round = 0; round < kRounds; ++round) {
    const int64_t len = rng.NextBelow(kMaxLen + 1);
    const int64_t off = rng.NextBelow(kMaxBitOffset + 1);
    std::vector<uint64_t> mask = RandomMask(rng, off + len);
    std::vector<double> values = RandomValues(rng, len);
    std::vector<double> out(len, 42.0), out2(len, 42.0);
    ExpandToSentinel(values.data(), mask.data(), off, out.data(), len);
    ExpandToSentinelScalar(values.data(), mask.data(), off, out2.data(), len);
    EXPECT_TRUE(BytesEqual(out, out2)) << "round " << round;
  }
}

TEST(KernelsTest, DecodeSentinelRunMatchesScalar) {
  Rng rng(606);
  for (int round = 0; round < kRounds; ++round) {
    const int64_t len = rng.NextBelow(kMaxLen + 1);
    const int64_t off = rng.NextBelow(kMaxBitOffset + 1);
    // Raw storage doubles: values, the canonical ⊥ sentinel, and foreign
    // NaN payloads — every NaN must decode as ⊥.
    std::vector<double> raw(len);
    for (double& x : raw) {
      switch (rng.NextBelow(5)) {
        case 0: x = CellValue::NullStorage(); break;
        case 1: x = std::numeric_limits<double>::quiet_NaN(); break;
        default: x = RandomValue(rng); break;
      }
    }
    std::vector<uint64_t> mask((off + len + 63) / 64 + 1, 0);  // Must be clear.
    std::vector<uint64_t> mask2 = mask;
    std::vector<double> values(len, 0.0), values2(len, 0.0);
    int64_t got =
        DecodeSentinelRun(raw.data(), values.data(), mask.data(), off, len);
    int64_t want = DecodeSentinelRunScalar(raw.data(), values2.data(),
                                           mask2.data(), off, len);
    EXPECT_EQ(got, want) << "round " << round;
    EXPECT_TRUE(BytesEqual(values, values2)) << "round " << round;
    EXPECT_EQ(mask, mask2) << "round " << round;
  }
}

TEST(KernelsTest, PopcountAndAnyBitMatchNaiveScan) {
  Rng rng(707);
  for (int round = 0; round < kRounds; ++round) {
    const int64_t len = rng.NextBelow(kMaxLen + 1);
    const int64_t off = rng.NextBelow(kMaxBitOffset + 1);
    std::vector<uint64_t> mask = RandomMask(rng, off + len);
    int64_t naive = 0;
    for (int64_t i = 0; i < len; ++i) {
      naive += (mask[(off + i) >> 6] >> ((off + i) & 63)) & 1;
    }
    EXPECT_EQ(AnyBitInRange(mask.data(), off, len), naive > 0)
        << "round " << round;
  }
}

}  // namespace
}  // namespace olap::kernels
