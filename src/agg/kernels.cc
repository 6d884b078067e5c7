#include "agg/kernels.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/value.h"

namespace olap::kernels {
namespace {

using detail::LoadBits;
using detail::OrBitsAt;
using detail::SetBit;
using detail::TestBit;

inline uint64_t FullMask(int count) {
  return count >= 64 ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
}

inline bool IsSentinelNull(double raw) { return CellValue::IsStorageNull(raw); }

const double kNullDouble = CellValue::NullStorage();

}  // namespace

// ---------------------------------------------------------------------------
// Word-blocked kernels: per-element arithmetic identical to the references
// below (so results are trivially bit-identical to them), but the mask is
// read one word per 64 elements and the all-valid / all-invalid word fast
// paths run dense loops the compiler can auto-vectorize.
// ---------------------------------------------------------------------------

RunSum MaskedRunSum(const double* values, const uint64_t* valid,
                    int64_t bit_offset, int64_t len) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  int64_t count = 0;
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    const uint64_t m = LoadBits(valid, bit_offset + i, n);
    count += std::popcount(m);
    const double* p = values + i;
    if (m == FullMask(n)) {
      int k = 0;
      for (; k + 4 <= n; k += 4) {
        acc[0] += p[k];
        acc[1] += p[k + 1];
        acc[2] += p[k + 2];
        acc[3] += p[k + 3];
      }
      for (; k < n; ++k) acc[k & 3] += p[k];
    } else if (m != 0) {
      for (int k = 0; k < n; ++k) {
        if ((m >> k) & 1u) acc[k & 3] += p[k];
      }
    }
    i += n;
  }
  return {(acc[0] + acc[1]) + (acc[2] + acc[3]), count};
}

void MergeWeightedRunIntoSentinel(double w, const double* src_values,
                                  const uint64_t* src_valid,
                                  int64_t src_bit_offset, double* dst,
                                  int64_t len) {
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    const uint64_t m = LoadBits(src_valid, src_bit_offset + i, n);
    if (m != 0) {
      const double* s = src_values + i;
      double* d = dst + i;
      for (int k = 0; k < n; ++k) {
        if (!((m >> k) & 1u)) continue;
        d[k] = IsSentinelNull(d[k]) ? w * s[k] : std::fma(w, s[k], d[k]);
      }
    }
    i += n;
  }
}

void MergeWeightedSentinelRun(double w, const double* src, double* dst,
                              int64_t len) {
  for (int64_t i = 0; i < len; ++i) {
    const double s = src[i];
    if (IsSentinelNull(s)) continue;
    dst[i] = IsSentinelNull(dst[i]) ? w * s : std::fma(w, s, dst[i]);
  }
}

int64_t CopyRunMasked(const double* src_values, const uint64_t* src_valid,
                      int64_t src_bit_offset, double* dst_values,
                      uint64_t* dst_valid, int64_t dst_bit_offset,
                      int64_t len) {
  int64_t copied = 0;
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    const uint64_t m = LoadBits(src_valid, src_bit_offset + i, n);
    if (m != 0) {
      OrBitsAt(dst_valid, dst_bit_offset + i, m, n);
      copied += std::popcount(m);
      if (m == FullMask(n)) {
        std::memcpy(dst_values + i, src_values + i, sizeof(double) * n);
      } else {
        uint64_t bits = m;
        while (bits != 0) {
          const int k = std::countr_zero(bits);
          dst_values[i + k] = src_values[i + k];
          bits &= bits - 1;
        }
      }
    }
    i += n;
  }
  return copied;
}

void ExpandToSentinel(const double* values, const uint64_t* valid,
                      int64_t bit_offset, double* out, int64_t len) {
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    const uint64_t m = LoadBits(valid, bit_offset + i, n);
    if (m == FullMask(n)) {
      std::memcpy(out + i, values + i, sizeof(double) * n);
    } else if (m == 0) {
      for (int k = 0; k < n; ++k) out[i + k] = kNullDouble;
    } else {
      for (int k = 0; k < n; ++k) {
        out[i + k] = ((m >> k) & 1u) ? values[i + k] : kNullDouble;
      }
    }
    i += n;
  }
}

int64_t DecodeSentinelRun(const double* raw, double* values, uint64_t* valid,
                          int64_t bit_offset, int64_t len) {
  int64_t count = 0;
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    uint64_t m = 0;
    for (int k = 0; k < n; ++k) {
      const double r = raw[i + k];
      if (std::isnan(r)) {
        values[i + k] = 0.0;
      } else {
        values[i + k] = r;
        m |= uint64_t{1} << k;
      }
    }
    if (m != 0) {
      OrBitsAt(valid, bit_offset + i, m, n);
      count += std::popcount(m);
    }
    i += n;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Per-element references. These DEFINE the results; the kernels above must
// match them bitwise.
// ---------------------------------------------------------------------------

RunSum MaskedRunSumScalar(const double* values, const uint64_t* valid,
                          int64_t bit_offset, int64_t len) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  int64_t count = 0;
  for (int64_t i = 0; i < len; ++i) {
    if (TestBit(valid, bit_offset + i)) {
      acc[i & 3] += values[i];
      ++count;
    }
  }
  return {(acc[0] + acc[1]) + (acc[2] + acc[3]), count};
}

void MergeWeightedRunIntoSentinelScalar(double w, const double* src_values,
                                        const uint64_t* src_valid,
                                        int64_t src_bit_offset, double* dst,
                                        int64_t len) {
  for (int64_t i = 0; i < len; ++i) {
    if (!TestBit(src_valid, src_bit_offset + i)) continue;
    const double s = src_values[i];
    dst[i] = IsSentinelNull(dst[i]) ? w * s : std::fma(w, s, dst[i]);
  }
}

int64_t CopyRunMaskedScalar(const double* src_values,
                            const uint64_t* src_valid, int64_t src_bit_offset,
                            double* dst_values, uint64_t* dst_valid,
                            int64_t dst_bit_offset, int64_t len) {
  int64_t copied = 0;
  for (int64_t i = 0; i < len; ++i) {
    if (!TestBit(src_valid, src_bit_offset + i)) continue;
    dst_values[i] = src_values[i];
    SetBit(dst_valid, dst_bit_offset + i);
    ++copied;
  }
  return copied;
}

void ExpandToSentinelScalar(const double* values, const uint64_t* valid,
                            int64_t bit_offset, double* out, int64_t len) {
  for (int64_t i = 0; i < len; ++i) {
    out[i] = TestBit(valid, bit_offset + i) ? values[i] : kNullDouble;
  }
}

int64_t DecodeSentinelRunScalar(const double* raw, double* values,
                                uint64_t* valid, int64_t bit_offset,
                                int64_t len) {
  int64_t count = 0;
  for (int64_t i = 0; i < len; ++i) {
    const double r = raw[i];
    if (std::isnan(r)) {
      values[i] = 0.0;
    } else {
      values[i] = r;
      SetBit(valid, bit_offset + i);
      ++count;
    }
  }
  return count;
}

bool AnyBitInRange(const uint64_t* words, int64_t bit_offset, int64_t len) {
  int64_t i = 0;
  while (i < len) {
    const int n = len - i < 64 ? static_cast<int>(len - i) : 64;
    if (LoadBits(words, bit_offset + i, n) != 0) return true;
    i += n;
  }
  return false;
}

}  // namespace olap::kernels
