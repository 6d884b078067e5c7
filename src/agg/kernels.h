#ifndef OLAP_AGG_KERNELS_H_
#define OLAP_AGG_KERNELS_H_

#include <cstdint>

// Run primitives over the bitmap chunk layout (dense 64-byte-aligned double
// array + validity bitmap, see cube/chunk.h). Each masked primitive has one
// word-blocked body — the mask is read one 64-bit word at a time, and the
// all-valid / all-invalid words run dense loops the compiler auto-vectorizes
// — plus a `...Scalar` per-element reference whose arithmetic *defines* the
// result. The body must stay bit-identical to its reference, so the
// following shapes are part of the contract, not implementation details:
//
//  - MaskedRunSum uses four virtual lanes: acc[i mod 4] += v[i] for valid i,
//    combined as (acc0+acc1)+(acc2+acc3). Changing the lane count or the
//    combine order would change the bits of every fractional rollup.
//  - The merge kernels compute fma(w, src, dst) per element (one rounding,
//    IEEE fusedMultiplyAdd) and w*src when dst is ⊥, so at w == 1.0 they
//    reproduce plain `src + dst` and verbatim `src` exactly; the engine only
//    merges at w == 1.0.
//
// Values must not be NaN (⊥ lives in the bitmap / sentinel, and CellValue
// canonicalises NaN on entry), so a computed result can never collide with
// the sentinel bit pattern.
namespace olap::kernels {

// The kernel implementation in use. There is exactly one; the name is kept
// for the provenance block of benchmark results.
enum class Isa { kPortable };

inline const char* IsaName(Isa) { return "portable"; }
inline Isa ActiveIsa() { return Isa::kPortable; }

// Sum and population count of one masked run.
struct RunSum {
  double sum = 0.0;
  int64_t count = 0;
};

// Lane-structured sum of values[i] for every i in [0, len) whose validity
// bit (valid, starting at absolute bit index bit_offset) is set. See the
// file comment for the fixed 4-lane reassociation contract.
RunSum MaskedRunSum(const double* values, const uint64_t* valid,
                    int64_t bit_offset, int64_t len);
RunSum MaskedRunSumScalar(const double* values, const uint64_t* valid,
                          int64_t bit_offset, int64_t len);

// For every valid src element: dst[i] = dst[i] is sentinel-⊥ ? w * src[i]
//                                       : fma(w, src[i], dst[i]).
// Invalid src elements leave dst untouched. dst is sentinel-encoded (see
// CellValue); src and dst must not overlap.
void MergeWeightedRunIntoSentinel(double w, const double* src_values,
                                  const uint64_t* src_valid,
                                  int64_t src_bit_offset, double* dst,
                                  int64_t len);
void MergeWeightedRunIntoSentinelScalar(double w, const double* src_values,
                                        const uint64_t* src_valid,
                                        int64_t src_bit_offset, double* dst,
                                        int64_t len);

// Sentinel-to-sentinel flavor (GroupByResult partial merges): ⊥ src
// elements are skipped, otherwise as above. A single per-element body:
// with no mask there is no word to block on.
void MergeWeightedSentinelRun(double w, const double* src, double* dst,
                              int64_t len);

// Copies every valid src element (bits starting at src_bit_offset) into the
// destination arrays at the same relative position (bits starting at
// dst_bit_offset); invalid src elements leave the destination value AND its
// validity bit untouched. Returns the number of elements copied. The ranges
// must not overlap.
int64_t CopyRunMasked(const double* src_values, const uint64_t* src_valid,
                      int64_t src_bit_offset, double* dst_values,
                      uint64_t* dst_valid, int64_t dst_bit_offset,
                      int64_t len);
int64_t CopyRunMaskedScalar(const double* src_values,
                            const uint64_t* src_valid, int64_t src_bit_offset,
                            double* dst_values, uint64_t* dst_valid,
                            int64_t dst_bit_offset, int64_t len);

// Storage-codec boundary: expands a (values, validity) run into the
// sentinel-encoded double array the OLAPCUB2 format stores.
void ExpandToSentinel(const double* values, const uint64_t* valid,
                      int64_t bit_offset, double* out, int64_t len);
void ExpandToSentinelScalar(const double* values, const uint64_t* valid,
                            int64_t bit_offset, double* out, int64_t len);

// Storage-codec boundary, inbound: decodes a sentinel-encoded run into
// (values, validity) form. ANY NaN decodes as ⊥ (CellValue
// canonicalisation); ⊥ slots get value +0.0. The target bit range must be
// all-zero on entry. Returns the non-⊥ count.
int64_t DecodeSentinelRun(const double* raw, double* values, uint64_t* valid,
                          int64_t bit_offset, int64_t len);
int64_t DecodeSentinelRunScalar(const double* raw, double* values,
                                uint64_t* valid, int64_t bit_offset,
                                int64_t len);

// True when any bit in [bit_offset, bit_offset + len) is set. Word-blocked
// with early exit.
bool AnyBitInRange(const uint64_t* words, int64_t bit_offset, int64_t len);

namespace detail {

// Reads `count` (1..64) bits starting at absolute bit index `bit_offset`;
// bits beyond `count` are zero. The word array must cover the range.
inline uint64_t LoadBits(const uint64_t* words, int64_t bit_offset,
                         int count) {
  const int64_t q = bit_offset >> 6;
  const int r = static_cast<int>(bit_offset & 63);
  uint64_t x = words[q] >> r;
  if (r != 0 && r + count > 64) x |= words[q + 1] << (64 - r);
  if (count < 64) x &= (uint64_t{1} << count) - 1;
  return x;
}

// ORs the low `count` bits of `bits` into the word array at absolute bit
// index `bit_offset`. Bits of `bits` beyond `count` must be zero.
inline void OrBitsAt(uint64_t* words, int64_t bit_offset, uint64_t bits,
                     int count) {
  const int64_t q = bit_offset >> 6;
  const int r = static_cast<int>(bit_offset & 63);
  words[q] |= bits << r;
  if (r != 0 && r + count > 64) words[q + 1] |= bits >> (64 - r);
}

inline bool TestBit(const uint64_t* words, int64_t bit) {
  return (words[bit >> 6] >> (bit & 63)) & 1u;
}

inline void SetBit(uint64_t* words, int64_t bit) {
  words[bit >> 6] |= uint64_t{1} << (bit & 63);
}

}  // namespace detail

}  // namespace olap::kernels

#endif  // OLAP_AGG_KERNELS_H_
