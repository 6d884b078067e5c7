#ifndef OLAP_CUBE_CHUNK_H_
#define OLAP_CUBE_CHUNK_H_

#include <cstdint>
#include <memory>

#include "common/bitset.h"
#include "common/value.h"

namespace olap {

// One dense tile of a chunked multidimensional array, stored SIMD-friendly:
//
//   values_   64-byte-aligned dense double array; ⊥ slots hold +0.0 and a
//             stored value is never NaN (CellValue canonicalises on entry),
//             so vector lanes never meet the sentinel in arithmetic.
//   nonnull_  validity bitmap; bit set <=> the cell is non-⊥.
//
// CellValue's quiet-NaN ⊥ sentinel survives only at the boundaries: Get/Set
// speak CellValue, and FillSentinel/AssignRunFromSentinel translate whole
// runs to and from the sentinel-encoded form the OLAPCUB2 storage format
// keeps on disk. The hot loops (aggregation, what-if run copies) go through
// ValuesSpan()/NullBits() and the kernels in agg/kernels.h instead of
// per-cell sentinel tests. A freshly created chunk is all-⊥.
class Chunk {
 public:
  Chunk() = default;
  explicit Chunk(int64_t num_cells);

  Chunk(const Chunk& other);
  Chunk& operator=(const Chunk& other);
  Chunk(Chunk&&) noexcept = default;
  Chunk& operator=(Chunk&&) noexcept = default;

  int64_t size() const { return size_; }

  CellValue Get(int64_t offset) const {
    return nonnull_.Test(static_cast<int>(offset))
               ? CellValue(values_[offset])
               : CellValue::Null();
  }
  void Set(int64_t offset, CellValue v) {
    const int pos = static_cast<int>(offset);
    if (v.is_null()) {
      nonnull_.Reset(pos);
      values_[offset] = 0.0;
    } else {
      nonnull_.Set(pos);
      values_[offset] = v.value();
    }
  }

  // --- Raw layout access (hot read paths; no CellValue round-trip) --------

  bool IsNull(int64_t offset) const {
    return !nonnull_.Test(static_cast<int>(offset));
  }
  // The stored value; +0.0 for ⊥ slots (callers check IsNull first when the
  // distinction matters).
  double ValueAt(int64_t offset) const { return values_[offset]; }
  // Sentinel-encoded view of one cell (storage format).
  double StorageAt(int64_t offset) const {
    return nonnull_.Test(static_cast<int>(offset)) ? values_[offset]
                                                   : CellValue::NullStorage();
  }
  // The dense value array (64-byte aligned, size() doubles).
  const double* ValuesSpan() const { return values_.get(); }
  // The validity bitmap: bit set <=> cell non-⊥.
  const DynamicBitset& NullBits() const { return nonnull_; }

  // Number of non-⊥ cells.
  int64_t CountNonNull() const;

  // --- Run kernels (chunk-native what-if evaluation) ----------------------
  //
  // The what-if operators move data between cubes in contiguous cell runs
  // (all trailing-dimension coordinates of a fixed axis prefix) instead of
  // cell-at-a-time SetCell calls; these kernels are that data path. All of
  // them copy raw values bitwise, so cells round-trip bit-identically.

  // True when [offset, offset + len) contains at least one non-⊥ cell.
  // Used to avoid materialising output chunks for all-⊥ runs.
  bool RunHasNonNull(int64_t offset, int64_t len) const;

  // Copies every non-⊥ cell of src's [src_offset, src_offset + len) into
  // this chunk at the same relative position from dst_offset; ⊥ source
  // cells leave the destination untouched. Returns the number of cells
  // copied. The ranges must be in bounds; they may belong to chunks of
  // different geometry (offsets are precomputed by the caller).
  int64_t CopyRunFrom(const Chunk& src, int64_t src_offset, int64_t dst_offset,
                      int64_t len);

  // Whole-chunk variant of CopyRunFrom: merges every non-⊥ cell of `other`
  // (same size) into this chunk, returning the number copied. Callers
  // guarantee disjointness of the non-⊥ sets when determinism matters.
  int64_t MergeNonNullFrom(const Chunk& other);

  // --- Storage-format boundary -------------------------------------------

  // Writes all size() cells into `out` in sentinel-encoded form.
  void FillSentinel(double* out) const;

  // Decodes `len` sentinel-encoded doubles into cells starting at `offset`.
  // The target cells must currently be ⊥ (fresh chunk or cleared run); any
  // NaN input decodes as ⊥ (CellValue canonicalisation). Returns the non-⊥
  // count decoded.
  int64_t AssignRunFromSentinel(int64_t offset, const double* raw,
                                int64_t len);

 private:
  struct AlignedDeleter {
    void operator()(double* p) const noexcept {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  using AlignedValues = std::unique_ptr<double[], AlignedDeleter>;

  static AlignedValues AllocValues(int64_t n);

  int64_t size_ = 0;
  AlignedValues values_;
  DynamicBitset nonnull_;
};

}  // namespace olap

#endif  // OLAP_CUBE_CHUNK_H_
