#include "cube/chunk.h"

#include <cassert>
#include <cstring>
#include <limits>
#include <new>

#include "agg/kernels.h"

namespace olap {

Chunk::AlignedValues Chunk::AllocValues(int64_t n) {
  if (n == 0) return nullptr;
  return AlignedValues(static_cast<double*>(::operator new[](
      static_cast<size_t>(n) * sizeof(double), std::align_val_t{64})));
}

Chunk::Chunk(int64_t num_cells)
    : size_(num_cells),
      values_(AllocValues(num_cells)),
      // DynamicBitset addresses bits with int; chunk tiles are small (a few
      // thousand cells), far below that limit.
      nonnull_((assert(num_cells <= std::numeric_limits<int>::max()),
                static_cast<int>(num_cells))) {
  if (size_ > 0) {
    std::memset(values_.get(), 0, static_cast<size_t>(size_) * sizeof(double));
  }
}

Chunk::Chunk(const Chunk& other)
    : size_(other.size_),
      values_(AllocValues(other.size_)),
      nonnull_(other.nonnull_) {
  if (size_ > 0) {
    std::memcpy(values_.get(), other.values_.get(),
                static_cast<size_t>(size_) * sizeof(double));
  }
}

Chunk& Chunk::operator=(const Chunk& other) {
  if (this == &other) return *this;
  if (size_ != other.size_) {
    values_ = AllocValues(other.size_);
    size_ = other.size_;
  }
  if (size_ > 0) {
    std::memcpy(values_.get(), other.values_.get(),
                static_cast<size_t>(size_) * sizeof(double));
  }
  nonnull_ = other.nonnull_;
  return *this;
}

int64_t Chunk::CountNonNull() const { return nonnull_.Count(); }

bool Chunk::RunHasNonNull(int64_t offset, int64_t len) const {
  assert(offset >= 0 && offset + len <= size());
  return kernels::AnyBitInRange(nonnull_.words(), offset, len);
}

int64_t Chunk::CopyRunFrom(const Chunk& src, int64_t src_offset,
                           int64_t dst_offset, int64_t len) {
  assert(src_offset >= 0 && src_offset + len <= src.size());
  assert(dst_offset >= 0 && dst_offset + len <= size());
  return kernels::CopyRunMasked(src.values_.get() + src_offset,
                                src.nonnull_.words(), src_offset,
                                values_.get() + dst_offset,
                                nonnull_.mutable_words(), dst_offset, len);
}

int64_t Chunk::MergeNonNullFrom(const Chunk& other) {
  assert(size() == other.size());
  return CopyRunFrom(other, 0, 0, size());
}

void Chunk::FillSentinel(double* out) const {
  kernels::ExpandToSentinel(values_.get(), nonnull_.words(), 0, out, size_);
}

int64_t Chunk::AssignRunFromSentinel(int64_t offset, const double* raw,
                                     int64_t len) {
  assert(offset >= 0 && offset + len <= size());
  assert(!kernels::AnyBitInRange(nonnull_.words(), offset, len));
  return kernels::DecodeSentinelRun(raw, values_.get() + offset,
                                    nonnull_.mutable_words(), offset, len);
}

}  // namespace olap
