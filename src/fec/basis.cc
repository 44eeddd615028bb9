#include "fec/basis.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "fec/gf256.h"

namespace ppr::fec {

Basis::Basis(std::uint8_t* rows, std::size_t stride, std::size_t width,
             std::size_t bytes, std::uint8_t* live)
    : rows_(rows), stride_(stride), width_(width), bytes_(bytes), live_(live) {
  assert(stride >= width + bytes);
  for (std::size_t j = 0; j < width_; ++j) rank_ += live_[j] != 0;
}

std::size_t Basis::Insert(std::span<std::uint8_t> work) {
  assert(work.size() == row_bytes());
  // Forward sweep. Pivot rows are reduced — zero at every OTHER pivot
  // column — so eliminating against pivot j never changes the factor a
  // later pivot sees: every factor is read upfront and the whole sweep
  // is one GfAxpyN over the fused rows. The term list is per-thread
  // scratch, so a view re-attached per call (the flow engine's) still
  // allocates nothing in steady state.
  thread_local std::vector<GfTerm> terms;
  terms.clear();
  for (std::size_t j = 0; j < width_; ++j) {
    if (work[j] != 0 && live_[j]) terms.push_back({work[j], Row(j)});
  }
  GfAxpyN(work, terms);

  std::size_t lead = 0;
  while (lead < width_ && work[lead] == 0) ++lead;
  if (lead == width_) return width_;  // linearly dependent

  GfScale(work, GfInv(work[lead]));
  // Back-eliminate the new column so the basis stays reduced: one fused
  // pass per pivot row that references it.
  for (std::size_t j = 0; j < width_; ++j) {
    if (!live_[j]) continue;
    const std::span<std::uint8_t> row = Row(j);
    if (row[lead] != 0) GfAxpy(row, row[lead], work);
  }
  // The lead column had no pivot (the sweep zeroed every live one), so
  // its row storage is free.
  std::memcpy(rows_ + lead * stride_, work.data(), row_bytes());
  live_[lead] = 1;
  ++rank_;
  return lead;
}

void Basis::Retire(std::size_t j) {
  assert(live_[j]);
  live_[j] = 0;
  --rank_;
}

void Basis::Reset() {
  std::memset(live_, 0, width_);
  rank_ = 0;
}

}  // namespace ppr::fec
