// Basis: the one incremental Gauss-Jordan elimination core behind every
// linear decoder in the tree — the block decoder (fec::RlncDecoder),
// the sliding-window stream decoder (stream::WindowDecoder), and the
// flow engine's per-flow solver (engine/flow_engine.cc).
//
// Each equation is one FUSED row: `width` coefficient bytes followed by
// `bytes` payload bytes, so every elimination step (the forward sweep,
// the pivot normalisation, the back-elimination) is a single GF pass
// over coefficients and payload together. Row j, when live, is the
// pivot row of column j: coefficient 1 at j and 0 at every other live
// pivot column (reduced row echelon form), so at full rank its payload
// IS unknown j.
//
// The rows and the live flags sit in caller-owned storage — a vector,
// a window ring, or a flow's arena slot — given as a base pointer and a
// row stride. A Basis is a cheap view: constructing one over existing
// storage recounts the rank from the live flags, so state parked in an
// arena slot can be re-attached per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ppr::fec {

class Basis {
 public:
  // Row j occupies [rows + j * stride, rows + j * stride + width +
  // bytes); `live` holds `width` flags (nonzero: row j is a pivot).
  Basis(std::uint8_t* rows, std::size_t stride, std::size_t width,
        std::size_t bytes, std::uint8_t* live);

  std::size_t width() const { return width_; }
  std::size_t bytes() const { return bytes_; }
  std::size_t row_bytes() const { return width_ + bytes_; }
  std::size_t rank() const { return rank_; }
  bool Complete() const { return rank_ == width_; }
  bool Live(std::size_t j) const { return live_[j] != 0; }

  // Fused row j (coefficients, then payload) and its two halves.
  std::span<std::uint8_t> Row(std::size_t j) {
    return {rows_ + j * stride_, row_bytes()};
  }
  std::span<const std::uint8_t> Row(std::size_t j) const {
    return {rows_ + j * stride_, row_bytes()};
  }
  std::span<const std::uint8_t> Data(std::size_t j) const {
    return Row(j).subspan(width_);
  }

  // Reduces the fused equation `work` (row_bytes() long, clobbered; it
  // must not alias the basis rows) against every live pivot in one
  // batched GfAxpyN, normalises its leading coefficient, eliminates
  // that column from the other pivot rows, and stores it as the pivot
  // row of its leading column. Returns that column, or width() when the
  // equation was linearly dependent (the basis is then unchanged).
  std::size_t Insert(std::span<std::uint8_t> work);

  // Drops pivot row j; its storage is free for a later Insert.
  void Retire(std::size_t j);

  // Back to rank 0; the row storage is kept for reuse.
  void Reset();

 private:
  std::uint8_t* rows_;
  std::size_t stride_;
  std::size_t width_;
  std::size_t bytes_;
  std::uint8_t* live_;
  std::size_t rank_ = 0;
};

}  // namespace ppr::fec
