// IEEE 802.15.4 (2.4 GHz O-QPSK PHY) direct-sequence spread spectrum
// codebook: sixteen quasi-orthogonal 32-chip sequences, each encoding one
// 4-bit symbol (b = 4, B = 32 in the paper's notation, section 2).
//
// The standard derives the sixteen sequences from one base sequence:
// symbols 1..7 are successive 4-chip right-rotations of symbol 0, and
// symbols 8..15 repeat symbols 0..7 with every odd-indexed chip inverted
// (conjugation of the O-QPSK Q channel). We generate the table from that
// rule and verify the published rows in tests.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/bitvec.h"

namespace ppr::phy {

inline constexpr int kBitsPerSymbol = 4;    // b
inline constexpr int kChipsPerSymbol = 32;  // B
inline constexpr int kNumSymbols = 16;      // 2^b

// The 32 chips of one codeword packed LSB = chip 0. Chip values are
// 0/1; on air a chip c maps to the antipodal level 2c - 1.
using ChipWord = std::uint32_t;

// Accessor for the 802.15.4 codebook. The table is built once and
// shared; the class is cheap to copy (it only references the table).
class ChipCodebook {
 public:
  ChipCodebook();

  // The 32-chip codeword for a 4-bit symbol value in [0, 16).
  ChipWord Codeword(int symbol) const;

  // Chip `i` (0..31) of `symbol`'s codeword.
  bool Chip(int symbol, int i) const;

  // The codeword as a BitVec of 32 chips (chip 0 first).
  BitVec CodewordBits(int symbol) const;

  // Hard-decision decode: returns the symbol whose codeword is nearest in
  // Hamming distance to `received`, and writes that distance (the SoftPHY
  // hint of section 3.2) to `*distance`. Ties resolve to the smallest
  // symbol value, deterministically.
  int DecodeHard(ChipWord received, int* distance) const;

  // DecodeHard(Codeword(symbol) ^ error_mask, distance), for callers that
  // know the sent symbol. An error mask lighter than half the minimum
  // pairwise distance leaves the sent codeword strictly nearest, so it
  // decodes to `symbol` at distance popcount(error_mask) without the
  // sixteen-way search; heavier masks (which can tie) take DecodeHard.
  int DecodeSent(int symbol, ChipWord error_mask, int* distance) const {
    const int weight = std::popcount(error_mask);
    if (weight <= unique_radius_) {
      if (distance != nullptr) *distance = weight;
      return symbol;
    }
    return DecodeHard(Codeword(symbol) ^ error_mask, distance);
  }

  // Soft-decision decode (section 3.1, "correlation metric"): `soft`
  // holds one soft chip value per chip position (sign = chip decision,
  // magnitude = reliability, e.g. matched-filter outputs). Returns the
  // symbol maximizing sum_j (2*c_ij - 1) * soft_j and writes that best
  // correlation to `*correlation` and the margin over the runner-up to
  // `*margin` (both optional).
  int DecodeSoft(const std::array<double, kChipsPerSymbol>& soft,
                 double* correlation, double* margin) const;

  // Minimum pairwise Hamming distance over all distinct codeword pairs;
  // a property of the codebook used to reason about hint quality.
  int MinPairwiseDistance() const;

 private:
  std::array<ChipWord, kNumSymbols> table_;
  int unique_radius_;  // (MinPairwiseDistance() - 1) / 2
};

// Hamming distance between two packed chip words.
int ChipHamming(ChipWord a, ChipWord b);

}  // namespace ppr::phy
