#include "phy/chip_sequences.h"

#include <gtest/gtest.h>

#include <bit>

#include "common/rng.h"

namespace ppr::phy {
namespace {

// Rows of the 802.15.4 symbol-to-chip table (chips c0..c31). Symbol 0 is
// the standard's base sequence; 1 and 8 pin down the rotation and
// odd-chip-inversion derivation rules independently.
constexpr const char* kSymbol0 = "11011001110000110101001000101110";
constexpr const char* kSymbol1 = "11101101100111000011010100100010";
constexpr const char* kSymbol8 = "10001100100101100000011101111011";

std::string CodewordString(const ChipCodebook& cb, int symbol) {
  std::string s;
  for (int i = 0; i < kChipsPerSymbol; ++i) {
    s.push_back(cb.Chip(symbol, i) ? '1' : '0');
  }
  return s;
}

TEST(ChipCodebookTest, MatchesStandardTableRows) {
  const ChipCodebook cb;
  EXPECT_EQ(CodewordString(cb, 0), kSymbol0);
  EXPECT_EQ(CodewordString(cb, 1), kSymbol1);
  EXPECT_EQ(CodewordString(cb, 8), kSymbol8);
}

TEST(ChipCodebookTest, Symbols1Through7AreRotationsOfSymbol0) {
  const ChipCodebook cb;
  for (int s = 1; s < 8; ++s) {
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      const int src = (i - 4 * s + 8 * kChipsPerSymbol) % kChipsPerSymbol;
      EXPECT_EQ(cb.Chip(s, i), cb.Chip(0, src))
          << "symbol " << s << " chip " << i;
    }
  }
}

TEST(ChipCodebookTest, UpperSymbolsInvertOddChips) {
  const ChipCodebook cb;
  for (int s = 0; s < 8; ++s) {
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      const bool expect =
          (i % 2 == 1) ? !cb.Chip(s, i) : cb.Chip(s, i);
      EXPECT_EQ(cb.Chip(s + 8, i), expect);
    }
  }
}

TEST(ChipCodebookTest, AllCodewordsDistinct) {
  const ChipCodebook cb;
  for (int a = 0; a < kNumSymbols; ++a) {
    for (int b = a + 1; b < kNumSymbols; ++b) {
      EXPECT_NE(cb.Codeword(a), cb.Codeword(b));
    }
  }
}

TEST(ChipCodebookTest, CodebookIsQuasiOrthogonal) {
  // The sparse codeword space is what gives Hamming distance its
  // discriminating power as a SoftPHY hint (section 3.2).
  const ChipCodebook cb;
  EXPECT_GE(cb.MinPairwiseDistance(), 12);
}

TEST(ChipCodebookTest, CleanCodewordsDecodeWithZeroDistance) {
  const ChipCodebook cb;
  for (int s = 0; s < kNumSymbols; ++s) {
    int distance = -1;
    EXPECT_EQ(cb.DecodeHard(cb.Codeword(s), &distance), s);
    EXPECT_EQ(distance, 0);
  }
}

TEST(ChipCodebookTest, DecodeToleratesErrorsBelowHalfMinDistance) {
  const ChipCodebook cb;
  const int tolerable = (cb.MinPairwiseDistance() - 1) / 2;
  Rng rng(21);
  for (int s = 0; s < kNumSymbols; ++s) {
    for (int trial = 0; trial < 25; ++trial) {
      ChipWord word = cb.Codeword(s);
      // Flip exactly `tolerable` distinct chips.
      int flipped = 0;
      while (flipped < tolerable) {
        const auto pos = static_cast<int>(rng.UniformInt(kChipsPerSymbol));
        const ChipWord mask = ChipWord{1} << pos;
        if ((word ^ cb.Codeword(s)) & mask) continue;  // already flipped
        word ^= mask;
        ++flipped;
      }
      int distance = -1;
      EXPECT_EQ(cb.DecodeHard(word, &distance), s);
      EXPECT_EQ(distance, tolerable);
    }
  }
}

TEST(ChipCodebookTest, DistanceReportedIsMinimumOverCodebook) {
  const ChipCodebook cb;
  Rng rng(22);
  for (int trial = 0; trial < 200; ++trial) {
    const auto word = static_cast<ChipWord>(rng.Next());
    int reported = -1;
    const int symbol = cb.DecodeHard(word, &reported);
    for (int s = 0; s < kNumSymbols; ++s) {
      EXPECT_GE(ChipHamming(word, cb.Codeword(s)), reported);
    }
    EXPECT_EQ(ChipHamming(word, cb.Codeword(symbol)), reported);
  }
}

TEST(ChipCodebookTest, SoftDecodeAgreesWithHardOnCleanAntipodalInput) {
  const ChipCodebook cb;
  for (int s = 0; s < kNumSymbols; ++s) {
    std::array<double, kChipsPerSymbol> soft{};
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      soft[static_cast<std::size_t>(i)] = cb.Chip(s, i) ? 1.0 : -1.0;
    }
    double corr = 0.0, margin = 0.0;
    EXPECT_EQ(cb.DecodeSoft(soft, &corr, &margin), s);
    EXPECT_DOUBLE_EQ(corr, kChipsPerSymbol);
    EXPECT_GT(margin, 0.0);
  }
}

TEST(ChipCodebookTest, SoftDecodeWeighsReliability) {
  // Corrupt several chips but give the corrupted ones tiny magnitude:
  // soft decoding should still pick the right symbol.
  const ChipCodebook cb;
  Rng rng(23);
  for (int s = 0; s < kNumSymbols; ++s) {
    std::array<double, kChipsPerSymbol> soft{};
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      soft[static_cast<std::size_t>(i)] = cb.Chip(s, i) ? 1.0 : -1.0;
    }
    for (int k = 0; k < 10; ++k) {
      const auto pos = rng.UniformInt(kChipsPerSymbol);
      soft[pos] = -0.05 * soft[pos];  // flipped sign, low confidence
    }
    EXPECT_EQ(cb.DecodeSoft(soft, nullptr, nullptr), s);
  }
}

TEST(ChipCodebookTest, CodewordBitsMatchesChipAccessor) {
  const ChipCodebook cb;
  for (int s = 0; s < kNumSymbols; ++s) {
    const BitVec bits = cb.CodewordBits(s);
    ASSERT_EQ(bits.size(), static_cast<std::size_t>(kChipsPerSymbol));
    for (int i = 0; i < kChipsPerSymbol; ++i) {
      EXPECT_EQ(bits.Get(static_cast<std::size_t>(i)), cb.Chip(s, i));
    }
  }
}

// DecodeSent must agree with DecodeHard on the corrupted codeword for
// every symbol and every error mask up to the shortcut's radius, and on
// random heavier masks (weight 6 included, where ties can occur).
TEST(ChipCodebookTest, DecodeSentMatchesDecodeHard) {
  const ChipCodebook cb;
  std::size_t mismatches = 0, cases = 0;
  const auto check = [&](int s, ChipWord mask) {
    int sent_distance = -1, hard_distance = -1;
    const int sent = cb.DecodeSent(s, mask, &sent_distance);
    const int hard = cb.DecodeHard(cb.Codeword(s) ^ mask, &hard_distance);
    if (sent != hard || sent_distance != hard_distance) {
      if (mismatches++ == 0) {
        ADD_FAILURE() << "symbol " << s << " mask 0x" << std::hex << mask;
      }
    }
    ++cases;
  };
  const int radius = (cb.MinPairwiseDistance() - 1) / 2;
  for (int s = 0; s < kNumSymbols; ++s) {
    check(s, 0);
    for (int weight = 1; weight <= radius; ++weight) {
      // Gosper's hack: every 32-bit mask with `weight` set bits, in order.
      ChipWord mask = (ChipWord{1} << weight) - 1;
      for (;;) {
        check(s, mask);
        const ChipWord low = mask & (~mask + 1);
        const ChipWord ripple = mask + low;
        if (ripple == 0) break;  // the top `weight` bits were set
        mask = ripple | (((mask ^ ripple) >> 2) / low);
      }
    }
  }
  std::size_t masks = 0, binomial = 1;  // sum over k <= radius of C(32, k)
  for (int k = 0; k <= radius; ++k) {
    masks += binomial;
    binomial = binomial * (kChipsPerSymbol - k) / (k + 1);
  }
  EXPECT_EQ(cases, kNumSymbols * masks);
  Rng rng(23);
  for (int trial = 0; trial < 200000; ++trial) {
    const int s = static_cast<int>(rng.UniformInt(kNumSymbols));
    ChipWord mask = 0;
    const int weight =
        radius + 1 + static_cast<int>(rng.UniformInt(kChipsPerSymbol - radius));
    while (std::popcount(mask) < weight) {
      mask |= ChipWord{1} << rng.UniformInt(kChipsPerSymbol);
    }
    check(s, mask);
  }
  EXPECT_EQ(mismatches, 0u);
}

// Exhaustive single-error sweep: any one-chip error must decode to the
// transmitted symbol with distance exactly 1.
class SingleChipErrorTest : public ::testing::TestWithParam<int> {};

TEST_P(SingleChipErrorTest, DecodesCorrectlyWithDistanceOne) {
  const ChipCodebook cb;
  const int s = GetParam();
  for (int pos = 0; pos < kChipsPerSymbol; ++pos) {
    const ChipWord word = cb.Codeword(s) ^ (ChipWord{1} << pos);
    int distance = -1;
    EXPECT_EQ(cb.DecodeHard(word, &distance), s);
    EXPECT_EQ(distance, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSymbols, SingleChipErrorTest,
                         ::testing::Range(0, kNumSymbols));

}  // namespace
}  // namespace ppr::phy
