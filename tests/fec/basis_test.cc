// fec::Basis against a dense Gaussian-elimination reference on random
// GF(256) systems: the rank after every insert, dependent-row
// rejection, the reduced-row-echelon invariant, and the solved
// symbols; plus strided caller-owned storage, Retire, Reset/reuse, and
// re-attaching a view to state parked in caller memory.
#include "fec/basis.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "fec/gf256.h"

namespace ppr::fec {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes RandomBytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  return out;
}

// Rank of a set of coefficient rows by textbook elimination, written
// independently of Basis (GfDiv/GfMul, one row at a time).
std::size_t ReferenceRank(std::vector<Bytes> rows, std::size_t width) {
  std::size_t rank = 0;
  for (std::size_t col = 0; col < width && rank < rows.size(); ++col) {
    std::size_t pivot = rank;
    while (pivot < rows.size() && rows[pivot][col] == 0) ++pivot;
    if (pivot == rows.size()) continue;
    std::swap(rows[rank], rows[pivot]);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r == rank || rows[r][col] == 0) continue;
      const std::uint8_t f = GfDiv(rows[r][col], rows[rank][col]);
      for (std::size_t c = 0; c < width; ++c) {
        rows[r][c] ^= GfMul(f, rows[rank][c]);
      }
    }
    ++rank;
  }
  return rank;
}

// coefs . x, where x holds one unknown symbol per column.
Bytes Combine(const Bytes& coefs, const std::vector<Bytes>& x,
              std::size_t bytes) {
  Bytes out(bytes, 0);
  for (std::size_t j = 0; j < coefs.size(); ++j) {
    for (std::size_t b = 0; b < bytes; ++b) {
      out[b] ^= GfMul(coefs[j], x[j][b]);
    }
  }
  return out;
}

// Caller-owned storage for one basis: live flags plus `width` rows at
// `stride`, the slack after each row filled with a canary.
struct Storage {
  static constexpr std::uint8_t kCanary = 0xA5;

  Storage(std::size_t width, std::size_t bytes, std::size_t stride)
      : live(width, 0), rows(width * stride, kCanary), stride(stride),
        used(width + bytes) {}

  Basis View(std::size_t width, std::size_t bytes) {
    return Basis(rows.data(), stride, width, bytes, live.data());
  }
  bool SlackIntact() const {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i % stride >= used && rows[i] != kCanary) return false;
    }
    return true;
  }

  Bytes live;
  Bytes rows;
  std::size_t stride;
  std::size_t used;
};

// Every live row is reduced: 1 at its own column, 0 at every other
// live column, and consistent with the unknowns.
void ExpectReducedAndConsistent(const Basis& basis,
                                const std::vector<Bytes>& x) {
  for (std::size_t j = 0; j < basis.width(); ++j) {
    if (!basis.Live(j)) continue;
    const auto row = basis.Row(j);
    const Bytes coefs(row.begin(), row.begin() + basis.width());
    EXPECT_EQ(coefs[j], 1) << "row " << j;
    for (std::size_t k = 0; k < basis.width(); ++k) {
      if (k != j && basis.Live(k)) {
        EXPECT_EQ(coefs[k], 0) << j << "," << k;
      }
    }
    const auto data = basis.Data(j);
    EXPECT_EQ(Bytes(data.begin(), data.end()),
              Combine(coefs, x, basis.bytes()))
        << "row " << j;
  }
}

TEST(BasisTest, MatchesDenseReferenceOnRandomSystems) {
  Rng rng(1501);
  for (const std::size_t width : {1u, 2u, 7u, 16u, 33u}) {
    for (const std::size_t bytes : {1u, 8u, 45u}) {
      const std::size_t stride = width + bytes + 3;
      Storage storage(width, bytes, stride);
      Basis basis = storage.View(width, bytes);
      std::vector<Bytes> x;
      for (std::size_t j = 0; j < width; ++j) {
        x.push_back(RandomBytes(rng, bytes));
      }

      std::vector<Bytes> inserted;
      Bytes work(width + bytes);
      for (std::size_t step = 0; step < 3 * width + 2; ++step) {
        // A mix of dense rows, sparse rows, zero rows, and exact
        // combinations of rows already inserted.
        Bytes coefs(width, 0);
        const auto kind = rng.UniformInt(4);
        if (kind == 0) {
          coefs = RandomBytes(rng, width);
        } else if (kind == 1) {
          coefs[rng.UniformInt(width)] =
              static_cast<std::uint8_t>(1 + rng.UniformInt(255));
        } else if (kind == 2 && !inserted.empty()) {
          for (const Bytes& r : inserted) {
            const auto f = static_cast<std::uint8_t>(rng.UniformInt(256));
            for (std::size_t c = 0; c < width; ++c) {
              coefs[c] ^= GfMul(f, r[c]);
            }
          }
        }
        const Bytes data = Combine(coefs, x, bytes);
        std::copy(coefs.begin(), coefs.end(), work.begin());
        std::copy(data.begin(), data.end(), work.begin() + width);

        const std::size_t before = ReferenceRank(inserted, width);
        inserted.push_back(coefs);
        const std::size_t after = ReferenceRank(inserted, width);
        const std::size_t lead = basis.Insert(work);
        EXPECT_EQ(lead != width, after > before)
            << "width " << width << " step " << step;
        EXPECT_EQ(basis.rank(), after);
        if (lead != width) {
          EXPECT_TRUE(basis.Live(lead));
        }
      }
      ExpectReducedAndConsistent(basis, x);
      // Top up with dense rows until every unknown is solved.
      while (!basis.Complete()) {
        Bytes coefs = RandomBytes(rng, width);
        const Bytes data = Combine(coefs, x, bytes);
        coefs.insert(coefs.end(), data.begin(), data.end());
        basis.Insert(coefs);
      }
      for (std::size_t j = 0; j < width; ++j) {
        const auto data = basis.Data(j);
        EXPECT_EQ(Bytes(data.begin(), data.end()), x[j]);
      }
      EXPECT_TRUE(storage.SlackIntact());
    }
  }
}

TEST(BasisTest, DependentRowLeavesBasisUnchanged) {
  Rng rng(1502);
  const std::size_t width = 6, bytes = 10;
  Storage storage(width, bytes, width + bytes);
  Basis basis = storage.View(width, bytes);
  std::vector<Bytes> x;
  for (std::size_t j = 0; j < width; ++j) x.push_back(RandomBytes(rng, bytes));
  Bytes a = RandomBytes(rng, width), b = RandomBytes(rng, width);
  for (const Bytes* coefs : {&a, &b}) {
    Bytes work(*coefs);
    const Bytes data = Combine(*coefs, x, bytes);
    work.insert(work.end(), data.begin(), data.end());
    ASSERT_NE(basis.Insert(work), width);
  }
  const Bytes live_before = storage.live, rows_before = storage.rows;
  Bytes sum(width);
  for (std::size_t c = 0; c < width; ++c) sum[c] = GfMul(3, a[c]) ^ b[c];
  Bytes work(sum);
  const Bytes data = Combine(sum, x, bytes);
  work.insert(work.end(), data.begin(), data.end());
  EXPECT_EQ(basis.Insert(work), width);
  EXPECT_EQ(basis.rank(), 2u);
  EXPECT_EQ(storage.live, live_before);
  EXPECT_EQ(storage.rows, rows_before);
}

TEST(BasisTest, RetireResetAndReattach) {
  Rng rng(1503);
  const std::size_t width = 8, bytes = 12;
  Storage storage(width, bytes, width + bytes + 5);
  std::vector<Bytes> x;
  for (std::size_t j = 0; j < width; ++j) x.push_back(RandomBytes(rng, bytes));
  const auto insert_random = [&](Basis& basis) {
    Bytes coefs = RandomBytes(rng, width);
    const Bytes data = Combine(coefs, x, bytes);
    coefs.insert(coefs.end(), data.begin(), data.end());
    return basis.Insert(coefs);
  };

  for (int round = 0; round < 3; ++round) {
    {
      Basis basis = storage.View(width, bytes);
      while (basis.rank() < width / 2) insert_random(basis);
    }
    // A fresh view over the same storage recounts the parked rank and
    // keeps decoding from where the last one stopped.
    Basis basis = storage.View(width, bytes);
    EXPECT_EQ(basis.rank(), width / 2);
    std::size_t retired = width;
    for (std::size_t j = 0; j < width; ++j) {
      if (basis.Live(j)) retired = j;
    }
    basis.Retire(retired);
    EXPECT_FALSE(basis.Live(retired));
    EXPECT_EQ(basis.rank(), width / 2 - 1);
    while (!basis.Complete()) insert_random(basis);
    ExpectReducedAndConsistent(basis, x);
    for (std::size_t j = 0; j < width; ++j) {
      const auto data = basis.Data(j);
      EXPECT_EQ(Bytes(data.begin(), data.end()), x[j]) << "round " << round;
    }
    EXPECT_TRUE(storage.SlackIntact());

    // Reset drops every pivot; the next round decodes new unknowns into
    // the same storage.
    basis.Reset();
    EXPECT_EQ(basis.rank(), 0u);
    EXPECT_EQ(storage.live, Bytes(width, 0));
    for (auto& s : x) s = RandomBytes(rng, bytes);
  }
}

}  // namespace
}  // namespace ppr::fec
