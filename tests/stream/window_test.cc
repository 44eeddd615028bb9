#include "stream/window.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace ppr::stream {
namespace {

constexpr std::size_t kBytes = 8;

std::vector<std::uint8_t> Payload(Rng& rng) {
  std::vector<std::uint8_t> data(kBytes);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  return data;
}

// Pushes `n` random symbols and returns their payloads by id.
std::vector<std::vector<std::uint8_t>> PushN(WindowEncoder& enc, Rng& rng,
                                             std::size_t n) {
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::size_t i = 0; i < n; ++i) {
    auto data = Payload(rng);
    const auto id = enc.Push(data);
    EXPECT_TRUE(id.has_value());
    sent.push_back(std::move(data));
  }
  return sent;
}

TEST(WindowEncoderTest, PushAssignsSequentialIdsAndBackpressures) {
  WindowEncoder enc(4, kBytes);
  Rng rng(1);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto id = enc.Push(Payload(rng));
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(*id, i);
  }
  EXPECT_TRUE(enc.Full());
  // Window-full backpressure: the fifth push is refused, not queued.
  EXPECT_FALSE(enc.Push(Payload(rng)).has_value());
  EXPECT_EQ(enc.in_flight(), 4u);

  // A cumulative ack reopens exactly that much room.
  EXPECT_EQ(enc.Advance(2), 2u);
  EXPECT_FALSE(enc.Full());
  const auto id = enc.Push(Payload(rng));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 4u);
  // Stale and repeated acks are no-ops.
  EXPECT_EQ(enc.Advance(2), 0u);
  EXPECT_EQ(enc.Advance(1), 0u);
}

TEST(WindowEncoderTest, RepairSpansUnackedWindow) {
  WindowEncoder enc(8, kBytes);
  Rng rng(2);
  PushN(enc, rng, 5);
  enc.Advance(2);
  const auto repair = enc.MakeRepair(77);
  EXPECT_EQ(repair.first_id, 2u);
  EXPECT_EQ(repair.span, 3u);
  EXPECT_EQ(repair.seed, 77u);
  EXPECT_EQ(repair.data.size(), kBytes);
}

TEST(WindowDecoderTest, InOrderSourceDeliversImmediately) {
  WindowEncoder enc(8, kBytes);
  WindowDecoder dec(8, kBytes);
  Rng rng(3);
  const auto sent = PushN(enc, rng, 6);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_TRUE(dec.AddSource(i, sent[i]));
    const auto out = dec.PopDeliverable();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].id, i);
    EXPECT_EQ(out[0].data, sent[i]);
    EXPECT_FALSE(out[0].recovered);
  }
  EXPECT_EQ(dec.next_expected(), 6u);
  EXPECT_EQ(dec.Deficit(), 0u);
}

TEST(WindowDecoderTest, RepairRecoversALostSymbol) {
  WindowEncoder enc(8, kBytes);
  WindowDecoder dec(8, kBytes);
  Rng rng(4);
  const auto sent = PushN(enc, rng, 4);
  // Symbol 1 is lost; the rest arrive.
  for (const std::size_t i : {0u, 2u, 3u}) {
    EXPECT_TRUE(dec.AddSource(i, sent[i]));
  }
  EXPECT_EQ(dec.PopDeliverable().size(), 1u);  // only id 0
  EXPECT_EQ(dec.Deficit(), 1u);

  EXPECT_TRUE(dec.AddRepair(enc.MakeRepair(9)));
  const auto out = dec.PopDeliverable();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[0].data, sent[1]);
  EXPECT_TRUE(out[0].recovered);
  EXPECT_FALSE(out[1].recovered);
  EXPECT_EQ(dec.Deficit(), 0u);
  EXPECT_EQ(dec.rank(), 0u);
}

TEST(WindowDecoderTest, RepairSpanningAdvancedPrefixStillCounts) {
  WindowEncoder enc(8, kBytes);
  WindowDecoder dec(8, kBytes);
  Rng rng(5);
  const auto sent = PushN(enc, rng, 5);
  // ids 0..3 delivered and popped — the window prefix advances past
  // them. id 4 is lost.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(dec.AddSource(i, sent[i]));
  }
  EXPECT_EQ(dec.PopDeliverable().size(), 4u);
  EXPECT_EQ(dec.next_expected(), 4u);

  // A late repair spanning [0, 5) arrives AFTER the advance. The
  // retired ring substitutes ids 0..3 and the equation still recovers
  // id 4.
  const auto repair = enc.MakeRepair(31);
  ASSERT_EQ(repair.first_id, 0u);
  ASSERT_EQ(repair.span, 5u);
  EXPECT_TRUE(dec.AddRepair(repair));
  const auto out = dec.PopDeliverable();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 4u);
  EXPECT_EQ(out[0].data, sent[4]);
  EXPECT_TRUE(out[0].recovered);
}

TEST(WindowDecoderTest, DuplicateRepairIsRejectedWithoutDamage) {
  WindowEncoder enc(8, kBytes);
  WindowDecoder dec(8, kBytes);
  Rng rng(6);
  const auto sent = PushN(enc, rng, 4);
  EXPECT_TRUE(dec.AddSource(0, sent[0]));
  const auto repair = enc.MakeRepair(12);

  // Two losses, one equation: it banks but cannot recover yet.
  EXPECT_TRUE(dec.AddRepair(repair));
  EXPECT_EQ(dec.rank(), 1u);
  // The same equation again is linearly dependent.
  EXPECT_FALSE(dec.AddRepair(repair));
  EXPECT_EQ(dec.rank(), 1u);

  // A second, independent equation finishes the job.
  EXPECT_TRUE(dec.AddRepair(enc.MakeRepair(13)));
  EXPECT_TRUE(dec.AddSource(1, sent[1]));  // also a duplicate-ish path: known?
  const auto out = dec.PopDeliverable();
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].data, sent[i]);
}

TEST(WindowDecoderTest, ReorderedRepairBeforeItsSourceSymbols) {
  WindowEncoder enc(8, kBytes);
  WindowDecoder dec(8, kBytes);
  Rng rng(7);
  const auto sent = PushN(enc, rng, 3);
  // The repair overtakes every source symbol (full reorder).
  EXPECT_TRUE(dec.AddRepair(enc.MakeRepair(21)));
  EXPECT_EQ(dec.rank(), 1u);
  EXPECT_TRUE(dec.PopDeliverable().empty());

  // Two of three source symbols arrive late; the banked equation then
  // pins down the third.
  EXPECT_TRUE(dec.AddSource(2, sent[2]));
  EXPECT_TRUE(dec.AddSource(0, sent[0]));
  const auto out = dec.PopDeliverable();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].id, 1u);
  EXPECT_EQ(out[1].data, sent[1]);
  EXPECT_TRUE(out[1].recovered);
  EXPECT_FALSE(out[0].recovered);
  EXPECT_FALSE(out[2].recovered);
}

TEST(WindowDecoderTest, RepairOverKnownSymbolsAddsNoRank) {
  WindowEncoder enc(4, kBytes);
  WindowDecoder dec(4, kBytes);
  Rng rng(7);
  const auto sent = PushN(enc, rng, 2);
  EXPECT_TRUE(dec.AddSource(0, sent[0]));
  EXPECT_TRUE(dec.AddSource(1, sent[1]));
  // Every column the repair spans is already known: nothing to bank.
  EXPECT_FALSE(dec.AddRepair(enc.MakeRepair(5)));
  EXPECT_EQ(dec.rank(), 0u);
  EXPECT_EQ(dec.Deficit(), 0u);
  EXPECT_EQ(dec.PopDeliverable().size(), 2u);
}

TEST(WindowDecoderTest, DuplicateAndStaleSourceFramesAreCounted) {
  WindowEncoder enc(4, kBytes);
  WindowDecoder dec(4, kBytes);
  Rng rng(8);
  const auto sent = PushN(enc, rng, 2);
  EXPECT_TRUE(dec.AddSource(0, sent[0]));
  EXPECT_FALSE(dec.AddSource(0, sent[0]));  // duplicate while known
  EXPECT_EQ(dec.PopDeliverable().size(), 1u);
  EXPECT_FALSE(dec.AddSource(0, sent[0]));  // stale: already delivered
  EXPECT_EQ(dec.stale_dropped(), 1u);
  // Far beyond the window: dropped, not banked.
  EXPECT_FALSE(dec.AddSource(1 + dec.capacity(), sent[1]));
  EXPECT_EQ(dec.overflow_dropped(), 1u);
}

TEST(WindowDecoderTest, SourceArrivingForAPivotColumnRebanksTheRow) {
  WindowEncoder enc(8, kBytes);
  WindowDecoder dec(8, kBytes);
  Rng rng(9);
  const auto sent = PushN(enc, rng, 3);
  // Two equations over three unknowns: rank 2, nothing recoverable.
  EXPECT_TRUE(dec.AddRepair(enc.MakeRepair(41)));
  EXPECT_TRUE(dec.AddRepair(enc.MakeRepair(42)));
  EXPECT_EQ(dec.rank(), 2u);
  // One symbol arrives verbatim — a column that is (very likely) a
  // pivot. Substituting it must leave two equations over the remaining
  // two unknowns, which now solve.
  EXPECT_TRUE(dec.AddSource(1, sent[1]));
  const auto out = dec.PopDeliverable();
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].id, i);
    EXPECT_EQ(out[i].data, sent[i]);
  }
  EXPECT_TRUE(out[0].recovered);
  EXPECT_FALSE(out[1].recovered);
  EXPECT_TRUE(out[2].recovered);
}

TEST(WindowDecoderTest, LongStreamWithPeriodicLossStaysConsistent) {
  // A window's worth of churn many times over, so ring reuse, advance
  // shifting, and the retired ring all cycle repeatedly.
  constexpr std::size_t kCapacity = 8;
  WindowEncoder enc(kCapacity, kBytes);
  WindowDecoder dec(kCapacity, kBytes);
  Rng rng(10);
  std::vector<std::vector<std::uint8_t>> sent;
  std::size_t delivered = 0;
  std::uint32_t seed = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    if (enc.Full()) {
      // Recover the window with repairs until the ack catches up.
      while (dec.next_expected() < enc.next_id()) {
        dec.AddRepair(enc.MakeRepair(seed++));
        for (const auto& d : dec.PopDeliverable()) {
          EXPECT_EQ(d.data, sent[d.id]);
          ++delivered;
        }
      }
      enc.Advance(dec.next_expected());
    }
    auto data = Payload(rng);
    const auto id = enc.Push(data);
    ASSERT_TRUE(id.has_value());
    sent.push_back(std::move(data));
    // Every third symbol is lost.
    if (*id % 3 != 0) {
      EXPECT_TRUE(dec.AddSource(*id, sent[*id]));
      for (const auto& d : dec.PopDeliverable()) {
        EXPECT_EQ(d.data, sent[d.id]);
        ++delivered;
      }
    }
  }
  // Drain the tail.
  while (dec.next_expected() < enc.next_id()) {
    dec.AddRepair(enc.MakeRepair(seed++));
    for (const auto& d : dec.PopDeliverable()) {
      EXPECT_EQ(d.data, sent[d.id]);
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, 200u);
  EXPECT_EQ(dec.Deficit(), 0u);
}

}  // namespace
}  // namespace ppr::stream
