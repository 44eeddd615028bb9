// Golden pins for the sliding-window decoder as the stream session
// drives it: an FNV-1a digest over every StreamSessionStats field of
// RunStreamSession runs in the end-to-end benchmark's shape (32-symbol
// window, deadline controller, 16 ms feedback) over a seeded bursty
// erasure channel. Rank, the set of recoverable symbols and their bytes
// do not depend on how the decoder orders its pivots, so a rewrite of
// the elimination must leave these digests unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "stream/redundancy.h"
#include "stream/session.h"

namespace ppr::stream {
namespace {

class Fnv1a {
 public:
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Histogram(const obs::HistogramSnapshot& s) {
    U64(s.buckets.size());
    for (const auto b : s.buckets) U64(b);
    U64(s.count);
    U64(s.sum);
    U64(s.min);
    U64(s.max);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// Two-state Markov frame erasures: 15% stationary loss, mean burst 3
// frames. An erased frame carries one wrong codeword inside its CRC-32.
arq::BodyChannel BurstyErasureChannel(std::uint64_t seed) {
  constexpr double kLoss = 0.15;
  constexpr double p_bg = 1.0 / 3.0;
  constexpr double p_gb = kLoss * p_bg / (1.0 - kLoss);
  auto rng = std::make_shared<Rng>(seed);
  auto bad = std::make_shared<bool>(false);
  return [rng, bad](const BitVec& bits) {
    std::vector<phy::DecodedSymbol> out(bits.size() / 4);
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k].symbol = static_cast<std::uint8_t>(bits.ReadUint(4 * k, 4));
    }
    if (*bad && !out.empty()) out[out.size() / 2].symbol ^= 0xF;
    *bad = *bad ? !rng->Bernoulli(p_bg) : rng->Bernoulli(p_gb);
    return out;
  };
}

std::uint64_t DigestSession(std::uint64_t seed) {
  StreamSessionConfig config;
  config.window_capacity = 32;
  config.feedback_interval_us = 16'000;
  config.total_packets = 4'000;
  config.payload_seed = seed * 0x9E3779B97F4A7C15ull;
  const auto controller = MakeDeadlineController(DeadlineConfig{});
  const StreamSessionStats s =
      RunStreamSession(config, *controller, BurstyErasureChannel(seed));
  EXPECT_EQ(s.delivered, config.total_packets) << "seed " << seed;
  EXPECT_EQ(s.payload_mismatches, 0u) << "seed " << seed;
  EXPECT_GT(s.recovered, 0u) << "seed " << seed;

  Fnv1a h;
  for (const std::uint64_t v :
       {std::uint64_t{s.source_sent}, std::uint64_t{s.repair_sent},
        std::uint64_t{s.source_frames_lost},
        std::uint64_t{s.repair_frames_lost}, s.source_bits, s.repair_bits,
        s.feedback_bits, std::uint64_t{s.feedback_frames},
        std::uint64_t{s.delivered}, std::uint64_t{s.recovered},
        std::uint64_t{s.undelivered}, std::uint64_t{s.payload_mismatches},
        std::uint64_t{s.backpressure_stalls},
        std::uint64_t{s.decoder_stale_dropped},
        std::uint64_t{s.decoder_overflow_dropped},
        std::uint64_t{s.ambiguous_id_dropped}, s.finished_at_us}) {
    h.U64(v);
  }
  h.Histogram(s.latency_us);
  h.Histogram(s.recovered_latency_us);
  return h.value();
}

TEST(StreamGoldenTest, BurstyDeadlineSessionDigestUnchanged) {
  constexpr struct {
    std::uint64_t seed;
    std::uint64_t digest;
  } kGolden[] = {
      {1, 0x0419a02d2514f1d9ull},
      {2, 0x89ab57cc0c26c3c8ull},
      {3, 0x3ee3eeee6dbd9141ull},
  };
  for (const auto& g : kGolden) {
    const std::uint64_t digest = DigestSession(g.seed);
    EXPECT_EQ(digest, g.digest)
        << "seed " << g.seed << std::hex << " digest 0x" << digest;
  }
}

}  // namespace
}  // namespace ppr::stream
