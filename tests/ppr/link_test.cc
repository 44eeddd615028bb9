#include "ppr/link.h"

#include <gtest/gtest.h>

#include "arq/link_sim.h"

namespace ppr::core {
namespace {

WaveformChannelParams CleanParams() {
  WaveformChannelParams params;
  params.pipeline.modem.samples_per_chip = 4;
  params.pipeline.max_payload_octets = 600;
  params.ec_n0_db = 12.0;  // effectively error-free
  params.seed = 31;
  return params;
}

BitVec RandomPayloadBits(Rng& rng, std::size_t octets) {
  BitVec bits;
  for (std::size_t i = 0; i < octets * 8; ++i) {
    bits.PushBack(rng.Bernoulli(0.5));
  }
  return bits;
}

TEST(WaveformChannelTest, CleanChannelDeliversExactBits) {
  const auto channel = MakeWaveformChannel(CleanParams());
  Rng rng(221);
  const BitVec payload = RandomPayloadBits(rng, 120);
  const auto symbols = channel(payload);
  ASSERT_EQ(symbols.size(), payload.size() / 4);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(symbols[i].symbol, payload.ReadUint(i * 4, 4));
  }
}

TEST(WaveformChannelTest, HandlesNonOctetBodies) {
  // Retransmission wires are nibble- but not octet-aligned; the channel
  // must pad and trim transparently.
  const auto channel = MakeWaveformChannel(CleanParams());
  Rng rng(222);
  BitVec payload;
  for (int i = 0; i < 101; ++i) payload.AppendUint(rng.UniformInt(16), 4);
  ASSERT_NE(payload.size() % 8, 0u);
  const auto symbols = channel(payload);
  ASSERT_EQ(symbols.size(), 101u);
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    EXPECT_EQ(symbols[i].symbol, payload.ReadUint(i * 4, 4));
  }
}

TEST(WaveformChannelTest, NoisyChannelReportsBadHints) {
  auto params = CleanParams();
  params.ec_n0_db = -2.0;  // chip errors ~21%: plenty of corruption
  const auto channel = MakeWaveformChannel(params);
  Rng rng(223);
  const BitVec payload = RandomPayloadBits(rng, 200);
  const auto symbols = channel(payload);
  double mean_hint = 0.0;
  for (const auto& s : symbols) mean_hint += std::min(s.hint, 32.0);
  mean_hint /= static_cast<double>(symbols.size());
  EXPECT_GT(mean_hint, 1.0);
}

TEST(WaveformPpArqTest, CompletesOverCleanLink) {
  arq::PpArqConfig arq_config;
  Rng rng(224);
  const auto stats = arq::RunPpArqExchange(
      RandomPayload(150, rng), arq_config, MakeWaveformChannel(CleanParams()));
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.data_transmissions, 1u);
}

TEST(WaveformPpArqTest, RecoversFromCollisions) {
  auto params = CleanParams();
  params.collision_probability = 0.5;
  params.interferer_relative_db = 0.0;  // equal power: real damage
  params.interferer_octets = 60;
  params.seed = 41;
  arq::PpArqConfig arq_config;
  Rng rng(225);
  const auto stats = arq::RunPpArqExchange(RandomPayload(250, rng), arq_config,
                                           MakeWaveformChannel(params));
  EXPECT_TRUE(stats.success);
}

TEST(WaveformPpArqTest, PartialRetransmissionsSmallerThanPacket) {
  // The Figure 16 property on the real waveform link: retransmission
  // frames are (median) well below the 250-byte packet size. One
  // channel carries the whole run, so every packet sees fresh noise and
  // collision draws.
  auto params = CleanParams();
  params.collision_probability = 0.6;
  params.interferer_relative_db = 0.0;
  params.interferer_octets = 60;
  params.seed = 42;
  arq::PpArqConfig arq_config;
  Rng rng(226);
  const auto channel = MakeWaveformChannel(params);

  std::vector<std::size_t> retx_bits;
  for (int i = 0; i < 6; ++i) {
    const auto stats =
        arq::RunPpArqExchange(RandomPayload(250, rng), arq_config, channel);
    EXPECT_TRUE(stats.success);
    retx_bits.insert(retx_bits.end(), stats.retransmission_bits.begin(),
                     stats.retransmission_bits.end());
  }
  ASSERT_FALSE(retx_bits.empty());
  std::size_t below_full = 0;
  for (const auto bits : retx_bits) {
    if (bits < 250 * 8) ++below_full;
  }
  // The majority of retransmissions are partial.
  EXPECT_GT(2 * below_full, retx_bits.size());
}

TEST(WaveformRelayTest, ComparisonGrowsRelayLegOnDemand) {
  // Without relay params the comparison is the two-strategy original.
  auto params = CleanParams();
  const auto duplex = CompareRecoveryStrategies(60, {}, params, 51);
  EXPECT_FALSE(duplex.relay.has_value());
  EXPECT_TRUE(duplex.chunk.success);
  EXPECT_TRUE(duplex.coded.success);
  // No relay leg -> no shared medium -> nothing to recover from.
  EXPECT_EQ(duplex.collided_recovered, 0u);
}

TEST(WaveformRelayTest, RelayRecoversOverDegradedDirectLink) {
  // Degraded, collision-prone direct path; the relay overhears and
  // reaches the destination over clean hops.
  auto direct = CleanParams();
  direct.ec_n0_db = 5.0;
  direct.collision_probability = 0.6;
  direct.interferer_relative_db = 0.0;
  direct.interferer_octets = 60;
  direct.seed = 52;

  RelayWaveformParams relay;
  relay.overhear = CleanParams();
  relay.overhear.seed = 53;
  relay.relay_link = CleanParams();
  relay.relay_link.seed = 54;

  const auto cmp = CompareRecoveryStrategies(100, {}, direct, 55, &relay);
  ASSERT_TRUE(cmp.relay.has_value());
  EXPECT_TRUE(cmp.relay->totals.success);
  ASSERT_EQ(cmp.relay->parties.size(), 3u);
  // The source never pays more repair than it does carrying it alone.
  std::size_t coded_repair_bits = 0;
  for (const auto bits : cmp.coded.retransmission_bits) {
    coded_repair_bits += bits;
  }
  EXPECT_GT(coded_repair_bits, 0u);
  EXPECT_LE(cmp.relay->parties[arq::kSessionSourceId].repair_bits,
            coded_repair_bits);
  // Collided-but-clean frames are reported separately from corrupted
  // ones and mirror the shared medium's reference count.
  EXPECT_EQ(cmp.collided_recovered,
            cmp.relay_medium.medium.reference_collided_recovered_frames);
  EXPECT_LE(cmp.collided_recovered,
            cmp.relay_medium.medium.reference_collision_frames);
}

TEST(WaveformRelayTest, TwoRelaySessionRunsOverRealChannels) {
  // Degraded direct path, two overhearing relays on their own real
  // waveform hops; the N-party session completes and accounts one
  // party slot per relay.
  auto direct = CleanParams();
  direct.ec_n0_db = 5.0;
  direct.collision_probability = 0.6;
  direct.interferer_relative_db = 0.0;
  direct.interferer_octets = 60;
  direct.seed = 61;

  std::vector<RelayWaveformParams> relays(2);
  relays[0].overhear = CleanParams();
  relays[0].overhear.seed = 62;
  relays[0].relay_link = CleanParams();
  relays[0].relay_link.seed = 63;
  relays[1].overhear = CleanParams();
  relays[1].overhear.seed = 64;
  relays[1].relay_link = CleanParams();
  relays[1].relay_link.seed = 65;

  Rng payload_rng(66);
  const auto stats =
      RunWaveformMultiRelayRecovery(150, {}, direct, relays, payload_rng);
  EXPECT_TRUE(stats.totals.success);
  ASSERT_EQ(stats.parties.size(), 4u);
  EXPECT_GT(stats.parties[arq::kSessionRelayId].repair_bits +
                stats.parties[arq::kSessionRelayId + 1].repair_bits,
            0u);
}

TEST(WaveformRelayTest, SharedInterfererCorrelatesListenerLosses) {
  // The same collision-prone direct path and two clean-ish overhearers,
  // run under both correlation modes over varied per-packet seeds. The
  // shared medium makes every interferer draw hit the whole roster:
  // every collided destination copy is a collided overhearer copy, and
  // every lost destination copy is a lost overhearer copy — while the
  // independent legs keep coincidence-level overlap only.
  const auto run = [&](arq::CollisionCorrelation corr) {
    struct Totals {
      std::size_t ok = 0;
      arq::SharedMediumStats medium;
    } totals;
    for (int p = 0; p < 5; ++p) {
      WaveformChannelParams direct = CleanParams();
      direct.ec_n0_db = 4.5;
      direct.collision_probability = 0.7;
      direct.interferer_relative_db = 3.0;
      direct.interferer_octets = 100;
      direct.seed = 520 + 17 * p;
      std::vector<RelayWaveformParams> relays(2);
      for (int r = 0; r < 2; ++r) {
        relays[r].overhear = direct;
        relays[r].overhear.ec_n0_db = 10.0;
        relays[r].overhear.seed = 7000 + 100 * p + r;
        relays[r].relay_link = direct;
        relays[r].relay_link.ec_n0_db = 10.0;
        relays[r].relay_link.collision_probability = 0.1;
        relays[r].relay_link.seed = 8000 + 100 * p + r;
      }
      Rng payload_rng(66 + p);
      WaveformMediumStats ms;
      const auto stats = RunWaveformMultiRelayRecovery(
          100, {}, direct, relays, payload_rng, corr, &ms);
      if (stats.totals.success) ++totals.ok;
      EXPECT_EQ(ms.listeners.size(), 3u);  // destination + two overhearers
      totals.medium.broadcast_frames += ms.medium.broadcast_frames;
      totals.medium.reference_collision_frames +=
          ms.medium.reference_collision_frames;
      totals.medium.reference_corrupted_frames +=
          ms.medium.reference_corrupted_frames;
      totals.medium.joint_collision_frames += ms.medium.joint_collision_frames;
      totals.medium.joint_corrupted_frames += ms.medium.joint_corrupted_frames;
    }
    return totals;
  };

  const auto independent = run(arq::CollisionCorrelation::kIndependent);
  const auto shared = run(arq::CollisionCorrelation::kSharedInterferer);
  EXPECT_EQ(independent.ok, 5u);
  EXPECT_EQ(shared.ok, 5u);

  // Shared mode: a collision at the destination IS a collision at the
  // overhearers, and with both overhearers inside the burst's
  // footprint, every direct loss is a joint loss.
  ASSERT_GT(shared.medium.reference_collision_frames, 0u);
  EXPECT_EQ(shared.medium.joint_collision_frames,
            shared.medium.reference_collision_frames);
  ASSERT_GT(shared.medium.reference_corrupted_frames, 0u);
  EXPECT_EQ(arq::OverhearLossGivenDirectLoss(shared.medium), 1.0);
  // Independent mode: private draws spare the overhearers on some of
  // the destination's bad transmissions.
  EXPECT_LT(arq::OverhearLossGivenDirectLoss(independent.medium), 1.0);
}

}  // namespace
}  // namespace ppr::core
