// The listener end to end: unit equations from stripped symbols,
// cross-cancelled equations from abandoned regions, stats accounting,
// and the full collision exchange (resolve beats discard on repair
// bits at equal delivery).
#include "collide/listener.h"

#include <gtest/gtest.h>

#include "arq/link_sim.h"
#include "arq/pp_arq.h"
#include "arq/recovery_strategy.h"
#include "collide/capture.h"
#include "collide/runner.h"
#include "common/rng.h"
#include "phy/chip_sequences.h"

namespace ppr::collide {
namespace {

BitVec RandomBody(Rng& rng, std::size_t codewords) {
  BitVec bits;
  for (std::size_t i = 0; i < codewords; ++i) {
    bits.AppendUint(rng.UniformInt(16), 4);
  }
  return bits;
}

CollisionListenerConfig SmallSymbols() {
  CollisionListenerConfig config;
  config.codewords_per_fec_symbol = 4;
  return config;
}

TEST(CollisionListenerTest, CleanEpisodeResolvesPairAndEmitsUnitEquations) {
  const phy::ChipCodebook codebook;
  Rng rng(901);
  const BitVec a = RandomBody(rng, 32);
  CollisionEpisodeParams params;
  params.b_octets = 16;
  params.chip_error_p = 0.0;
  const auto episode = DrawCollisionEpisode(codebook, a, params, rng);

  CollisionListener listener(SmallSymbols());
  const ResolvedCollision r = listener.Resolve(codebook, episode);
  EXPECT_TRUE(r.a_resolved);
  EXPECT_TRUE(r.b_resolved);
  ASSERT_FALSE(r.equations.empty());
  // Unit equations carry the ground-truth symbol bytes.
  for (const auto& eq : r.equations) {
    std::size_t terms = 0, s = 0;
    for (std::size_t k = 0; k < eq.coefs.size(); ++k) {
      if (eq.coefs[k] != 0) { s = k; ++terms; }
    }
    ASSERT_EQ(terms, 1u);
    BitVec expected;
    for (std::size_t i = s * 4; i < (s + 1) * 4; ++i) {
      expected.AppendUint(a.ReadUint(i * 4, 4), 4);
    }
    EXPECT_EQ(eq.data, expected.ToBytes()) << "symbol " << s;
  }
  const CollisionStats& stats = listener.stats();
  EXPECT_EQ(stats.episodes_seen, 1u);
  EXPECT_EQ(stats.pairs_resolved, 1u);
  EXPECT_EQ(stats.episodes_abandoned, 0u);
  EXPECT_GT(stats.codewords_stripped, 0u);
  EXPECT_EQ(stats.equations_banked, r.equations.size());
}

TEST(CollisionListenerTest, AbandonedEpisodeStillBanksEquations) {
  const phy::ChipCodebook codebook;
  Rng rng(911);
  const BitVec a = RandomBody(rng, 32);
  const BitVec b = RandomBody(rng, 32);
  // Hand-built episode with symbol-aligned offsets so the algebraic
  // path has material, and strip thresholds that forbid stripping.
  CollisionEpisode episode;
  episode.b_body = b;
  episode.first = SimulateCollisionCapture(codebook, a, b, 4, 0.0, rng);
  episode.second = SimulateCollisionCapture(codebook, a, b, 8, 0.0, rng);

  CollisionListenerConfig config = SmallSymbols();
  config.strip.max_chain_suspicion = -1.0;  // stripping always bails
  CollisionListener listener(config);
  const ResolvedCollision r = listener.Resolve(codebook, episode);
  EXPECT_FALSE(r.a_resolved);
  EXPECT_TRUE(r.strip.abandoned);
  EXPECT_GT(listener.stats().cross_cancelled, 0u);
  EXPECT_EQ(listener.stats().episodes_abandoned, 1u);
  // With stripping disabled, knowledge comes from clean regions only:
  // the second capture's clean prefix [0, 8) covers codewords 4..7,
  // which lie inside the first capture's overlap, so symbol 1 alone
  // may surface as a unit equation. Everything else must be a
  // two-term cross-cancellation.
  std::size_t two_term = 0;
  for (const auto& eq : r.equations) {
    std::size_t terms = 0, s = 0;
    for (std::size_t k = 0; k < eq.coefs.size(); ++k) {
      if (eq.coefs[k] != 0) { s = k; ++terms; }
    }
    ASSERT_GE(terms, 1u);
    ASSERT_LE(terms, 2u);
    if (terms == 2) {
      ++two_term;
    } else {
      EXPECT_EQ(s, 1u);
    }
  }
  EXPECT_GT(two_term, 0u);
}

TEST(CollisionRunnerTest, ResolveDeliversWithFewerRepairBitsThanDiscard) {
  arq::PpArqConfig config;
  config.recovery = arq::RecoveryMode::kCollisionResolve;
  config.codewords_per_fec_symbol = 4;
  const auto strategy = arq::MakeRecoveryStrategy(config);

  const phy::ChipCodebook codebook;
  CollisionEpisodeParams params;
  params.b_octets = 40;
  params.chip_error_p = 0.0;
  CollisionListenerConfig listener_config;
  listener_config.codewords_per_fec_symbol = 4;

  std::size_t resolve_repair = 0, discard_repair = 0;
  std::size_t resolve_ok = 0, discard_ok = 0, pairs = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng payload_rng(seed);
    BitVec payload;
    for (std::size_t i = 0; i < 40; ++i) {
      payload.AppendUint(payload_rng.UniformInt(256), 8);
    }
    for (const bool resolve : {true, false}) {
      // Identical episode and repair-channel draws for the two legs.
      Rng episode_rng(seed * 1000);
      Rng channel_rng(seed * 2000);
      const auto channel =
          arq::MakeChipErrorChannel(codebook, 0.0, channel_rng);
      const auto outcome = RunCollisionRecoveryExchange(
          payload, *strategy, channel, params, episode_rng, listener_config,
          resolve);
      EXPECT_TRUE(outcome.totals.success);
      std::size_t repair = 0;
      for (const auto bits : outcome.totals.retransmission_bits) {
        repair += bits;
      }
      if (resolve) {
        resolve_repair += repair;
        resolve_ok += outcome.totals.success;
        pairs += outcome.resolved_pair;
      } else {
        discard_repair += repair;
        discard_ok += outcome.totals.success;
        EXPECT_EQ(outcome.rank_gained, 0u);
        EXPECT_EQ(outcome.collide.episodes_seen, 0u);
      }
    }
  }
  EXPECT_EQ(resolve_ok, discard_ok);
  EXPECT_GT(pairs, 0u);
  // Collision recovery yields strictly cheaper repair at equal delivery.
  EXPECT_LT(resolve_repair, discard_repair);
}

TEST(CollisionListenerTest, StatsAccumulateAcrossEpisodes) {
  const phy::ChipCodebook codebook;
  Rng rng(977);
  CollisionListener listener(SmallSymbols());
  for (int i = 0; i < 3; ++i) {
    const BitVec a = RandomBody(rng, 24);
    CollisionEpisodeParams params;
    params.b_octets = 12;
    params.chip_error_p = 0.0;
    const auto episode = DrawCollisionEpisode(codebook, a, params, rng);
    listener.Resolve(codebook, episode);
  }
  EXPECT_EQ(listener.stats().episodes_seen, 3u);
  CollisionStats sum;
  sum += listener.stats();
  sum += listener.stats();
  EXPECT_EQ(sum.episodes_seen, 6u);
}

}  // namespace
}  // namespace ppr::collide
