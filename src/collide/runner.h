// One PP-ARQ packet exchange whose initial transmission is a two-party
// double collision: the packet under recovery (A) collides twice with
// the same interfering packet (B) at different offsets, the collision
// listener distills equations from the pair of captures, and the
// coded-repair feedback loop finishes whatever rank is still missing.
// The discard baseline — today's behavior — is the same exchange with
// `resolve` off: the receiver keeps only the clean codewords of the
// first capture and pays for the rest in repair symbols.
#pragma once

#include <cstddef>

#include "arq/link_sim.h"
#include "arq/recovery_strategy.h"
#include "collide/capture.h"
#include "collide/listener.h"
#include "common/bitvec.h"
#include "common/rng.h"

namespace ppr::collide {

struct CollisionExchangeOutcome {
  arq::ArqRunStats totals;
  std::size_t rounds = 0;
  CollisionStats collide;
  // Both packets of the double collision fully resolved by stripping.
  bool resolved_pair = false;
  std::size_t equations_banked = 0;
  // Decoder rank the banked equations contributed before any repair
  // symbol crossed the air.
  std::size_t rank_gained = 0;
};

// `strategy` must come from a kCollisionResolve config (its receiver
// implements CollisionEquationConsumer); `episode_rng` drives every
// collision draw (seed it from arq::SeedForCollisionRound so runs are
// schedule-invariant); `repair_channel` carries the repair exchange.
// Both collided transmissions are charged to the forward budget — the
// discard and resolve legs pay identical initial airtime, so any
// repair-bit difference is pure collision-recovery yield.
CollisionExchangeOutcome RunCollisionRecoveryExchange(
    const BitVec& payload_bits, const arq::RecoveryStrategy& strategy,
    const arq::BodyChannel& repair_channel,
    const CollisionEpisodeParams& episode_params, Rng& episode_rng,
    const CollisionListenerConfig& listener_config, bool resolve,
    std::size_t max_rounds = 32);

}  // namespace ppr::collide
