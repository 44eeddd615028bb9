#include "collide/runner.h"

#include <stdexcept>

#include "arq/pp_arq.h"
#include "obs/obs.h"

namespace ppr::collide {

CollisionExchangeOutcome RunCollisionRecoveryExchange(
    const BitVec& payload_bits, const arq::RecoveryStrategy& strategy,
    const arq::BodyChannel& repair_channel,
    const CollisionEpisodeParams& episode_params, Rng& episode_rng,
    const CollisionListenerConfig& listener_config, bool resolve,
    std::size_t max_rounds) {
  CollisionExchangeOutcome out;
  const phy::ChipCodebook codebook;
  const std::uint16_t seq = 1;
  const BitVec body = arq::PpArqSender::MakeBody(payload_bits);

  const CollisionEpisode episode =
      DrawCollisionEpisode(codebook, body, episode_params, episode_rng);

  auto sender = strategy.MakeSender(body, seq);
  auto receiver = strategy.MakeReceiver(seq, body.size() / 4);

  // Both collided copies of A crossed the air whether or not anything
  // is distilled from them, so both legs pay the same initial budget.
  out.totals.data_transmissions = 2;
  out.totals.forward_bits = 2 * body.size();
  receiver->IngestInitial(InitialSymbolsFromCapture(episode.first));

  if (resolve) {
    auto* consumer = dynamic_cast<arq::CollisionEquationConsumer*>(
        receiver.get());
    if (consumer == nullptr) {
      throw std::invalid_argument(
          "RunCollisionRecoveryExchange: strategy's receiver does not "
          "consume collision equations (use RecoveryMode::kCollisionResolve)");
    }
    CollisionListener listener(listener_config);
    const ResolvedCollision resolved = listener.Resolve(codebook, episode);
    out.collide = listener.stats();
    out.resolved_pair = resolved.a_resolved && resolved.b_resolved;
    out.equations_banked = resolved.equations.size();
    out.rank_gained = consumer->IngestCollisionEquations(resolved.equations);
    obs::Count("collide.rank_gained", out.rank_gained);
  }

  // The standard coded feedback loop finishes the packet.
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const auto feedback = receiver->BuildFeedbackWire();
    if (!feedback.has_value()) break;
    ++out.rounds;
    out.totals.feedback_bits += feedback->size();
    const arq::RepairPlan plan = sender->HandleFeedback(*feedback);
    out.totals.forward_bits += plan.wire_bits;
    if (plan.wire_bits > 0) {
      out.totals.retransmission_bits.push_back(plan.wire_bits);
    }
    if (plan.frames.empty()) continue;
    ++out.totals.data_transmissions;
    std::vector<arq::ReceivedRepairFrame> received;
    received.reserve(plan.frames.size());
    for (const auto& f : plan.frames) {
      arq::ReceivedRepairFrame rf(f.range, f.aux, repair_channel(f.bits));
      rf.origin = f.origin;
      rf.coef_mask = f.coef_mask;
      rf.suspicion = f.suspicion;
      received.push_back(std::move(rf));
    }
    receiver->IngestRepair(received);
  }
  out.totals.success = receiver->Complete();
  return out;
}

}  // namespace ppr::collide
