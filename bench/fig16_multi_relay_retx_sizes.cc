// Figure 16, multi-relay variant: repair-traffic scaling with the
// relay roster on a fig16-style waveform link. The same degraded
// direct path is run with 0, 1, 2, and 4 overhearing relays (0 = plain
// sender-only coded repair), each relay's overhear and delivery hop a
// real AWGN+collision channel, and the dense roster additionally under
// a per-round relay airtime budget to show ExOR-style deferral.
//
// A second table sweeps CollisionCorrelation over the 2-relay roster:
// the same climate with private per-hop interferer draws (independent,
// the legacy model) vs one shared interferer draw per transmission
// projected through every listener (ppr::core::WaveformMedium). The
// joint-loss columns show why the distinction matters: under a shared
// interferer the overhearers lose their copies exactly when the
// destination does (P(ovh|dir) -> 1), so the relays' repair value
// collapses and the source carries the bulk of the burden.
//
//   --smoke   run a 2-packet configuration (CI bit-rot guard)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "arq/link_sim.h"
#include "bench_util.h"
#include "common/rng.h"
#include "ppr/link.h"

int main(int argc, char** argv) {
  using namespace ppr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::PrintHeader(
      "Figure 16 (multi-relay variant)",
      "Repair traffic vs relay roster size: the same degraded direct\n"
      "waveform link recovered with 0/1/2/4 overhearing relays, plus\n"
      "the 4-relay roster under a per-round relay airtime budget\n"
      "(relays served best-overhear-quality-first, ExOR-style), and a\n"
      "correlation sweep: independent vs shared-interferer collisions\n"
      "across the destination and the overhearers.");

  core::WaveformChannelParams direct;
  direct.pipeline.modem.samples_per_chip = 4;
  direct.pipeline.max_payload_octets = 400;
  direct.ec_n0_db = 4.5;               // degraded direct path
  direct.collision_probability = 0.5;  // busy neighborhood
  direct.interferer_relative_db = 3.0;
  direct.interferer_octets = 60;

  const auto relay_hop = [&](double ec_n0_db, std::uint64_t seed) {
    core::WaveformChannelParams p = direct;
    p.ec_n0_db = ec_n0_db;
    p.collision_probability = 0.2;
    p.seed = seed;
    return p;
  };

  struct Leg {
    std::size_t relays;
    std::size_t budget_bits;  // 0 = unlimited
  };
  const std::vector<Leg> legs = {{0, 0}, {1, 0}, {2, 0}, {4, 0}, {4, 1200}};
  const int packets = smoke ? 2 : 20;
  const std::size_t payload_octets = smoke ? 150 : 250;

  std::printf(
      "%7s %9s %10s %12s %12s %12s %10s\n", "relays", "budget", "completed",
      "src bytes", "relay bytes", "round max", "deferrals");
  for (const auto& leg : legs) {
    std::size_t completed = 0, source_bits = 0, relay_bits = 0;
    std::size_t max_round = 0, deferrals = 0;
    for (int i = 0; i < packets; ++i) {
      arq::PpArqConfig config;
      config.relay_airtime_budget_bits = leg.budget_bits;
      Rng payload_rng(1704 + i);
      // Channel seeds follow the packet index: each packet is a fresh
      // noise and interferer realization, and every leg sees the same
      // one for the same packet.
      core::WaveformChannelParams params = direct;
      params.seed = 1701 + 31 * static_cast<std::uint64_t>(i);
      if (leg.relays == 0) {
        config.recovery = arq::RecoveryMode::kCodedRepair;
        const auto stats = arq::RunPpArqExchange(
            core::RandomPayload(payload_octets, payload_rng), config,
            core::MakeWaveformChannel(params));
        if (stats.success) ++completed;
        for (const auto bits : stats.retransmission_bits) {
          source_bits += bits;
        }
        continue;
      }
      std::vector<core::RelayWaveformParams> relays(leg.relays);
      for (std::size_t r = 0; r < relays.size(); ++r) {
        // Staggered overhear quality ranks the relays ExOR-style.
        relays[r].overhear = relay_hop(10.0 - static_cast<double>(r),
                                       1800 + 100 * i + 2 * r);
        relays[r].relay_link = relay_hop(10.0, 1801 + 100 * i + 2 * r);
      }
      const auto stats = core::RunWaveformMultiRelayRecovery(
          payload_octets, config, params, relays, payload_rng);
      if (stats.totals.success) ++completed;
      source_bits += stats.parties[arq::kSessionSourceId].repair_bits;
      for (std::size_t p = arq::kSessionRelayId; p < stats.parties.size();
           ++p) {
        relay_bits += stats.parties[p].repair_bits;
      }
      max_round = std::max(max_round, stats.max_round_relay_bits);
      deferrals += stats.relay_deferrals;
    }
    char budget[32];
    if (leg.budget_bits == 0) {
      std::snprintf(budget, sizeof budget, "-");
    } else {
      std::snprintf(budget, sizeof budget, "%zuB", leg.budget_bits / 8);
    }
    std::printf("%7zu %9s %7zu/%-2d %12zu %12zu %12zu %10zu\n", leg.relays,
                budget, completed, packets, source_bits / 8, relay_bits / 8,
                max_round / 8, deferrals);
  }
  std::printf(
      "\nsrc/relay bytes: repair traffic per party class; round max: the\n"
      "largest per-round relay airtime (what the budget caps).\n");

  // Correlation sweep: identical climate, 2 relays, per-packet seeds
  // varied so each packet is a fresh interferer realization.
  std::printf(
      "\n# correlation sweep (2 relays, per-packet channel seeds)\n"
      "%12s %10s %12s %12s %8s %8s %11s\n", "correlation", "completed",
      "src bytes", "relay bytes", "dir loss", "joint", "P(ovh|dir)");
  for (const auto corr : {arq::CollisionCorrelation::kIndependent,
                          arq::CollisionCorrelation::kSharedInterferer}) {
    std::size_t completed = 0, source_bits = 0, relay_bits = 0;
    arq::SharedMediumStats joint;
    for (int i = 0; i < packets; ++i) {
      arq::PpArqConfig config;
      core::WaveformChannelParams params = direct;
      params.collision_probability = 0.7;
      params.seed = 1701 + 31 * static_cast<std::uint64_t>(i);
      std::vector<core::RelayWaveformParams> relays(2);
      for (std::size_t r = 0; r < relays.size(); ++r) {
        relays[r].overhear = relay_hop(10.0, 1800 + 100 * i + 2 * r);
        relays[r].overhear.collision_probability =
            params.collision_probability;
        relays[r].relay_link = relay_hop(10.0, 1801 + 100 * i + 2 * r);
      }
      Rng payload_rng(1704 + i);
      core::WaveformMediumStats medium;
      const auto stats = core::RunWaveformMultiRelayRecovery(
          payload_octets, config, params, relays, payload_rng, corr, &medium);
      if (stats.totals.success) ++completed;
      source_bits += stats.parties[arq::kSessionSourceId].repair_bits;
      for (std::size_t p = arq::kSessionRelayId; p < stats.parties.size();
           ++p) {
        relay_bits += stats.parties[p].repair_bits;
      }
      joint.broadcast_frames += medium.medium.broadcast_frames;
      joint.reference_corrupted_frames +=
          medium.medium.reference_corrupted_frames;
      joint.joint_corrupted_frames += medium.medium.joint_corrupted_frames;
    }
    std::printf("%12s %7zu/%-2d %12zu %12zu %8zu %8zu %11.2f\n",
                corr == arq::CollisionCorrelation::kIndependent
                    ? "independent"
                    : "shared",
                completed, packets, source_bits / 8, relay_bits / 8,
                joint.reference_corrupted_frames,
                joint.joint_corrupted_frames,
                arq::OverhearLossGivenDirectLoss(joint));
  }
  std::printf(
      "\ndir loss: initial transmissions whose destination copy was\n"
      "corrupted; joint: of those, an overhearer's copy died too;\n"
      "P(ovh|dir): the overhear-loss-given-direct-loss correlation the\n"
      "shared medium creates (private draws keep it at coincidence\n"
      "level).\n");
  return 0;
}
