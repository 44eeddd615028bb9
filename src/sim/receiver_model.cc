#include "sim/receiver_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "phy/channel.h"
#include "phy/spreader.h"

namespace ppr::sim {
namespace {

// Seconds occupied by one 32-chip codeword at 2 Mchip/s: 16 us.
constexpr double kCodewordSeconds =
    static_cast<double>(ppr::phy::kChipsPerSymbol) * kSecondsPerChip;

// Mixes a stable per-frame RNG seed from the experiment seed and the
// frame identity (SplitMix-style avalanche).
std::uint64_t FrameSeed(std::uint64_t base, std::size_t sender,
                        std::uint16_t seq) {
  std::uint64_t x = base ^ (static_cast<std::uint64_t>(sender) << 32) ^
                    (static_cast<std::uint64_t>(seq) << 1) ^ 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// Block Ricean power gain for one (tx, rx, coherence-segment) triple.
// Deterministic in its inputs so a transmission fades identically
// whether it is the decoded signal or an interferer.
double FadingGain(std::uint64_t base, std::size_t tx, std::size_t rx,
                  std::int64_t segment, double ricean_k) {
  Rng rng(FrameSeed(base ^ 0xFAD1FAD1FAD1FAD1ull,
                    tx * 1315423911u + rx,
                    static_cast<std::uint16_t>(segment & 0xFFFF)) ^
          static_cast<std::uint64_t>(segment));
  const double mu = std::sqrt(ricean_k / (ricean_k + 1.0));
  const double sigma = std::sqrt(0.5 / (ricean_k + 1.0));
  const double x = rng.Normal(mu, sigma);
  const double y = rng.Normal(0.0, sigma);
  return x * x + y * y;  // E[gain] == 1
}

}  // namespace

ReceiverModel::ReceiverModel(const RadioMedium& medium,
                             const ReceiverModelConfig& config)
    : medium_(medium), config_(config), layout_(config.payload_octets) {}

std::vector<std::uint8_t> ReceiverModel::SyncSymbols() const {
  std::vector<std::uint8_t> symbols(layout_.TotalSymbols(), 0);

  // Sync prefix: preamble octets then SFD, two symbols per octet (low
  // nibble first, matching the spreader convention).
  const auto pre = frame::PreamblePatternOctets();
  for (std::size_t i = 0; i < pre.size(); ++i) {
    symbols[2 * i] = pre[i] & 0xF;
    symbols[2 * i + 1] = (pre[i] >> 4) & 0xF;
  }
  // Sync suffix: postamble octets then the post-SFD.
  const auto post = frame::PostamblePatternOctets();
  const std::size_t post_first = layout_.PostambleOffset() * 2;
  for (std::size_t i = 0; i < post.size(); ++i) {
    symbols[post_first + 2 * i] = post[i] & 0xF;
    symbols[post_first + 2 * i + 1] = (post[i] >> 4) & 0xF;
  }
  return symbols;
}

void ReceiverModel::FillTestPattern(std::size_t sender, std::uint16_t seq,
                                    std::vector<std::uint8_t>& symbols) const {
  // Body: deterministic test pattern (uniform random symbols), as in the
  // paper's known-test-pattern experiments.
  Rng rng(FrameSeed(config_.seed, sender, seq));
  const std::size_t body_first = frame::kSyncPrefixOctets * 2;
  const std::size_t body_count = layout_.BodyOctets() * 2;
  for (std::size_t i = 0; i < body_count; ++i) {
    symbols[body_first + i] = static_cast<std::uint8_t>(rng.UniformInt(16));
  }
}

void ReceiverModel::ProcessReceiver(
    std::size_t receiver, const std::vector<Transmission>& schedule,
    const std::function<void(const ReceptionRecord&)>& on_reception) const {
  const std::size_t num_cws = layout_.TotalSymbols();
  const double noise_mw = medium_.NoiseFloorMw();

  // The receiver's preamble detector is busy (locked) while it is
  // receiving a frame it synchronized on; later-starting frames cannot
  // grab it (the "undesirable capture" situation postambles rescue).
  double locked_until = -1.0;

  Rng rx_rng(config_.seed ^ (0xC0FFEEull + receiver));

  // A transmitter's fading gain is constant over a coherence segment
  // (hundreds of codewords), so each one is memoised on its segment.
  struct FadedGain {
    std::int64_t segment = std::numeric_limits<std::int64_t>::min();
    double gain = 1.0;
  };
  const auto gain_at = [&](FadedGain& g, std::size_t tx,
                           std::int64_t segment) {
    if (g.segment != segment) {
      g.segment = segment;
      g.gain = FadingGain(config_.seed, tx, receiver, segment,
                          config_.ricean_k);
    }
    return g.gain;
  };
  // The chip error rate only moves at segment and interferer boundaries.
  double last_sinr = std::numeric_limits<double>::quiet_NaN();
  double p_sinr = 0.0;

  struct Interferer {
    double start, end, power_mw;
    std::size_t sender;
    FadedGain fading;
  };
  // Per-reception buffers, reused across the schedule.
  std::vector<Interferer> interferers;
  std::vector<std::uint8_t> true_symbols = SyncSymbols();
  assert(true_symbols.size() == num_cws);
  ReceptionRecord record;
  record.trace.resize(num_cws);

  for (std::size_t ti = 0; ti < schedule.size(); ++ti) {
    const Transmission& t = schedule[ti];
    if (t.sender == receiver) continue;
    const double snr_db = medium_.LinkSnrDb(t.sender, receiver);
    if (snr_db < config_.min_audible_snr_db) continue;

    record.sender = t.sender;
    record.receiver = receiver;
    record.seq = t.seq;
    record.start_s = t.start_s;
    record.snr_db = snr_db;
    record.preamble_sync = false;
    record.postamble_sync = false;
    record.header_ok = false;
    record.trailer_ok = false;

    // Gather interferers overlapping this transmission. The schedule is
    // sorted by start time; scan a window around ti.
    interferers.clear();
    for (std::size_t j = ti; j-- > 0;) {
      const Transmission& o = schedule[j];
      // Frames all share one duration, so anything starting more than
      // one duration earlier cannot overlap.
      if (o.End() <= t.start_s) {
        if (t.start_s - o.start_s > o.duration_s) break;
        continue;
      }
      if (o.sender == t.sender || o.sender == receiver) continue;
      interferers.push_back({o.start_s, o.End(),
                             medium_.RxPowerMw(o.sender, receiver), o.sender,
                             {}});
    }
    for (std::size_t j = ti + 1; j < schedule.size(); ++j) {
      const Transmission& o = schedule[j];
      if (o.start_s >= t.End()) break;
      if (o.sender == t.sender || o.sender == receiver) continue;
      interferers.push_back({o.start_s, o.End(),
                             medium_.RxPowerMw(o.sender, receiver), o.sender,
                             {}});
    }

    // Per-link impairment-burst rate (lognormal across links) and the
    // burst state machine for this reception.
    double burst_enter_p = 0.0;
    if (config_.impairment_rate > 0.0) {
      Rng floor_rng(FrameSeed(config_.seed ^ 0xF100F100ull,
                              t.sender * 131u + receiver, 0));
      burst_enter_p = std::min(
          0.2, config_.impairment_rate *
                   std::exp(floor_rng.Normal(
                       0.0, config_.impairment_spread_sigma)));
    }
    bool impaired = false;

    // Decode every codeword at its own SINR.
    const double p_signal_avg_mw = medium_.RxPowerMw(t.sender, receiver);
    FillTestPattern(t.sender, t.seq, true_symbols);
    FadedGain signal_fading;
    const double coherence =
        config_.fading_coherence_s > 0.0 ? config_.fading_coherence_s : 1.0;
    for (std::size_t cw = 0; cw < num_cws; ++cw) {
      const double w0 = t.start_s + static_cast<double>(cw) * kCodewordSeconds;
      const double w1 = w0 + kCodewordSeconds;
      const auto segment = static_cast<std::int64_t>(w0 / coherence);
      double p_signal_mw = p_signal_avg_mw;
      if (config_.fading_enabled) {
        p_signal_mw *= gain_at(signal_fading, t.sender, segment);
      }
      double interference_mw = 0.0;
      for (auto& intf : interferers) {
        const double overlap =
            std::min(w1, intf.end) - std::max(w0, intf.start);
        if (overlap > 0.0) {
          double p = intf.power_mw;
          if (config_.fading_enabled) {
            p *= gain_at(intf.fading, intf.sender, segment);
          }
          interference_mw += p * (overlap / kCodewordSeconds);
        }
      }
      const double sinr =
          p_signal_mw /
          (noise_mw + config_.interference_penalty * interference_mw);
      if (sinr != last_sinr) {
        last_sinr = sinr;
        p_sinr = phy::ChipErrorProbability(sinr);
      }
      // Advance the impairment burst state and combine the error
      // processes (independent): SINR-driven errors plus either the
      // clean-state floor or the in-burst error rate.
      if (impaired) {
        impaired = !rx_rng.Bernoulli(config_.impairment_exit);
      } else {
        impaired = rx_rng.Bernoulli(burst_enter_p);
      }
      const double p_res =
          impaired ? config_.impaired_chip_error : config_.good_chip_floor;
      const double p_chip = p_sinr + p_res - p_sinr * p_res;

      const std::uint8_t true_sym = true_symbols[cw];
      int distance = 0;
      const int decoded = codebook_.DecodeSent(
          true_sym, phy::SampleChipErrorMask(rx_rng, p_chip), &distance);

      CodewordOutcome& out = record.trace[cw];
      out.true_symbol = true_sym;
      out.symbol = static_cast<std::uint8_t>(decoded);
      out.distance = static_cast<std::uint8_t>(distance);
      out.correct = decoded == true_sym;
    }

    // Synchronization facts from the decoded sync codewords.
    const auto run_correct = [&](std::size_t first, std::size_t count) {
      int n = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (record.trace[first + i].correct) ++n;
      }
      return n;
    };
    const std::size_t preamble_cws = frame::kPreambleOctets * 2;
    const std::size_t sfd_first = preamble_cws;
    const bool sfd_ok = record.trace[sfd_first].correct &&
                        record.trace[sfd_first + 1].correct;
    const bool preamble_run_ok =
        run_correct(0, preamble_cws) >= config_.min_sync_run_correct;
    const bool idle = t.start_s >= locked_until;
    record.preamble_sync = idle && sfd_ok && preamble_run_ok;
    if (record.preamble_sync) locked_until = t.End();

    const std::size_t post_first = layout_.PostambleOffset() * 2;
    const std::size_t post_cws = frame::kPostambleOctets * 2;
    const std::size_t psfd_first = post_first + post_cws;
    const bool psfd_ok = record.trace[psfd_first].correct &&
                         record.trace[psfd_first + 1].correct;
    const bool post_run_ok =
        run_correct(post_first, post_cws) >= config_.min_sync_run_correct;
    record.postamble_sync = psfd_ok && post_run_ok;

    record.header_ok =
        run_correct(layout_.HeaderOffset() * 2, frame::kHeaderOctets * 2) ==
        static_cast<int>(frame::kHeaderOctets * 2);
    record.trailer_ok =
        run_correct(layout_.TrailerOffset() * 2, frame::kTrailerOctets * 2) ==
        static_cast<int>(frame::kTrailerOctets * 2);

    on_reception(record);
  }
}

}  // namespace ppr::sim
