// testbed_sweep: the 27-node testbed at the paper's Figure 8-10 settings
// (moderate load with and without carrier sense, high load without),
// every audible reception evaluated under the six
// {Packet CRC, FragCRC, PPR} x {postamble, none} schemes.
//
// Its host time is the wall time of the paper's figures: the chip-level
// receiver model (despreading, RNG draws, fading) does the work, and no
// waveform or fec code runs. The traced run also hosts the probes of the
// per-codeword primitives and of the waveform link (WaveformProbe).
#include <array>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "frame/frame_format.h"
#include "harness.h"
#include "phy/channel.h"
#include "phy/chip_sequences.h"
#include "sim/delivery.h"
#include "sim/experiment.h"
#include "sim/receiver_model.h"
#include "sim/traffic.h"

namespace perfbench {
namespace {

using namespace ppr;

constexpr double kModerateLoad = 3'500.0;  // bits/s per node
constexpr double kHighLoad = 13'800.0;
// Simulated seconds per experiment; each experiment is one Run call,
// and one pass over all of them is about 4 s of host time.
constexpr double kSimSeconds = 20.0;
constexpr std::size_t kSeedsPerPoint = 3;
constexpr std::size_t kPayloadOctets = 1500;
constexpr std::size_t kFragments = 30;
constexpr double kEta = 6.0;
constexpr std::size_t kSchemes = 6;

struct Point {
  double load;
  bool carrier_sense;
};
constexpr std::array<Point, 3> kPoints = {
    {{kModerateLoad, true}, {kModerateLoad, false}, {kHighLoad, false}}};

std::vector<sim::SchemeConfig> PaperSchemes() {
  std::vector<sim::SchemeConfig> schemes;
  for (const auto scheme : {sim::Scheme::kPacketCrc, sim::Scheme::kFragmentedCrc,
                            sim::Scheme::kPpr}) {
    for (const bool post : {false, true}) {
      sim::SchemeConfig c;
      c.scheme = scheme;
      c.postamble = post;
      c.num_fragments = kFragments;
      c.eta = kEta;
      schemes.push_back(c);
    }
  }
  return schemes;
}

struct Outcome {
  bool acquired = false;
  std::size_t delivered = 0;
  std::size_t wrong = 0;
};

// Section 7.2's delivery rules, computed from the record alone: framing
// by preamble + header (or, with postamble decoding, by the trailer),
// then whole-packet CRC, per-fragment CRC, or per-codeword SoftPHY
// threshold. Correctness is decoded symbol == true symbol.
Outcome ReferenceDelivery(const sim::ReceptionRecord& r, sim::Scheme scheme,
                          bool postamble) {
  Outcome out;
  out.acquired = postamble ? (r.preamble_sync && (r.header_ok || r.trailer_ok)) ||
                                 (r.postamble_sync && r.trailer_ok)
                           : r.preamble_sync && r.header_ok;
  if (!out.acquired) return out;
  const std::size_t first = (frame::kSyncPrefixOctets + frame::kHeaderOctets) * 2;
  const std::size_t payload_cws = kPayloadOctets * 2;
  const auto ok = [&](std::size_t i) {
    return r.trace[first + i].symbol == r.trace[first + i].true_symbol;
  };
  const auto all_ok = [&](std::size_t from, std::size_t count) {
    for (std::size_t i = from; i < from + count; ++i) {
      if (!ok(i)) return false;
    }
    return true;
  };
  switch (scheme) {
    case sim::Scheme::kPacketCrc:
      if (all_ok(0, payload_cws + frame::kPayloadCrcOctets * 2)) {
        out.delivered = kPayloadOctets * 8;
      }
      break;
    case sim::Scheme::kFragmentedCrc: {
      const std::size_t frag_cws = payload_cws / kFragments;
      for (std::size_t f = 0; f < kFragments; ++f) {
        if (all_ok(f * frag_cws, frag_cws)) out.delivered += frag_cws * 4;
      }
      break;
    }
    case sim::Scheme::kPpr:
      for (std::size_t i = 0; i < payload_cws; ++i) {
        if (r.trace[first + i].distance > kEta) continue;
        (ok(i) ? out.delivered : out.wrong) += 4;
      }
      break;
  }
  return out;
}

struct LinkSums {
  std::array<std::size_t, kSchemes> delivered{};
  std::array<std::size_t, kSchemes> wrong{};
  std::array<std::size_t, kSchemes> acquired{};
};

struct Experiment {
  sim::ExperimentConfig config;
  std::unique_ptr<sim::TestbedExperiment> testbed;
};

std::vector<std::size_t> Senders(const sim::TestbedTopology& topology) {
  std::vector<std::size_t> senders;
  for (std::size_t i = 0; i < topology.NumSenders(); ++i) {
    senders.push_back(topology.SenderId(i));
  }
  return senders;
}

}  // namespace

void RunTestbedSweep(const Options& options, obs::Tracer* tracer,
                     Result& result) {
  static_assert(kPayloadOctets % kFragments == 0);
  const auto schemes = PaperSchemes();

  // Inputs: one traffic/receiver seed per experiment, from the seed.
  Rng seed_rng(options.seed ^ 0x7E57BEDull);
  std::vector<sim::ExperimentConfig> configs;
  for (std::size_t s = 0; s < kSeedsPerPoint; ++s) {
    for (const auto& p : kPoints) {
      configs.push_back(sim::MakePaperConfig(p.load, p.carrier_sense, kSimSeconds,
                                             seed_rng.Next()));
    }
  }

  // Set-up: topology + medium per experiment, and its traffic schedule.
  const auto build = [&] {
    std::vector<Experiment> built;
    for (const auto& config : configs) {
      Experiment e{config, std::make_unique<sim::TestbedExperiment>(config)};
      const sim::ReceiverModel model(e.testbed->medium(), config.receiver);
      sim::TrafficConfig traffic = config.traffic;
      traffic.frame_total_chips = model.Layout().TotalChips();
      traffic.payload_bits = config.receiver.payload_octets * 8;
      const auto schedule = sim::GenerateSchedule(
          traffic, e.testbed->medium(), Senders(e.testbed->topology()));
      result.Check(!schedule.empty(), "empty traffic schedule");
      built.push_back(std::move(e));
    }
    return built;
  };
  SetupTimer setup([&] { build(); }, 2);
  for (int i = 0; i < 5; ++i) setup.Sample();
  const std::vector<Experiment> experiments = build();

  Layers layers(tracer);
  std::uint64_t receptions = 0, ppr_post_bits = 0;
  std::map<std::pair<std::size_t, std::size_t>, LinkSums> sums;
  // Host time inside the observer, which is the benchmark's own checking
  // work; it is taken out of every figure of the program's time.
  std::uint64_t observer_ns = 0;

  const sim::ReceptionObserver observer = [&](const sim::ReceptionRecord& r,
                                              const sim::ReceiverModel& model) {
    const auto observer_start = Clock::now();
    Layers::Span span(layers, "sim.observer");
    ++receptions;
    std::array<sim::DeliveryOutcome, kSchemes> program;
    {
      Layers::Span delivery(layers, "sim.delivery");
      for (std::size_t k = 0; k < kSchemes; ++k) {
        program[k] = sim::EvaluateDelivery(r, model, schemes[k]);
      }
    }
    LinkSums& link = sums[{r.sender, r.receiver}];
    std::array<Outcome, kSchemes> own;
    for (std::size_t k = 0; k < kSchemes; ++k) {
      own[k] = ReferenceDelivery(r, schemes[k].scheme, schemes[k].postamble);
      if (own[k].acquired != program[k].acquired ||
          own[k].delivered != program[k].delivered_bits ||
          own[k].wrong != program[k].wrong_bits) {
        result.Check(false, "EvaluateDelivery differs from the section 7.2 "
                            "rules for " + schemes[k].Name());
      }
      link.delivered[k] += own[k].delivered;
      link.wrong[k] += own[k].wrong;
      link.acquired[k] += own[k].acquired ? 1 : 0;
    }
    // Schemes come in (no postamble, postamble) pairs.
    for (std::size_t k = 0; k < kSchemes; k += 2) {
      if (own[k + 1].delivered < own[k].delivered) {
        result.Check(false, "postamble decoding delivered less for " +
                                schemes[k].Name());
      }
    }
    result.Check(program[0].wrong_bits == 0 && program[1].wrong_bits == 0 &&
                     program[2].wrong_bits == 0 && program[3].wrong_bits == 0,
                 "a CRC scheme delivered wrong bits");
    ppr_post_bits += own[5].delivered;
    observer_ns += NsSince(observer_start);
  };

  // Runs one experiment and checks its per-link sums. Returns the
  // receptions it evaluated.
  double program_s = 0.0;  // Run time less observer time
  std::uint64_t transmissions = 0;
  const auto run_experiment = [&](const Experiment& e) {
    sums.clear();
    const std::uint64_t before = receptions, observed_before = observer_ns;
    sim::ExperimentResult run;
    const auto start = Clock::now();
    {
      Layers::Span span(layers, "sim.run");
      run = e.testbed->Run(schemes, observer);
    }
    program_s += SecondsSince(start) -
                 static_cast<double>(observer_ns - observed_before) / 1e9;
    transmissions += run.total_transmissions;
    result.attempted += receptions - before;
    for (const auto& link : run.links) {
      const LinkSums& own = sums[{link.sender, link.receiver}];
      for (std::size_t k = 0; k < kSchemes; ++k) {
        result.Check(link.schemes[k].delivered_bits == own.delivered[k] &&
                         link.schemes[k].wrong_bits == own.wrong[k] &&
                         link.schemes[k].acquired_frames == own.acquired[k],
                     "per-link sums differ from the per-reception rules");
      }
    }
    return receptions - before;
  };

  if (!options.trace) {
    // Airtime is taken over the first pass, so it is fixed by the seed.
    std::uint64_t pass_transmissions = 0, pass_ppr_post_bits = 0;
    std::size_t next = 0;
    const auto round = [&] {
      const bool first_pass = next < experiments.size();
      const std::uint64_t bits_before = ppr_post_bits;
      const std::uint64_t tx_before = transmissions;
      run_experiment(experiments[next++ % experiments.size()]);
      if (first_pass) {
        pass_transmissions += transmissions - tx_before;
        pass_ppr_post_bits += ppr_post_bits - bits_before;
      }
    };
    RunFor(options.seconds, round, experiments.size(), &setup);
    // On-air bits of every transmission of a PPR + postamble frame, per
    // payload bit that scheme delivered correctly at some receiver.
    const double frame_bits =
        8.0 * static_cast<double>(frame::kSyncPrefixOctets + frame::kHeaderOctets +
                                  kPayloadOctets + frame::kPayloadCrcOctets +
                                  frame::kTrailerOctets + frame::kSyncSuffixOctets);
    result.Metric("payloads_per_s", static_cast<double>(receptions) / program_s,
                  "1/s");
    result.Metric("airtime_bits_per_payload_bit",
                  frame_bits * static_cast<double>(pass_transmissions) /
                      static_cast<double>(pass_ppr_post_bits),
                  "bit/bit");
    result.Metric("setup_s", setup.MedianSeconds(), "s");
    return;
  }

  // Traced run: each experiment runs twice in a row, untraced then
  // traced, so both modes see the same inputs.
  std::uint64_t traced_transmissions = 0;
  std::size_t next = 0;
  const Interleaved split = RunInterleaved(
      options.seconds,
      [&]() -> std::uint64_t {
        const std::uint64_t tx_before = transmissions;
        const std::uint64_t n = run_experiment(experiments[next++ / 2 %
                                                           experiments.size()]);
        if (layers.active()) traced_transmissions += transmissions - tx_before;
        return n;
      },
      layers);
  const double n = static_cast<double>(split.ops[1]);
  const auto ns = [&](const char* name) {
    return static_cast<double>(layers.Get(name).ns);
  };
  // The program's own six EvaluateDelivery calls per reception run inside
  // Run but outside the observer; the observer's repeat of them is what
  // sim.delivery times, and it stands in for them here.
  result.Metric("sim.receiver_model.us_per_reception",
                (ns("sim.run") - ns("sim.observer") - ns("sim.delivery")) / n / 1e3,
                "us");
  result.Metric("sim.delivery.us_per_reception", ns("sim.delivery") / n / 1e3, "us");
  result.Metric("sim.receptions_per_transmission",
                n / static_cast<double>(traced_transmissions), "ratio");
  result.Metric("trace_overhead_ratio", split.OverheadRatio(), "ratio");
  layers.set_active(true);

  // Probes of the primitives the receiver model calls per codeword.
  constexpr std::size_t kDraws = 1 << 21;
  Rng probe_rng(options.seed ^ 0xD1CEull);
  double sink = 0.0;
  {
    Layers::Span span(layers, "common.rng");
    for (std::size_t i = 0; i < kDraws; ++i) {
      sink += probe_rng.Normal();
      sink += probe_rng.Bernoulli(0.3) ? 1.0 : 0.0;
    }
  }
  result.Metric("common.rng.ns_per_draw",
                static_cast<double>(layers.Get("common.rng").ns) / (2.0 * kDraws),
                "ns");
  // Chip error rates spanning the model's range: clean floor, a fade,
  // an impairment burst.
  constexpr std::array<double, 4> kChipP = {0.008, 0.03, 0.12, 0.35};
  std::vector<std::uint32_t> masks(kDraws);
  {
    Layers::Span span(layers, "phy.chip_errors");
    for (std::size_t i = 0; i < kDraws; ++i) {
      masks[i] = phy::SampleChipErrorMask(probe_rng, kChipP[i % kChipP.size()]);
    }
  }
  result.Metric("phy.chip_errors.ns_per_codeword",
                static_cast<double>(layers.Get("phy.chip_errors").ns) / kDraws,
                "ns");
  const phy::ChipCodebook codebook;
  std::size_t errors = 0;
  {
    Layers::Span span(layers, "phy.despread");
    for (std::size_t i = 0; i < kDraws; ++i) {
      const int symbol = static_cast<int>(i % phy::kNumSymbols);
      int distance = 0;
      errors += codebook.DecodeHard(codebook.Codeword(symbol) ^ masks[i],
                                    &distance) != symbol;
    }
  }
  result.Metric("phy.despread.ns_per_codeword",
                static_cast<double>(layers.Get("phy.despread").ns) / kDraws, "ns");
  result.Check(errors < kDraws && sink > 0.0, "probe produced no work");

  WaveformProbe(options.seed, layers, result);
}

}  // namespace perfbench
