// stream_window: streaming sessions (stream::RunStreamSession) with a
// 32-symbol window and the deadline controller at a 16 ms feedback
// interval, over the benchmark's own Gilbert-Elliott frame-erasure
// channel at 15% loss with mean burst length 3.
//
// fec runs here as long-lived sliding-window elimination, and the
// stream wire code runs too; no phy, sim or engine code runs. About 15%
// of packets are recovered by repair and every packet is delivered. The
// traced run also hosts the flow-engine, GF(256) and BitVec probes.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "phy/despreader.h"
#include "stream/redundancy.h"
#include "stream/session.h"

namespace perfbench {
namespace {

using namespace ppr;

constexpr std::size_t kPacketsPerSession = 5'000;
constexpr double kLoss = 0.15;
constexpr double kMeanBurst = 3.0;
constexpr std::size_t kPatternFrames = std::size_t{1} << 21;  // power of two

// The deadline controller, timed around every RepairBudget call.
class TimedController : public stream::RedundancyController {
 public:
  TimedController(std::unique_ptr<stream::RedundancyController> inner,
                  Layers& layers)
      : inner_(std::move(inner)), layers_(layers) {}
  std::string_view name() const override { return inner_->name(); }
  std::size_t RepairBudget(stream::ControllerEvent event,
                           const stream::ControllerInputs& in) override {
    Layers::Span span(layers_, "stream.controller");
    return inner_->RepairBudget(event, in);
  }

 private:
  std::unique_ptr<stream::RedundancyController> inner_;
  Layers& layers_;
};

// Erasure pattern of a two-state Markov chain: frames sent in the bad
// state are erased. Stationary loss p_gb / (p_gb + p_bg) = kLoss, mean
// bad run 1 / p_bg = kMeanBurst.
std::vector<std::uint8_t> ErasurePattern(std::uint64_t seed) {
  const double p_bg = 1.0 / kMeanBurst;
  const double p_gb = kLoss * p_bg / (1.0 - kLoss);
  Rng rng(seed);
  std::vector<std::uint8_t> pattern(kPatternFrames);
  bool bad = rng.Bernoulli(kLoss);
  for (auto& erased : pattern) {
    erased = bad ? 1 : 0;
    bad = bad ? !rng.Bernoulli(p_bg) : rng.Bernoulli(p_gb);
  }
  return pattern;
}

}  // namespace

void RunStreamWindow(const Options& options, obs::Tracer* tracer,
                     Result& result) {
  stream::StreamSessionConfig config;
  config.window_capacity = 32;
  config.feedback_interval_us = 16'000;
  config.total_packets = kPacketsPerSession;
  config.max_duration_us = 1'000 * config.packet_interval_us * kPacketsPerSession;

  // Inputs: the erasure pattern and one payload seed per session.
  const auto pattern = ErasurePattern(options.seed ^ 0x57BEA4ull);
  Rng payload_seeds(options.seed ^ 0x5EEDull);

  Layers layers(tracer);
  SetupTimer setup(
      [] { stream::MakeDeadlineController(stream::DeadlineConfig{}); }, 20'000);
  for (int i = 0; i < 5; ++i) setup.Sample();

  std::size_t cursor = 0;
  std::uint64_t erased = 0, forward_bits = 0;
  BitVec sample_frame;
  const arq::BodyChannel channel = [&](const BitVec& bits) {
    Layers::Span span(layers, "stream.channel");
    forward_bits += bits.size();
    if (sample_frame.empty()) sample_frame = bits;
    std::vector<phy::DecodedSymbol> out(bits.size() / 4);
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k].symbol = static_cast<std::uint8_t>(bits.ReadUint(4 * k, 4));
    }
    if (pattern[cursor++ & (kPatternFrames - 1)] && !out.empty()) {
      ++erased;
      // A wrong codeword mid-frame, inside the CRC-32's coverage.
      auto& hit = out[out.size() / 2];
      hit.symbol ^= 0xF;
      hit.hamming_distance = 16;
      hit.hint = 16.0;
    }
    return out;
  };

  stream::StreamSessionStats totals;
  std::uint64_t decoder_dropped = 0;
  const auto round = [&]() -> std::uint64_t {
    config.payload_seed = payload_seeds.Next();
    // The session consumes its controller: a fresh one per session.
    TimedController controller(
        stream::MakeDeadlineController(stream::DeadlineConfig{}), layers);
    const std::uint64_t erased_before = erased, bits_before = forward_bits;
    stream::StreamSessionStats s;
    {
      Layers::Span span(layers, "stream.session");
      s = stream::RunStreamSession(config, controller, channel);
    }
    result.attempted += kPacketsPerSession;
    result.failed += kPacketsPerSession - s.delivered;
    result.Check(s.delivered == kPacketsPerSession && s.undelivered == 0 &&
                     s.payload_mismatches == 0,
                 "a packet was not delivered intact");
    result.Check(erased - erased_before == s.source_frames_lost + s.repair_frames_lost,
                 "frames the channel erased differ from frames the session lost");
    result.Check(s.recovered == s.source_frames_lost,
                 "recovered packets differ from lost source frames");
    result.Check(forward_bits - bits_before == s.source_bits + s.repair_bits,
                 "forward bits carried differ from source + repair bits");
    totals.delivered += s.delivered;
    totals.recovered += s.recovered;
    totals.repair_sent += s.repair_sent;
    totals.feedback_frames += s.feedback_frames;
    totals.feedback_bits += s.feedback_bits;
    decoder_dropped += s.decoder_stale_dropped + s.decoder_overflow_dropped +
                       s.ambiguous_id_dropped;
    return s.delivered;
  };

  if (!options.trace) {
    const double elapsed = RunFor(options.seconds, round, 1, &setup);
    const double payload_bits =
        static_cast<double>(totals.delivered * config.symbol_bytes * 8);
    result.Metric("payloads_per_s", static_cast<double>(totals.delivered) / elapsed,
                  "1/s");
    result.Metric("airtime_bits_per_payload_bit",
                  static_cast<double>(forward_bits + totals.feedback_bits) /
                      payload_bits,
                  "bit/bit");
    result.Metric("setup_s", setup.MedianSeconds(), "s");
    return;
  }

  // Traced run: sessions alternate untraced and traced.
  const Interleaved split = RunInterleaved(options.seconds, round, layers);
  const double traced = static_cast<double>(split.ops[1]);
  const double n = static_cast<double>(totals.delivered);
  const auto ns = [&](const char* name) {
    return static_cast<double>(layers.Get(name).ns);
  };
  result.Metric("stream.session_self.us_per_packet",
                (ns("stream.session") - ns("stream.channel") -
                 ns("stream.controller")) /
                    traced / 1e3,
                "us");
  result.Metric("stream.controller.ns_per_call", layers.NsPerCall("stream.controller"),
                "ns");
  result.Metric("stream.channel.us_per_frame", layers.NsPerCall("stream.channel") / 1e3,
                "us");
  result.Metric("stream.repair_frames_per_packet",
                static_cast<double>(totals.repair_sent) / n, "frames/packet");
  result.Metric("stream.feedback_frames_per_packet",
                static_cast<double>(totals.feedback_frames) / n, "frames/packet");
  result.Metric("stream.recovered_per_packet",
                static_cast<double>(totals.recovered) / n, "ratio");
  result.Metric("stream.decoder_dropped_per_packet",
                static_cast<double>(decoder_dropped) / n, "ratio");
  result.Metric("trace_overhead_ratio", split.OverheadRatio(), "ratio");
  layers.set_active(true);
  // The GF(256) kernels at the span the flow engine's fused batches use.
  const double span = EngineProbe(options.seed, layers, result);
  GfProbes(static_cast<std::size_t>(std::lround(span)), options.seed, layers,
           result);
  BitVecProbe(sample_frame, layers, result);
}

}  // namespace perfbench
