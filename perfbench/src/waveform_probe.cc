// The waveform layers, probed in the traced run: a few 250-byte payloads
// over one full-waveform link at the Figure 16 settings (4 samples/chip,
// Ec/N0 5 dB, a 3 dB 60-octet interferer on half the transmissions),
// recovered by PP-ARQ chunk retransmission (arq::RunPpArqExchange); then
// their frames replayed stage by stage, and the receiver-side PP-ARQ
// steps run on their first receptions.
//
// The probe is small and fixed in size: frame sync makes a waveform
// payload cost 0.5-0.9 s of host time.
#include <cmath>
#include <cstdio>
#include <numbers>
#include <optional>
#include <vector>

#include "arq/chunking.h"
#include "arq/feedback.h"
#include "arq/link_sim.h"
#include "arq/pp_arq.h"
#include "common/bitvec.h"
#include "common/rng.h"
#include "frame/frame_format.h"
#include "harness.h"
#include "phy/channel.h"
#include "phy/despreader.h"
#include "phy/spreader.h"
#include "ppr/link.h"
#include "ppr/receiver_pipeline.h"
#include "softphy/classifier.h"
#include "softphy/runlength.h"

namespace perfbench {
namespace {

using namespace ppr;

constexpr std::size_t kPayloadOctets = 250;
constexpr std::size_t kExchanges = 4;
constexpr int kSoftRepeats = 20;
constexpr int kArqRepeats = 200;

core::WaveformChannelParams Figure16Params(std::uint64_t seed) {
  core::WaveformChannelParams params;
  params.pipeline.modem.samples_per_chip = 4;
  params.pipeline.max_payload_octets = 400;
  params.ec_n0_db = 5.0;
  params.collision_probability = 0.5;
  params.interferer_relative_db = 3.0;
  params.interferer_octets = 60;
  params.seed = seed;
  return params;
}

// The IEEE CRC-32 (reflected, polynomial 0xEDB88320), bit by bit, apart
// from the program's table code.
std::uint32_t ReferenceCrc32(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

phy::SampleVec ModulatePattern(const phy::ModemConfig& modem,
                               const std::vector<std::uint8_t>& octets) {
  const phy::ChipCodebook codebook;
  const phy::MskModulator modulator(modem);
  return modulator.Modulate(
      phy::SpreadBits(codebook, BitVec::FromBytes(octets)));
}

}  // namespace

void WaveformProbe(std::uint64_t seed, Layers& layers, Result& result) {
  const auto params = Figure16Params(seed * 0x9E3779B97F4A7C15ull + 1601);
  const arq::PpArqConfig arq_config;

  Rng rng(seed ^ 0x5A5A1602ull);
  std::vector<BitVec> payloads(kExchanges), bodies(kExchanges);
  for (std::size_t i = 0; i < kExchanges; ++i) {
    std::vector<std::uint8_t> bytes(kPayloadOctets);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    payloads[i] = BitVec::FromBytes(bytes);
    bodies[i] = payloads[i];
    bodies[i].AppendUint(ReferenceCrc32(bytes), 32);
  }

  // Two persistent channels, one whose every transmission meets the
  // interferer and one whose none does. The first frames of odd
  // exchanges and every other retransmission go through the first, so
  // half the transmissions are hit and both a clean and a hit first
  // reception are seen whatever the seed. Unlike core::RunWaveformPpArq,
  // which rebuilds its channel from the same seed for every packet,
  // each frame gets fresh noise.
  auto clean_params = params;
  clean_params.collision_probability = 0.0;
  auto hit_params = params;
  hit_params.collision_probability = 1.0;
  hit_params.seed = params.seed ^ 0x1A7E4F3Dull;
  const arq::BodyChannel clean = core::MakeWaveformChannel(clean_params);
  const arq::BodyChannel collided = core::MakeWaveformChannel(hit_params);
  std::size_t exchange_index = 0, retransmissions = 0;

  const BitVec* expected_first = nullptr;  // payload || CRC-32
  std::size_t frames = 0;                  // of the payload in flight
  bool first_ok = true, first_clean = false;
  std::vector<BitVec> captured;  // first frames
  std::vector<std::vector<phy::DecodedSymbol>> first_receptions;
  const arq::BodyChannel wrapped = [&](const BitVec& bits) {
    const bool first = frames++ == 0;
    if (first) first_ok = bits == *expected_first;
    const bool hit = first ? exchange_index % 2 == 1 : retransmissions++ % 2 == 1;
    std::vector<phy::DecodedSymbol> out;
    {
      Layers::Span span(layers, "ppr.link");
      out = hit ? collided(bits) : clean(bits);
    }
    if (first) {
      // Clean: every codeword sent came back as sent.
      first_clean = out.size() * 4 == bits.size();
      for (std::size_t k = 0; k < out.size() && first_clean; ++k) {
        first_clean = out[k].symbol == bits.ReadUint(4 * k, 4);
      }
      first_receptions.push_back(out);
      captured.push_back(bits);
    }
    return out;
  };

  std::uint64_t retx_bits = 0, feedback_bits = 0;
  std::size_t succeeded = 0;
  for (std::size_t i = 0; i < kExchanges; ++i) {
    exchange_index = i;
    expected_first = &bodies[i];
    frames = 0;
    arq::ArqRunStats stats;
    {
      Layers::Span span(layers, "arq.exchange");
      stats = arq::RunPpArqExchange(payloads[i], arq_config, wrapped);
    }
    result.Check(first_ok, "first frame is not payload || CRC-32 of the payload");
    if (first_clean) {
      result.Check(frames == 1, "clean first reception needed a retransmission");
    } else {
      result.Check(frames >= 2,
                   "corrupted first reception accepted without retransmission");
    }
    if (!stats.success) {
      std::fprintf(stderr, "waveform probe: exchange %zu gave up\n", i);
      continue;
    }
    ++succeeded;
    feedback_bits += stats.feedback_bits;
    for (const auto b : stats.retransmission_bits) retx_bits += b;
  }
  const auto link = layers.Get("ppr.link");
  const auto exchange = layers.Get("arq.exchange");
  const double exchanges = static_cast<double>(exchange.calls);
  const double payloads_ok = static_cast<double>(succeeded);
  result.Metric("ppr.link.ms_per_frame", layers.NsPerCall("ppr.link") / 1e6, "ms");
  result.Metric("arq.self.ms_per_payload",
                static_cast<double>(exchange.ns - link.ns) / exchanges / 1e6, "ms");
  result.Metric("arq.frames_per_payload",
                static_cast<double>(link.calls) / exchanges, "frames/payload");
  result.Metric("arq.retx_bits_per_payload",
                static_cast<double>(retx_bits) / payloads_ok, "bits/payload");
  result.Metric("arq.feedback_bits_per_payload",
                static_cast<double>(feedback_bits) / payloads_ok, "bits/payload");

  // Stage-by-stage replay of the first frames through the public stages
  // the channel and receiver use, at the same settings.
  const auto& modem = params.pipeline.modem;
  const int sps = modem.samples_per_chip;
  const core::FrameModulator modulator(modem);
  const core::ReceiverPipeline pipeline(params.pipeline);
  const phy::WaveformCorrelator pre(
      ModulatePattern(modem, frame::PreamblePatternOctets()));
  const phy::WaveformCorrelator post(
      ModulatePattern(modem, frame::PostamblePatternOctets()));
  const phy::MskDemodulator demod(modem);
  const phy::ChipCodebook codebook;
  const double sigma = phy::NoiseSigmaForEcN0(
      std::pow(10.0, params.ec_n0_db / 10.0), modem.amplitude, sps);

  std::uint64_t sync_samples = 0, demod_samples = 0, codewords = 0;
  std::size_t postamble_frames = 0, missed_frames = 0;
  for (std::size_t f = 0; f < captured.size(); ++f) {
    BitVec padded = captured[f];
    while (padded.size() % 8 != 0) padded.PushBack(false);
    const auto payload = padded.ToBytes();
    frame::FrameHeader header;
    header.length = static_cast<std::uint16_t>(payload.size());
    header.dst = 2;
    header.src = 1;
    header.seq = static_cast<std::uint16_t>(f + 1);

    phy::SampleVec wave;
    {
      Layers::Span span(layers, "ppr.modulate");
      wave = modulator.Modulate(header, payload);
    }
    phy::SampleVec burst;
    if (f % 2 == 1) {  // the interferer hits every other replayed frame
      std::vector<std::uint8_t> junk(params.interferer_octets);
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.UniformInt(256));
      burst = modulator.ModulateOctets(junk);
      phy::ApplyCarrierOffset(burst, 0.0,
                              rng.UniformDouble(0.0, 2 * std::numbers::pi));
    }
    const std::size_t guard = static_cast<std::size_t>(64 * sps);
    phy::SampleVec air(wave.size() + 2 * guard, phy::Sample{0.0, 0.0});
    {
      Layers::Span span(layers, "phy.channel");
      phy::MixInto(air, wave, guard);
      if (!burst.empty()) {
        const std::size_t offset = rng.UniformInt(air.size() - burst.size());
        phy::MixInto(air, burst, offset,
                     std::pow(10.0, params.interferer_relative_db / 20.0));
      }
      phy::AddAwgn(air, sigma, rng);
    }
    // Process, then the preamble and postamble scans it makes, then the
    // scans, then Process again: host drift over the four calls falls
    // on both alike, so the sync share of receive time stays readable.
    std::vector<core::RecoveredFrame> recovered;
    const auto receive = [&] {
      Layers::Span span(layers, "ppr.receive");
      recovered = pipeline.Process(air);
    };
    const auto sync = [&] {
      Layers::Span span(layers, "phy.sync");
      const std::size_t separation = pre.ReferenceLength();
      pre.FindPeaks(air, params.pipeline.sync_threshold, separation);
      post.FindPeaks(air, params.pipeline.sync_threshold, separation);
      sync_samples += 2 * air.size();
    };
    receive();
    sync();
    sync();
    receive();
    if (recovered.empty()) ++missed_frames;
    for (const auto& fr : recovered) {
      if (fr.sync == core::RecoveredFrame::SyncSource::kPostamble) {
        ++postamble_frames;
        break;
      }
    }
    const std::size_t chips = wave.size() / static_cast<std::size_t>(sps) /
                              phy::kChipsPerSymbol * phy::kChipsPerSymbol;
    std::vector<double> soft;
    {
      Layers::Span span(layers, "phy.demod");
      soft = demod.Demodulate(air, guard, chips);
    }
    demod_samples += chips * static_cast<std::size_t>(sps);
    for (int rep = 0; rep < kSoftRepeats; ++rep) {
      Layers::Span span(layers, "phy.despread_soft");
      codewords += phy::DespreadSoft(codebook, soft, phy::HintKind::kHammingDistance)
                       .size();
    }
  }
  const auto ns = [&](const char* name) {
    return static_cast<double>(layers.Get(name).ns);
  };
  const double replayed = static_cast<double>(captured.size());
  result.Metric("ppr.modulate.ms_per_frame", layers.NsPerCall("ppr.modulate") / 1e6,
                "ms");
  result.Metric("phy.channel.ms_per_frame", layers.NsPerCall("phy.channel") / 1e6,
                "ms");
  result.Metric("ppr.receive.ms_per_frame", layers.NsPerCall("ppr.receive") / 1e6,
                "ms");
  result.Metric("phy.sync.msamples_per_s",
                static_cast<double>(sync_samples) / ns("phy.sync") * 1e3,
                "Msample/s");
  result.Metric("phy.sync.share_of_receive", ns("phy.sync") / ns("ppr.receive"),
                "ratio");
  result.Metric("phy.demod.msamples_per_s",
                static_cast<double>(demod_samples) / ns("phy.demod") * 1e3,
                "Msample/s");
  result.Metric("phy.despread_soft.ns_per_codeword",
                ns("phy.despread_soft") / static_cast<double>(codewords), "ns");
  result.Metric("ppr.postamble_frames_per_frame",
                static_cast<double>(postamble_frames) / replayed, "ratio");
  result.Metric("ppr.missed_frames_per_frame",
                static_cast<double>(missed_frames) / replayed, "ratio");

  // The receiver-side PP-ARQ steps on the first receptions: SoftPHY
  // labels and run-length form, the chunking DP, and the feedback wire.
  const softphy::ThresholdClassifier classifier(arq_config.eta);
  const std::size_t total_cw = kPayloadOctets * 2 + 8;
  arq::ChunkingConfig chunk_config;
  chunk_config.packet_bits = total_cw * 4;
  chunk_config.checksum_bits = arq_config.checksum_bits;
  chunk_config.bits_per_codeword = arq_config.bits_per_codeword;
  for (int rep = 0; rep < kArqRepeats; ++rep) {
    for (const auto& symbols : first_receptions) {
      softphy::RunLengthForm runs;
      {
        Layers::Span span(layers, "softphy.classify");
        runs = softphy::ToRunLengthForm(classifier.Label(symbols));
      }
      if (runs.AllGood() || symbols.size() != total_cw) continue;
      arq::ChunkingResult chunks;
      {
        Layers::Span span(layers, "arq.chunking");
        chunks = arq::ComputeOptimalChunks(runs, chunk_config);
      }
      arq::FeedbackPacket feedback;
      for (const auto& c : chunks.chunks) {
        feedback.requests.push_back({c.offset_codewords, c.length_codewords});
      }
      const BitVec assembled = arq::SymbolsToLogicalBits(symbols);
      BitVec wire;
      {
        Layers::Span span(layers, "arq.feedback.encode");
        wire = arq::EncodeFeedback(feedback, assembled, total_cw, 4,
                                   arq_config.checksum_bits);
      }
      std::optional<arq::DecodedFeedback> decoded;
      {
        Layers::Span span(layers, "arq.feedback.decode");
        decoded = arq::DecodeFeedback(wire, total_cw, 4, arq_config.checksum_bits);
      }
      if (rep == 0) {
        result.Check(decoded.has_value() &&
                         decoded->feedback.requests == feedback.requests,
                     "feedback wire does not round-trip");
      }
    }
  }
  const auto us = [&](const char* name) { return layers.NsPerCall(name) / 1e3; };
  result.Metric("softphy.classify.us_per_frame", us("softphy.classify"), "us");
  result.Metric("arq.chunking.us_per_call", us("arq.chunking"), "us");
  result.Metric("arq.feedback.encode_us", us("arq.feedback.encode"), "us");
  result.Metric("arq.feedback.decode_us", us("arq.feedback.decode"), "us");
  std::fprintf(stderr,
               "waveform probe: %zu exchanges, %zu frames replayed, sync share "
               "of receive %.3f\n",
               kExchanges, captured.size(), ns("phy.sync") / ns("ppr.receive"));
}

}  // namespace perfbench
