// Figure 16: sizes of PP-ARQ partial retransmission packets on a
// single waveform link transferring back-to-back 250-byte packets (the
// section 7.5 experiment: one GNU Radio sender, one receiver). The
// paper's median retransmission is about half the full packet size.
#include <cstdio>

#include "arq/link_sim.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "ppr/link.h"

int main() {
  using namespace ppr;
  bench::PrintHeader(
      "Figure 16",
      "CDF of PP-ARQ partial-retransmission sizes (bytes), 250-byte\n"
      "packets back-to-back over one noisy/bursty waveform link.\n"
      "Paper: median retransmission ~ half the packet size.");

  core::WaveformChannelParams params;
  params.pipeline.modem.samples_per_chip = 4;
  params.pipeline.max_payload_octets = 400;
  params.ec_n0_db = 5.0;              // marginal link
  params.collision_probability = 0.5;  // busy neighborhood
  params.interferer_relative_db = 3.0;
  params.interferer_octets = 60;
  params.seed = 1601;

  arq::PpArqConfig arq_config;
  Rng payload_rng(1602);
  // One link for the whole run: every packet sees its own noise and
  // collision draws, as back-to-back packets on a real link do.
  const arq::BodyChannel channel = core::MakeWaveformChannel(params);

  CdfCollector retx_bytes;
  std::size_t packets = 0, completed = 0, total_retx = 0;
  const int kPackets = 40;
  for (int i = 0; i < kPackets; ++i) {
    const auto stats = arq::RunPpArqExchange(
        core::RandomPayload(250, payload_rng), arq_config, channel);
    ++packets;
    if (stats.success) ++completed;
    for (const auto bits : stats.retransmission_bits) {
      retx_bytes.Add(static_cast<double>(bits) / 8.0);
      ++total_retx;
    }
  }

  if (!retx_bytes.Empty()) {
    bench::PrintCdf("partial retransmission size (bytes)", retx_bytes);
  }
  std::printf("packets: %zu, completed: %zu, retransmissions: %zu\n",
              packets, completed, total_retx);
  if (!retx_bytes.Empty()) {
    std::printf("summary: median retransmission %.0f bytes of a 250-byte "
                "packet (%.0f%%)\n",
                retx_bytes.Median(), 100.0 * retx_bytes.Median() / 250.0);
  }
  return 0;
}
