// Golden pins for the testbed receiver model: an FNV-1a digest over
// every field of every reception record and every per-link scheme sum,
// at the paper's Figure 8-10 operating points. Any change to the
// receiver model's RNG draw order, SINR arithmetic, or decoding shows
// up here; a pure speed-up must leave the digests unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "sim/experiment.h"

namespace ppr::sim {
namespace {

class Fnv1a {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::vector<SchemeConfig> PaperSchemes() {
  std::vector<SchemeConfig> schemes;
  for (const auto scheme :
       {Scheme::kPacketCrc, Scheme::kFragmentedCrc, Scheme::kPpr}) {
    for (const bool post : {false, true}) {
      SchemeConfig c;
      c.scheme = scheme;
      c.postamble = post;
      schemes.push_back(c);
    }
  }
  return schemes;
}

struct GoldenRun {
  std::uint64_t digest;
  std::size_t receptions;
};

GoldenRun DigestRun(double load_bps, bool carrier_sense, std::uint64_t seed) {
  const TestbedExperiment experiment(
      MakePaperConfig(load_bps, carrier_sense, /*duration_s=*/10.0, seed));
  Fnv1a h;
  std::size_t receptions = 0;
  const auto result = experiment.Run(
      PaperSchemes(), [&](const ReceptionRecord& r, const ReceiverModel&) {
        ++receptions;
        h.U64(r.sender);
        h.U64(r.receiver);
        h.U64(r.seq);
        h.F64(r.start_s);
        h.U64(static_cast<std::uint64_t>(r.preamble_sync) |
              static_cast<std::uint64_t>(r.postamble_sync) << 1 |
              static_cast<std::uint64_t>(r.header_ok) << 2 |
              static_cast<std::uint64_t>(r.trailer_ok) << 3);
        h.U64(r.trace.size());
        for (const auto& cw : r.trace) {
          const unsigned char bytes[4] = {cw.true_symbol, cw.symbol,
                                          cw.distance,
                                          static_cast<unsigned char>(cw.correct)};
          h.Bytes(bytes, sizeof(bytes));
        }
        h.F64(r.snr_db);
      });
  h.U64(result.total_transmissions);
  h.U64(result.links.size());
  for (const auto& link : result.links) {
    h.U64(link.sender);
    h.U64(link.receiver);
    h.F64(link.snr_db);
    h.U64(link.frames_sent);
    for (const auto& s : link.schemes) {
      h.F64(s.equivalent_frames_delivered);
      h.U64(s.delivered_bits);
      h.U64(s.wrong_bits);
      h.U64(s.acquired_frames);
    }
  }
  return {h.value(), receptions};
}

struct GoldenPoint {
  const char* figure;
  double load_bps;
  bool carrier_sense;
  std::uint64_t seed;
  std::uint64_t digest;
  std::size_t receptions;
};

constexpr GoldenPoint kGolden[] = {
    {"fig08", 3500.0, true, 1, 0xd75cac28a8c3def1ull, 104},
    {"fig08", 3500.0, true, 77, 0x930c512a8b25b2a9ull, 66},
    {"fig09", 3500.0, false, 1, 0x9174e83458af8f5eull, 105},
    {"fig09", 3500.0, false, 77, 0x68a477626ece7e38ull, 70},
    {"fig10", 13800.0, false, 1, 0x124885e43afc617full, 332},
    {"fig10", 13800.0, false, 77, 0x3ad56ee21f7b166eull, 318},
};

TEST(GoldenTraceTest, PaperPointsDigestUnchanged) {
  for (const auto& g : kGolden) {
    const GoldenRun run = DigestRun(g.load_bps, g.carrier_sense, g.seed);
    EXPECT_EQ(run.receptions, g.receptions) << g.figure << " seed " << g.seed;
    EXPECT_EQ(run.digest, g.digest)
        << g.figure << " seed " << g.seed << std::hex << " digest 0x"
        << run.digest;
  }
}

}  // namespace
}  // namespace ppr::sim
