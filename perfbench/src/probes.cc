#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "engine/flow_engine.h"
#include "fec/gf256.h"
#include "harness.h"

namespace perfbench {
namespace {

// GF(256) product by shift and xor over the field polynomial 0x11D,
// apart from the program's table and SIMD kernels.
std::uint8_t ReferenceGfMul(std::uint8_t a, std::uint8_t b) {
  unsigned product = 0, x = a;
  for (unsigned y = b; y != 0; y >>= 1) {
    if (y & 1u) product ^= x;
    x <<= 1;
    if (x & 0x100u) x ^= 0x11Du;
  }
  return static_cast<std::uint8_t>(product);
}

}  // namespace

void GfProbes(std::size_t span, std::uint64_t seed, Layers& layers,
              Result& result) {
  using namespace ppr;
  constexpr std::size_t kTerms = 16;
  constexpr std::size_t kBytesPerProbe = std::size_t{1} << 28;
  Rng rng(seed ^ 0x6F256ull);
  std::vector<std::vector<std::uint8_t>> sources(
      kTerms, std::vector<std::uint8_t>(span));
  for (auto& src : sources) {
    for (auto& b : src) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  std::vector<std::uint8_t> dst(span, 0);
  std::vector<fec::GfTerm> terms(kTerms);
  for (std::size_t t = 0; t < kTerms; ++t) {
    terms[t] = {static_cast<std::uint8_t>(2 + rng.UniformInt(254)), sources[t]};
  }
  {
    std::vector<std::uint8_t> got(span), want(span);
    for (std::size_t i = 0; i < span; ++i) {
      got[i] = want[i] = static_cast<std::uint8_t>(rng.UniformInt(256));
      for (const auto& t : terms) want[i] ^= ReferenceGfMul(t.coef, t.src[i]);
    }
    fec::GfAxpyN(got, terms);
    result.Check(got == want, "GfAxpyN differs from the scalar GF(256) product");
  }
  const std::size_t calls = kBytesPerProbe / (span * kTerms) + 1;
  {
    Layers::Span s(layers, "fec.gf256.axpyn");
    for (std::size_t c = 0; c < calls; ++c) {
      terms[c % kTerms].coef = static_cast<std::uint8_t>(2 + c % 254);
      fec::GfAxpyN(dst, terms);
    }
  }
  const double axpyn_bytes = static_cast<double>(calls * span * kTerms);
  result.Metric("fec.gf256.axpyn_mb_per_s",
                axpyn_bytes / static_cast<double>(layers.Get("fec.gf256.axpyn").ns) *
                    1e3,
                "MB/s");

  // 64-byte spans, a new coefficient on every call: where per-coefficient
  // set-up dominates.
  constexpr std::size_t kSpan64 = 64;
  std::vector<std::uint8_t> src64(kSpan64), dst64(kSpan64, 0);
  for (auto& b : src64) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  {
    const auto coef = static_cast<std::uint8_t>(2 + rng.UniformInt(254));
    std::vector<std::uint8_t> got(kSpan64), want(kSpan64);
    for (std::size_t i = 0; i < kSpan64; ++i) {
      got[i] = static_cast<std::uint8_t>(rng.UniformInt(256));
      want[i] = got[i] ^ ReferenceGfMul(coef, src64[i]);
    }
    fec::GfAxpy(got, coef, src64);
    result.Check(got == want, "GfAxpy differs from the scalar GF(256) product");
  }
  const std::size_t calls64 = kBytesPerProbe / 16 / kSpan64;
  {
    Layers::Span s(layers, "fec.gf256.axpy64");
    for (std::size_t c = 0; c < calls64; ++c) {
      fec::GfAxpy(dst64, static_cast<std::uint8_t>(2 + c % 254), src64);
    }
  }
  result.Metric("fec.gf256.axpy64_mb_per_s",
                static_cast<double>(calls64 * kSpan64) /
                    static_cast<double>(layers.Get("fec.gf256.axpy64").ns) * 1e3,
                "MB/s");
}

void BitVecProbe(const ppr::BitVec& frame, Layers& layers, Result& result) {
  using ppr::BitVec;
  constexpr int kReps = 20'000;
  const auto bytes = frame.ToBytes();
  std::size_t mismatches = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    Layers::Span s(layers, "common.bitvec");
    BitVec rebuilt = BitVec::FromBytes(bytes);
    rebuilt.AppendBits(frame);
    const BitVec tail = rebuilt.Slice(bytes.size() * 8, frame.size());
    mismatches += tail.ToBytes() != bytes;
  }
  result.Check(mismatches == 0, "BitVec round trip differs");
  result.Metric("common.bitvec.us_per_frame",
                layers.NsPerCall("common.bitvec") / 1e3, "us");
}

double EngineProbe(std::uint64_t seed, Layers& layers, Result& result) {
  using namespace ppr;
  // bench/flow_engine_bench's flow shape: 16 symbols of 64 bytes,
  // deficit 1-3, 20% repair-record loss.
  constexpr std::size_t kFlowsPerWave = 10'000;
  constexpr std::size_t kWaves = 8;
  constexpr double kRecordLoss = 0.2;
  engine::EngineConfig config;
  config.n_source = 16;
  config.symbol_bytes = 64;
  config.max_deficit = 3;
  config.record_loss = kRecordLoss;
  config.seed = seed * 0x9E3779B97F4A7C15ull + 7;

  const auto flows = std::make_unique<engine::FlowEngine>(config);
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    const engine::EngineStats before = flows->stats();
    const engine::FlowId base = wave * kFlowsPerWave;
    {
      Layers::Span s(layers, "engine.spawn");
      for (std::size_t f = 0; f < kFlowsPerWave; ++f) flows->SpawnFlow(base + f);
    }
    {
      Layers::Span s(layers, "engine.run");
      flows->RunAll();
    }
    const engine::EngineStats& after = flows->stats();
    const auto spawned = after.flows_spawned - before.flows_spawned;
    result.Check(spawned == kFlowsPerWave &&
                     after.flows_completed - before.flows_completed == spawned,
                 "completed flows differ from spawned flows");
    result.Check(after.repairs_delivered - before.repairs_delivered <=
                     after.repairs_sent - before.repairs_sent,
                 "more repairs delivered than sent");
  }
  // Delivered repairs are Binomial(sent, 1 - loss): the share must sit
  // within six standard deviations of 1 - loss.
  const engine::EngineStats& s = flows->stats();
  const double sent = static_cast<double>(s.repairs_sent);
  const double delivered = static_cast<double>(s.repairs_delivered);
  const double p = 1.0 - kRecordLoss;
  result.Check(sent > 0 && std::abs(delivered / sent - p) <=
                               6.0 * std::sqrt(p * (1 - p) / sent),
               "delivered repair share outside the binomial bound");

  const double n = static_cast<double>(s.flows_spawned);
  const double rounds = static_cast<double>(s.rounds);
  const double span = static_cast<double>(s.batch_bytes) /
                      static_cast<double>(s.batch_calls);
  result.Metric("engine.spawn.ns_per_flow",
                static_cast<double>(layers.Get("engine.spawn").ns) / n, "ns");
  result.Metric("engine.run.ns_per_round",
                static_cast<double>(layers.Get("engine.run").ns) / rounds, "ns");
  result.Metric("engine.rounds_per_flow", rounds / n, "rounds/flow");
  result.Metric("engine.repairs_per_flow", sent / n, "repairs/flow");
  result.Metric("engine.repair_delivery_ratio", delivered / sent, "ratio");
  result.Metric("engine.batch.span_bytes", span, "B");
  return span;
}

}  // namespace perfbench
