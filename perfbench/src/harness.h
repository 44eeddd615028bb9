// Shared machinery of the perfbench program: options, the result record
// printed as the last line of output, host-time helpers, the per-layer
// span recorder used by the traced run, and the set-up timer.
//
// Every workload is closed-loop, single-client and single-threaded: the
// next operation starts only after the previous one finished, and no
// obs context is installed unless the run is traced.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "obs/trace.h"

namespace perfbench {
namespace obs = ppr::obs;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::uint64_t NsSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace written by the traced run
};

// The run's verdict and figures. A failed check sets `correct` false and
// keeps the message for stderr; it never stops the run.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Value {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Value> metrics;
  std::vector<std::string> failures;

  void Check(bool ok, std::string_view what);
  void Metric(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
};

// Host time and call counts per layer, plus a Chrome-trace span per
// call. Inactive (no clock reads, no spans) outside the traced phase.
class Layers {
 public:
  explicit Layers(obs::Tracer* tracer) : tracer_(tracer) {}

  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }

  struct Stat {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
  };

  // RAII span around one call into a layer.
  class Span {
   public:
    Span(Layers& layers, const char* name)
        : layers_(layers.active_ ? &layers : nullptr), name_(name) {
      if (layers_) start_ = Clock::now();
    }
    ~Span() {
      if (layers_) layers_->Record(name_, start_, NsSince(start_));
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Layers* layers_;
    const char* name_;
    Clock::time_point start_;
  };

  void Record(const char* name, Clock::time_point start, std::uint64_t ns);
  const Stat& Get(const std::string& name) const;
  double NsPerCall(const std::string& name) const;

 private:
  obs::Tracer* tracer_;
  bool active_ = false;
  std::map<std::string, Stat> stats_;
};

// Times the construction of a workload's program objects: each sample
// is the mean over `batch` builds. Samples are taken before the timed
// phase and between its rounds, so they see the same host as the
// rounds do; the first sample of the process also pays the
// process-wide tables built on first use. `build` must construct
// throwaway objects, never the ones the rounds use.
class SetupTimer {
 public:
  SetupTimer(std::function<void()> build, std::size_t batch)
      : build_(std::move(build)), batch_(batch) {}
  void Sample();
  double MedianSeconds() const;

 private:
  std::function<void()> build_;
  std::size_t batch_;
  std::vector<double> samples_;
};

// Runs `round` (one whole round of operations) until `seconds` of host
// time have been spent in rounds and at least `min_rounds` rounds ran.
// When `setup` is given, a set-up sample is taken between rounds about
// every 0.2 s, outside the timed phase. Returns the seconds spent in
// rounds.
double RunFor(double seconds, const std::function<void()>& round,
              std::size_t min_rounds = 1, SetupTimer* setup = nullptr);

// The timed phase of a traced run: runs rounds until `seconds` of host
// time have been spent in them, alternately untraced and traced (an
// even number of rounds, at least two), so host drift falls on both
// modes alike. `round` returns the operations it completed. Leaves the
// layers inactive.
struct Interleaved {
  double seconds[2] = {0.0, 0.0};  // [0] untraced rounds, [1] traced
  std::uint64_t ops[2] = {0, 0};
  // Untraced rate over traced rate.
  double OverheadRatio() const;
};
Interleaved RunInterleaved(double seconds,
                           const std::function<std::uint64_t()>& round,
                           Layers& layers);

// Peak resident set size of this process, MiB.
double PeakRssMiB();

// Layer probes, run by the traced run after its timed phase with the
// layers active. They report per-layer metrics of layers that no kept
// workload times end to end, or time a primitive in isolation.
//
// GfProbes times fec::GfAxpyN at `span` bytes with 16 terms and
// fec::GfAxpy on 64-byte spans with a new coefficient per call, after
// checking one call of each against a scalar GF(256) multiply.
void GfProbes(std::size_t span, std::uint64_t seed, Layers& layers,
              Result& result);
// BitVecProbe times BitVec::FromBytes, AppendBits, Slice and ToBytes on
// `frame`.
void BitVecProbe(const ppr::BitVec& frame, Layers& layers, Result& result);
// EngineProbe runs a fixed number of waves of native RLNC flows through
// one engine::FlowEngine (SpawnFlow per flow, then RunAll) and reports
// the engine.* metrics. Returns the mean fused-batch span in bytes.
double EngineProbe(std::uint64_t seed, Layers& layers, Result& result);
// WaveformProbe runs a few PP-ARQ exchanges over the Figure 16 waveform
// link, replays their frames stage by stage through the transmitter,
// channel and receiver, and runs the receiver-side PP-ARQ steps on their
// first receptions; it reports the ppr.*, phy.* (waveform), softphy.*
// and arq.* metrics.
void WaveformProbe(std::uint64_t seed, Layers& layers, Result& result);

// One workload: fills `result` with end-to-end metrics (untraced) or
// per-layer metrics (traced).
using WorkloadFn = void (*)(const Options&, obs::Tracer*, Result&);

void RunTestbedSweep(const Options& options, obs::Tracer* tracer,
                     Result& result);
void RunStreamWindow(const Options& options, obs::Tracer* tracer,
                     Result& result);

}  // namespace perfbench
