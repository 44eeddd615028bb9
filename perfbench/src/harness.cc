#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>

namespace perfbench {

void Result::Check(bool ok, std::string_view what) {
  if (ok) return;
  correct = false;
  if (failures.size() < 20) failures.emplace_back(what);
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Value& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.9g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

void Layers::Record(const char* name, Clock::time_point start,
                    std::uint64_t ns) {
  Stat& stat = stats_[name];
  stat.ns += ns;
  ++stat.calls;
  if (tracer_) {
    const auto start_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start.time_since_epoch())
            .count());
    tracer_->Complete(name, "perfbench", start_ns, ns);
  }
}

const Layers::Stat& Layers::Get(const std::string& name) const {
  static const Stat kEmpty;
  const auto it = stats_.find(name);
  return it == stats_.end() ? kEmpty : it->second;
}

double Layers::NsPerCall(const std::string& name) const {
  const Stat& s = Get(name);
  return s.calls == 0 ? 0.0
                      : static_cast<double>(s.ns) / static_cast<double>(s.calls);
}

void SetupTimer::Sample() {
  const auto start = Clock::now();
  for (std::size_t b = 0; b < batch_; ++b) build_();
  samples_.push_back(SecondsSince(start) / static_cast<double>(batch_));
}

double SetupTimer::MedianSeconds() const {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
}

double RunFor(double seconds, const std::function<void()>& round,
              std::size_t min_rounds, SetupTimer* setup) {
  constexpr double kSetupEvery = 0.2;
  double timed = 0.0, since_sample = 0.0;
  std::size_t rounds = 0;
  do {
    const auto start = Clock::now();
    round();
    const double took = SecondsSince(start);
    timed += took;
    since_sample += took;
    if (setup && since_sample >= kSetupEvery) {
      setup->Sample();
      since_sample = 0.0;
    }
  } while (++rounds < min_rounds || timed < seconds);
  return timed;
}

double Interleaved::OverheadRatio() const {
  if (ops[0] == 0 || ops[1] == 0) return 0.0;
  return (seconds[1] / static_cast<double>(ops[1])) /
         (seconds[0] / static_cast<double>(ops[0]));
}

Interleaved RunInterleaved(double seconds,
                           const std::function<std::uint64_t()>& round,
                           Layers& layers) {
  Interleaved split;
  std::size_t rounds = 0;
  do {
    const int traced = static_cast<int>(rounds % 2);
    layers.set_active(traced == 1);
    const auto start = Clock::now();
    split.ops[traced] += round();
    split.seconds[traced] += SecondsSince(start);
  } while (++rounds % 2 != 0 || split.seconds[0] + split.seconds[1] < seconds);
  layers.set_active(false);
  return split;
}

double PeakRssMiB() {
  // VmHWM, not getrusage: ru_maxrss keeps the peak of the image this
  // process replaced at exec (the launching interpreter).
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(status);
  return kib / 1024.0;
}

}  // namespace perfbench

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {testbed_sweep|stream_window} --seed N "
               "--seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      options.trace_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return Usage(argv[0]);

  const std::map<std::string, WorkloadFn> workloads = {
      {"testbed_sweep", RunTestbedSweep},
      {"stream_window", RunStreamWindow},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return Usage(argv[0]);

  // Spans of the traced run stay in memory until the run ends. The ring
  // keeps the newest events; per-layer totals are kept apart from it, so
  // a full ring never loses a figure.
  std::unique_ptr<obs::Tracer> tracer;
  if (options.trace) tracer = std::make_unique<obs::Tracer>(1 << 16);

  Result result;
  it->second(options, tracer.get(), result);
  if (!options.trace) result.Metric("peak_rss_mb", PeakRssMiB(), "MiB");

  if (tracer && !options.trace_path.empty() &&
      !tracer->WriteChromeTrace(options.trace_path)) {
    result.Check(false, "could not write " + options.trace_path);
  }
  for (const auto& f : result.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
