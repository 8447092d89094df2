// Host-speed reference kernel for the end-to-end timings.
//
// The reference host is a few CPUs of a shared machine. Its speed for this
// kind of code drifts by 20-40% over minutes with the neighbours' cache and
// memory traffic, the same for every CPU, so two runs of the same program
// minutes apart differ by that much. The kernel is a fixed piece of the
// benchmark's own code with the program's access pattern: it parses a
// fixed .bench netlist into hash-mapped names, levelizes it, and simulates
// it bit-parallel on seeded patterns. It shares no code with the program,
// so a change to the program does not change it. Timed before and after
// each campaign, it measures the host's speed at that moment; the benchmark
// reports campaign time x (kReferenceSeconds / mean kernel time), i.e.
// seconds at the reference host's usual speed.
#pragma once

#include <cstdint>
#include <string>

namespace campaign_bench {

class HostKernel {
 public:
  /// The kernel's usual time on the reference host (4 CPUs of a shared
  /// Intel Xeon): the scale of the normalized timings.
  static constexpr double kReferenceSeconds = 0.05;

  /// `bench_text`: the fixed netlist the kernel parses and simulates.
  explicit HostKernel(std::string bench_text);

  /// Runs the kernel once; returns its wall seconds.
  double run();
  /// False once a run's output differed from the first run's.
  bool stable() const { return stable_; }

 private:
  std::string text_;
  std::uint64_t first_ = 0;
  bool ran_ = false, stable_ = true;
};

}  // namespace campaign_bench
