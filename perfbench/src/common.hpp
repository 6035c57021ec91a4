// Shared scaffolding of the end-to-end benchmark: clocks, sample sets,
// metric reporting and the host-time layer ledger of the traced run.
//
// Two clocks run side by side.  Host time (wall and process CPU) is how fast
// the library and simulator really run; it is measured here, around public
// calls, never inside src/.  Sim time is the paper's cost model, read from
// the kernels' clocks and CheckpointResult; it repeats exactly for a seed.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/process.hpp"
#include "util/units.hpp"

namespace perfbench {

using ckpt::SimTime;

/// Every workload pins its own pool to this width, so results do not depend
/// on the host's core count or on CKPT_WORKERS.
inline constexpr unsigned kPoolWidth = 2;

inline constexpr double kMiB = 1024.0 * 1024.0;

inline double wall_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(clock::now().time_since_epoch()).count();
}

/// CPU time of the whole process (all threads, pool workers included).
inline double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Wall and CPU time of one interval.
struct Interval {
  double wall = 0;
  double cpu = 0;
};

template <typename Fn>
Interval measure(Fn&& fn) {
  const double w0 = wall_ms();
  const double c0 = cpu_ms();
  fn();
  return {wall_ms() - w0, cpu_ms() - c0};
}

/// Keep a computed value alive so the optimizer cannot drop the call that
/// produced it (standalone timings whose result is otherwise unused).
inline void keep(std::uint64_t v) {
  static volatile std::uint64_t sink = 0;
  sink = sink ^ v;
}

inline double sim_ms(SimTime t) { return static_cast<double>(t) / 1e6; }

/// Linear-interpolated quantile of a sample (q in [0, 1]).
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// A tail percentile is only reported where the sample leaves at least ten
/// values beyond it; a workload that cannot meet that is misconfigured.
inline double tail(const std::vector<double>& values, double q, const std::string& what) {
  const double beyond = (1.0 - q) * static_cast<double>(values.size());
  if (beyond < 10.0 - 1e-9) {
    throw std::logic_error(what + ": " + std::to_string(values.size()) +
                           " samples leave fewer than 10 beyond the percentile");
  }
  return quantile(values, q);
}

template <typename T>
void append(std::vector<T>& into, const std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

/// Work count for a run of `seconds`: per_second * seconds, at least
/// `minimum`, rounded up to a multiple of `multiple`.
inline std::uint64_t scaled(unsigned seconds, double per_second, std::uint64_t minimum,
                            std::uint64_t multiple) {
  auto n = static_cast<std::uint64_t>(per_second * seconds);
  n = std::max(n, minimum);
  return (n + multiple - 1) / multiple * multiple;
}

/// Host-time metrics come from the least-contended half of a run.  The
/// host's CPU speed swings by up to 1.7x in phases of a few seconds, so a
/// run's samples are grouped into time slices of about half a second, the
/// slices are ranked by `key` (lower = faster) and the faster half is kept.
/// Sim-clock metrics use every slice.
template <typename Slice, typename Key>
std::vector<const Slice*> faster_half(std::vector<const Slice*> slices, Key key) {
  std::stable_sort(slices.begin(), slices.end(),
                   [&](const Slice* a, const Slice* b) { return key(*a) < key(*b); });
  slices.resize((slices.size() + 1) / 2);
  return slices;
}

template <typename Slice, typename Key>
std::vector<const Slice*> faster_half(const std::vector<Slice>& slices, Key key) {
  std::vector<const Slice*> all;
  for (const Slice& s : slices) all.push_back(&s);
  return faster_half(std::move(all), key);
}

/// faster_half within each position: slice i of every block competes only
/// with slice i of the other blocks, so state that grows within a block
/// (the fleet's chunk leak) stays represented at every age.
template <typename Slice, typename Key>
std::vector<const Slice*> faster_half_by_position(const std::vector<std::vector<Slice>>& blocks,
                                                  Key key) {
  std::vector<const Slice*> kept;
  for (std::size_t pos = 0; pos < blocks.front().size(); ++pos) {
    std::vector<const Slice*> column;
    for (const auto& block : blocks) column.push_back(&block.at(pos));
    for (const Slice* s : faster_half(std::move(column), key)) kept.push_back(s);
  }
  return kept;
}

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< values the figure summarizes (1 = a single measurement)
};

using MetricMap = std::map<std::string, Metric>;

/// Outcome of one workload run.
struct RunOutput {
  MetricMap metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed operation or check
  /// Deterministic fingerprint of the run's sim-side results (sim metrics,
  /// counts, fleet digest) — what the determinism test compares.
  std::map<std::string, std::string> fingerprint;
  /// Workload facts worth printing (fault mix, counts the metrics omit).
  std::vector<std::pair<std::string, std::string>> notes;

  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
  void put(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// Host/sim ledger of one layer in the traced run: every call into the
/// layer's public function adds one sample of wall time, CPU time, sim time
/// and bytes touched.
struct LayerSamples {
  std::vector<double> wall_ms;
  double cpu_ms = 0;
  SimTime sim_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t count = 0;
};

class LayerLedger {
 public:
  /// Time `fn` as one call into `layer`; `kernel` (may be null) supplies
  /// the sim clock whose advance is charged to the layer.
  template <typename Fn>
  auto record(const std::string& layer, ckpt::sim::SimKernel* kernel, std::uint64_t bytes,
              Fn&& fn) -> decltype(fn()) {
    const SimTime s0 = kernel != nullptr ? kernel->now() : 0;
    const double w0 = wall_ms();
    const double c0 = cpu_ms();
    struct Finish {
      LayerLedger& self;
      const std::string& layer;
      ckpt::sim::SimKernel* kernel;
      std::uint64_t bytes;
      SimTime s0;
      double w0, c0;
      ~Finish() {
        LayerSamples& s = self.layers_[layer];
        s.wall_ms.push_back(wall_ms() - w0);
        s.cpu_ms += cpu_ms() - c0;
        if (kernel != nullptr) s.sim_ns += kernel->now() - s0;
        s.bytes += bytes;
        ++s.count;
      }
    } finish{*this, layer, kernel, bytes, s0, w0, c0};
    return fn();
  }

  /// Add bytes to a layer's ledger after the call (sizes known only then).
  void add_bytes(const std::string& layer, std::uint64_t bytes) {
    layers_[layer].bytes += bytes;
  }

  [[nodiscard]] const LayerSamples* find(const std::string& layer) const {
    const auto it = layers_.find(layer);
    return it == layers_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] double total_wall(const std::string& layer) const {
    const LayerSamples* s = find(layer);
    double total = 0;
    if (s != nullptr) {
      for (const double v : s->wall_ms) total += v;
    }
    return total;
  }
  /// Median wall time of one call; 0 for a layer never called.
  [[nodiscard]] double p50(const std::string& layer) const {
    const LayerSamples* s = find(layer);
    return s == nullptr ? 0.0 : median(s->wall_ms);
  }
  [[nodiscard]] std::uint64_t calls(const std::string& layer) const {
    const LayerSamples* s = find(layer);
    return s == nullptr ? 0 : s->count;
  }
  /// Bytes touched per second of the layer's wall time.
  [[nodiscard]] double mib_per_s(const std::string& layer) const {
    const LayerSamples* s = find(layer);
    return s == nullptr ? 0.0 : (static_cast<double>(s->bytes) / kMiB) / (total_wall(layer) / 1e3);
  }
  [[nodiscard]] SimTime sim_ns(const std::string& layer) const {
    const LayerSamples* s = find(layer);
    return s == nullptr ? 0 : s->sim_ns;
  }
  [[nodiscard]] const std::map<std::string, LayerSamples>& layers() const { return layers_; }

 private:
  std::map<std::string, LayerSamples> layers_;
};

/// Byte-compare the non-code memory of two processes: same pages, same
/// contents.  The code segment is rebuilt from the guest type at restart,
/// so only data, heap, stack and mappings carry checkpointed state.
bool memory_equal(const ckpt::sim::Process& a, const ckpt::sim::Process& b);

/// Bytes of live guest state: every mapped non-code page of the process.
std::uint64_t live_bytes(const ckpt::sim::Process& proc);

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

}  // namespace perfbench
