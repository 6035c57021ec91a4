// The three benchmark workloads and the metric catalogue they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/observer.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
};

/// One entry of the metric catalogue.  BENCHMARK.json lists the same names
/// and units; run.py refuses a result whose names differ from it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported with tracing off by every workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, reported by the traced run of every workload (0 with
/// 0 samples where the workload does not exercise the layer).
const std::vector<MetricSpec>& per_layer_metrics();

/// Each workload runs once per process.  A traced run also fills
/// `layers_json` with the body of the two-clock layer table (BENCH_layers).
RunOutput run_stw_full_3way(const Args& args, std::string* layers_json);
RunOutput run_cg_incr_stream(const Args& args, std::string* layers_json);
RunOutput run_fleet_journal_dedup(const Args& args, std::string* layers_json);

/// Render a ledger as BENCH_layers rows: per layer, calls, host wall (total
/// and p50), host CPU, bytes touched and sim time.
std::string ledger_rows_json(const LayerLedger& ledger);

/// The observer's sim-clock phase totals and its counters, as two members
/// of the BENCH_layers object.
std::string observer_json(const ckpt::obs::Observer& observer);

/// Format a double with all its digits (round-trip precision).
std::string num(double v);

}  // namespace perfbench
