// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload <stw_full_3way|cg_incr_stream|fleet_journal_dedup>
//             --seed <n> --seconds <s> --trace <0|1> [--layers-out <path>]
//
// Prints a provenance block, every metric with its unit and sample count,
// and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 the
// per-layer metrics, and writes the two-clock layer table to --layers-out.
// Any failed operation or correctness check exits 1.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "cg_guest.hpp"
#include "sim/guests.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"commit_ms_p50", "ms"},
      {"commit_ms_p90", "ms"},
      {"full_commit_ms_p50", "ms"},
      {"full_commit_ms_p90", "ms"},
      {"restart_ms_p50", "ms"},
      {"restart_ms_p90", "ms"},
      {"commit_cpu_ms_per_mib", "ms/MiB"},
      {"payload_mib_per_s", "MiB/s"},
      {"node_windows_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
      {"sim_commit_ms_p50", "sim_ms"},
      {"sim_pause_ms_p50", "sim_ms"},
      {"sim_recover_ms_p50", "sim_ms"},
      {"durable_bytes_per_live_byte", "ratio"},
      {"ok_ops_ratio", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"core.capture_ms_p50", "ms"},
      {"core.capture_mib_per_s", "MiB/s"},
      {"core.delta_pages_per_commit", "count"},
      {"core.restore_ms_p50", "ms"},
      {"storage.image.serialize_ms_p50", "ms"},
      {"storage.image.serialize_mib_per_s", "MiB/s"},
      {"storage.image.deserialize_ms_p50", "ms"},
      {"storage.image.deserialize_mib_per_s", "MiB/s"},
      {"util.crc64_mib_per_s", "MiB/s"},
      {"util.threadpool.cpu_per_wall", "ratio"},
      {"storage.replicated.store_ms_p50", "ms"},
      {"storage.replicated.stage_verify_self_ms_p50", "ms"},
      {"storage.replicated.load_ms_p50", "ms"},
      {"storage.replicated.load_self_ms_p50", "ms"},
      {"storage.chain.reconstruct_ms_p50", "ms"},
      {"storage.chain.links_per_restart", "count"},
      {"storage.dedup.encode_ms_p50", "ms"},
      {"storage.dedup.decode_ms_p50", "ms"},
      {"storage.dedup.reused_ref_ratio", "ratio"},
      {"storage.dedup.stored_per_logical", "ratio"},
      {"storage.journal.append_ms_p50", "ms"},
      {"storage.journal.migrate_ms_p50", "ms"},
      {"storage.journal.recover_ms", "ms"},
      {"storage.journal.syncs", "count"},
      {"cluster.fleet.window_ms_p50", "ms"},
      {"cluster.fleet.commits_per_window", "count"},
      {"cluster.fleet.recoveries", "count"},
      {"sim.guest_step_us", "us"},
      {"sim_phase.quiesce_ms", "sim_ms"},
      {"sim_phase.capture_ms", "sim_ms"},
      {"sim_phase.store_ms", "sim_ms"},
      {"sim_phase.restart_ms", "sim_ms"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.commit_coverage_pct", "%"},
      {"obs.restart_coverage_pct", "%"},
  };
  return specs;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ledger_rows_json(const LayerLedger& ledger) {
  std::string out = "[";
  bool first = true;
  for (const auto& [name, s] : ledger.layers()) {
    double wall = 0;
    for (const double v : s.wall_ms) wall += v;
    out += std::string(first ? "\n" : ",\n") + "    {\"layer\": \"" + name +
           "\", \"calls\": " + std::to_string(s.count) + ", \"host_wall_ms\": " + num(wall) +
           ", \"host_wall_ms_p50\": " + num(s.wall_ms.empty() ? 0.0 : median(s.wall_ms)) +
           ", \"host_cpu_ms\": " + num(s.cpu_ms) + ", \"bytes\": " + std::to_string(s.bytes) +
           ", \"sim_ms\": " + num(sim_ms(s.sim_ns)) + "}";
    first = false;
  }
  return out + "\n  ]";
}

std::string observer_json(const ckpt::obs::Observer& observer) {
  std::string out = "\"observer_phase_totals_sim_ms\": {";
  bool first = true;
  for (const auto& [name, stat] : observer.trace().phase_totals()) {
    out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"count\": " +
           std::to_string(stat.count) + ", \"total\": " + num(sim_ms(stat.total)) + "}";
    first = false;
  }
  return out + "},\n  \"observer_metrics\": " + observer.metrics().snapshot_json();
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string provenance_json(const Args& args, const RunOutput& out) {
  const char* commit = std::getenv("PERFBENCH_GIT_COMMIT");
  std::string s = "{\"git_commit\": \"" + json_escape(commit != nullptr ? commit : "unknown") +
                  "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"compiler\": \"" +
                  json_escape(PERFBENCH_COMPILER) + "\", \"cpu_model\": \"" +
                  json_escape(cpu_model()) +
                  "\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                  ", \"pool_width\": " + std::to_string(kPoolWidth) +
                  ", \"workload\": \"" + args.workload + "\", \"seed\": " +
                  std::to_string(args.seed) + ", \"seconds\": " + std::to_string(args.seconds) +
                  ", \"trace\": " + (args.trace ? "1" : "0") + ", \"samples\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    s += std::string(first ? "" : ", ") + "\"" + name + "\": " + std::to_string(m.samples);
    first = false;
  }
  return s + "}}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <stw_full_3way|cg_incr_stream|"
               "fleet_journal_dedup> --seed <n> --seconds <s> --trace <0|1> "
               "[--layers-out <path>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage(what);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string layers_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_u64(value, "bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = static_cast<unsigned>(parse_u64(value, "bad --seconds"));
      if (args.seconds == 0) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(value, "bad --trace");
      if (t > 1) usage("--trace must be 0 or 1");
      args.trace = t == 1;
    } else if (flag == "--layers-out") {
      layers_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  ckpt::sim::register_standard_guests();
  CgGuest::register_type();

  std::string layers;
  RunOutput out;
  try {
    if (args.workload == "stw_full_3way") {
      out = run_stw_full_3way(args, &layers);
    } else if (args.workload == "cg_incr_stream") {
      out = run_cg_incr_stream(args, &layers);
    } else if (args.workload == "fleet_journal_dedup") {
      out = run_fleet_journal_dedup(args, &layers);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  out.put("ok_ops_ratio",
          out.attempted == 0 ? 0.0
                             : static_cast<double>(out.attempted - out.failed) /
                                   static_cast<double>(out.attempted),
          "ratio", out.attempted);
  const auto& catalogue = args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::set<std::string> wanted;
  for (const MetricSpec& spec : catalogue) {
    wanted.insert(spec.name);
    // A layer this workload never calls reports 0 over 0 samples.
    if (args.trace && out.metrics.count(spec.name) == 0) out.put(spec.name, 0.0, spec.unit, 0);
  }
  std::erase_if(out.metrics, [&](const auto& kv) { return wanted.count(kv.first) == 0; });
  for (const MetricSpec& spec : catalogue) {
    const auto it = out.metrics.find(spec.name);
    if (it == out.metrics.end()) {
      out.fail(std::string("metric ") + spec.name + " was not measured");
    } else if (it->second.unit != spec.unit) {
      out.fail(std::string("metric ") + spec.name + " has unit " + it->second.unit);
    }
  }

  const std::string provenance = provenance_json(args, out);
  std::printf("provenance %s\n", provenance.c_str());
  for (const auto& [key, value] : out.notes) std::printf("note %s = %s\n", key.c_str(), value.c_str());
  for (const auto& [key, value] : out.fingerprint) {
    std::printf("fingerprint %s = %s\n", key.c_str(), value.c_str());
  }
  for (const MetricSpec& spec : catalogue) {
    const auto it = out.metrics.find(spec.name);
    if (it == out.metrics.end()) continue;
    std::printf("metric %-44s %20.6f %-7s n=%" PRIu64 "\n", spec.name, it->second.value,
                it->second.unit.c_str(), it->second.samples);
  }
  for (const std::string& f : out.failures) std::printf("FAILED %s\n", f.c_str());

  if (args.trace && !layers_out.empty()) {
    std::ofstream file(layers_out);
    file << "{\n  \"bench\": \"BENCH_layers\",\n  \"provenance\": " << provenance
         << ",\n  " << layers << "\n}\n";
    if (!file) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", layers_out.c_str());
      return 1;
    }
  }

  std::string metrics = "{";
  bool first = true;
  for (const MetricSpec& spec : catalogue) {
    const auto it = out.metrics.find(spec.name);
    if (it == out.metrics.end()) continue;
    metrics += std::string(first ? "" : ", ") + "\"" + spec.name + "\": {\"value\": " +
               num(it->second.value) + ", \"unit\": \"" + it->second.unit + "\"}";
    first = false;
  }
  metrics += "}";
  const bool correct = out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", out.attempted, out.failed, metrics.c_str());
  return correct ? 0 : 1;
}
