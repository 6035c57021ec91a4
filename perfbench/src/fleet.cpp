// fleet_journal_dedup — FleetManager with journal group commit, dedup shard
// stores and bench_fleet's torture mix (failure models, heartbeat drops,
// storage faults), plus one shard's commit stack driven directly.
//
// The fleet runs its real configuration: 64 nodes with 64 KiB arrays, 8
// spares, 4 shards, scrub every 16 windows.  Its windows give
// node_windows_per_s, the fleet's own per-commit sim cost, recovery latency
// and the durable-byte and RSS growth: FleetManager prunes chains but never
// collects its dedup shard stores' chunks, so released chunks stay on media
// and grow with run length.  The benchmark reports that growth; it does not
// hide it.
//
// FleetManager keeps individual commits and restarts inside run(), so the
// per-commit host metrics come from one shard's stack built from the same
// public parts — a LogStructuredBackend over a dedup ReplicatedStore, with
// 16 guests group-committing full images (capture + CheckpointChain::append,
// as RecoveryManager::checkpoint does), migrate every 4 windows, scrub
// every 16, prune every 4 commits and no chunk GC, exactly like the fleet.
// Every window one node that just committed restarts onto a fresh kernel.
#include <memory>
#include <optional>

#include "cluster/fleet.hpp"
#include "core/capture.hpp"
#include "core/engine.hpp"
#include "obs/observer.hpp"
#include "sim/guests.hpp"
#include "storage/chain.hpp"
#include "storage/dedup.hpp"
#include "storage/journal.hpp"
#include "storage/replicated.hpp"
#include "util/crc64.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ckpt;

constexpr int kFleetNodes = 64;
constexpr std::uint64_t kArrayBytes = 64 * 1024;
constexpr int kStackNodes = 16;  // one shard's slots: 64 nodes over 4 shards
constexpr std::uint64_t kCommitEvery = 4;
constexpr std::uint64_t kMigrateEvery = 4;
constexpr std::uint64_t kScrubEvery = 16;
constexpr std::uint64_t kPruneEvery = 4;

cluster::FleetOptions fleet_options(std::uint64_t seed) {
  cluster::FleetOptions options;
  options.active_nodes = kFleetNodes;
  options.spare_nodes = kFleetNodes / 8;
  options.shards = 4;
  options.seed = seed;
  options.policy.initial_interval = 4 * options.window;
  options.policy.initial_mtbf = 10 * kSecond;
  options.guest_steps_min = 1;
  options.guest_steps_max = 3;
  options.array_bytes = kArrayBytes;
  options.dedup = true;
  options.workers = kPoolWidth;
  return options;
}

cluster::FleetTortureOptions torture_options() {
  cluster::FleetTortureOptions torture;
  torture.failure_models.push_back(
      {cluster::FailureModel::Kind::kExponential, 600 * kSecond, 0.7, 0, 101});
  torture.failure_models.push_back(
      {cluster::FailureModel::Kind::kWeibull, 1800 * kSecond, 0.7, 0, 202});
  torture.heartbeat_drop_per_window = 0.0005;
  torture.heartbeat_drop_beats = 6;
  torture.storage_fault_per_window = 0.25;
  return torture;
}

std::unique_ptr<cluster::FleetManager> build_fleet(std::uint64_t seed) {
  auto fleet = std::make_unique<cluster::FleetManager>(fleet_options(seed));
  fleet->run(3);  // warm-up: every slot commits once before the faults
  fleet->arm_torture(torture_options());
  return fleet;
}

/// Bytes of one fleet guest's live state (every slot runs the same config).
std::uint64_t fleet_guest_live_bytes(cluster::FleetManager& fleet) {
  for (int slot = 0; slot < kFleetNodes; ++slot) {
    const int node = fleet.slot_node(slot);
    if (node < 0 || !fleet.cluster().node(node).up()) continue;
    sim::SimKernel& kernel = fleet.cluster().node(node).kernel();
    if (const sim::Process* proc = kernel.find_process(fleet.recovery().pid_of(fleet.slot_job(slot)))) {
      return live_bytes(*proc);
    }
  }
  throw std::logic_error("no live fleet guest to size");
}

/// One fleet's timed windows.
struct FleetStats {
  std::vector<double> window_ms;
  std::vector<double> sim_commit_ms;  ///< per window: charged commit cost / commits
  std::vector<double> recover_ms;     ///< FleetReport::recover_latency
  std::vector<std::uint64_t> durable_growth;  ///< durable bytes after each scrub cycle
  double durable_per_live = 0;        ///< at the end
  std::string digest;
  std::uint64_t commits_ok = 0;
};

/// `windows` timed windows of a built, warmed and armed fleet.
FleetStats fleet_segment(std::unique_ptr<cluster::FleetManager> fleet, std::uint64_t windows,
                         RunOutput& out) {
  FleetStats st;
  const std::uint64_t ok0 = fleet->report().commits_ok;
  for (std::uint64_t w = 0; w < windows; ++w) {
    const obs::OverheadLedger before = fleet->accountant().fleet();
    const Interval t = measure([&] { fleet->run(1); });
    const obs::OverheadLedger& after = fleet->accountant().fleet();
    st.window_ms.push_back(t.wall);
    if (after.commits > before.commits) {
      st.sim_commit_ms.push_back(sim_ms(after.checkpoint - before.checkpoint) /
                                 static_cast<double>(after.commits - before.commits));
    }
    if ((w + 1) % kScrubEvery == 0) st.durable_growth.push_back(fleet->report().durable_bytes);
  }
  const cluster::FleetReport& report = fleet->report();
  out.attempted += windows;
  if (!report.ok()) out.fail("fleet report violates its gate: " + report.summary());
  for (const SimTime t : report.recover_latency) st.recover_ms.push_back(sim_ms(t));
  const double live = static_cast<double>(fleet_guest_live_bytes(*fleet)) * kFleetNodes;
  st.durable_per_live = static_cast<double>(report.durable_bytes) / live;
  st.digest = std::to_string(report.digest());
  st.commits_ok = report.commits_ok - ok0;
  out.notes.emplace_back("fleet_report", report.summary());
  return st;
}

// --- One shard's stack ---------------------------------------------------------

struct ShardStack {
  sim::CostModel costs;
  storage::LocalDiskBackend disk{costs};
  storage::RemoteBackend remote{costs};
  std::unique_ptr<storage::ReplicatedStore> store;
  std::unique_ptr<storage::LogStructuredBackend> journal;
  std::vector<std::unique_ptr<sim::SimKernel>> kernels;
  std::vector<sim::Pid> pids;
  std::vector<std::unique_ptr<storage::CheckpointChain>> chains;
  std::vector<std::uint64_t> commits;
  util::Rng rng;
  std::uint64_t window = 0;
  /// Side chunk table for timing dedup encode/decode in the traced run.
  storage::ChunkTable side{storage::DedupOptions{}};
  std::vector<std::vector<std::vector<storage::ChunkKey>>> side_refs;
};

std::unique_ptr<ShardStack> build_stack(std::uint64_t seed, util::ThreadPool& pool,
                                        obs::Observer* observer) {
  auto s = std::make_unique<ShardStack>();
  storage::ReplicatedOptions ropts;
  ropts.write_quorum = 1;
  ropts.verify_writes = true;
  ropts.pool = &pool;
  ropts.dedup = true;
  ropts.observer = observer;
  s->store = std::make_unique<storage::ReplicatedStore>(
      std::vector<storage::BlobStoreBackend*>{&s->disk, &s->remote}, ropts);
  storage::JournalOptions jopts;
  jopts.segment_bytes = 256 * 1024;
  jopts.segments = 24;
  jopts.migrate_on_demand = true;
  jopts.pool = &pool;
  jopts.observer = observer;
  jopts.costs = s->costs;
  s->journal = std::make_unique<storage::LogStructuredBackend>(s->store.get(), jopts);
  s->rng.reseed(seed ^ 0x5A4D57AC4ull);
  s->side_refs.resize(kStackNodes);
  for (int i = 0; i < kStackNodes; ++i) {
    auto kernel = std::make_unique<sim::SimKernel>(1, s->costs, seed + static_cast<std::uint64_t>(i));
    kernel->set_observer(observer);
    sim::WriterConfig config;
    config.array_bytes = kArrayBytes;
    config.writes_per_step = 8;
    config.seed = seed ^ (0x510700ull + static_cast<std::uint64_t>(i));
    s->pids.push_back(kernel->spawn(sim::DenseWriterGuest::kTypeName, config.encode(),
                                    sim::spawn_options_for_array(kArrayBytes)));
    s->kernels.push_back(std::move(kernel));
    s->chains.push_back(std::make_unique<storage::CheckpointChain>(s->journal.get()));
    s->commits.push_back(0);
  }
  return s;
}

struct StackStats {
  std::vector<double> commit_ms, restart_ms, sim_pause_ms;
  double commit_wall_ms = 0, commit_cpu_ms = 0, payload_bytes = 0;
  double step_wall_ms = 0;
  std::uint64_t steps = 0;
  double covered_commit = 0, covered_restart = 0, restart_wall = 0;
  std::uint64_t syncs = 0;
  std::uint64_t links = 0;
};

void step_guest(sim::SimKernel& kernel, sim::Pid pid, std::uint64_t steps) {
  const std::uint64_t target = kernel.process(pid).stats.guest_iterations + steps;
  kernel.run_while(
      [&] { return kernel.process(pid).stats.guest_iterations < target; },
      kernel.now() + 600 * kSecond);
}

template <typename Fn>
auto timed(LayerLedger* ledger, const std::string& layer, sim::SimKernel* kernel,
           std::uint64_t bytes, Fn&& fn) -> decltype(fn()) {
  if (ledger == nullptr) return fn();
  return ledger->record(layer, kernel, bytes, std::forward<Fn>(fn));
}

/// One commit of node `i`, as RecoveryManager::checkpoint does it.  The
/// traced run also times the side layers (serialize, CRC, dedup encode and
/// decode) outside the commit's own wall time.
bool stack_commit(ShardStack& s, int i, util::ThreadPool& pool, LayerLedger* L,
                  StackStats& st, RunOutput& out) {
  sim::SimKernel& k = *s.kernels[i];
  sim::Process& proc = k.process(s.pids[i]);
  const auto charge = [&k](SimTime t) { k.charge_time(t); };
  const SimTime sim0 = k.now();
  const double covered0 = L == nullptr ? 0 : L->total_wall("core.capture") +
                                                 L->total_wall("storage.journal.append");
  const double w0 = wall_ms();
  const double c0 = cpu_ms();
  double excluded = 0;
  storage::CheckpointImage image =
      timed(L, "core.capture", &k, 0, [&] { return core::capture_kernel_level(k, proc, {}); });
  image.pid = proc.pid;
  image.process_name = proc.name;
  image.guest = proc.guest_image;
  image.kind = storage::ImageKind::kFull;
  const std::uint64_t payload = image.payload_bytes();
  if (L != nullptr) {
    const double x0 = wall_ms();
    L->add_bytes("core.capture", payload);
    const std::vector<std::byte> blob = L->record("storage.image.serialize", nullptr, 0,
                                                  [&] { return image.serialize(pool); });
    L->add_bytes("storage.image.serialize", blob.size());
    keep(L->record("util.crc64", nullptr, blob.size(), [&] { return util::crc64(blob); }));
    {
      const storage::CheckpointImage decoded =
          L->record("storage.image.deserialize", nullptr, blob.size(),
                    [&] { return storage::CheckpointImage::deserialize(blob); });
      if (decoded.payload_bytes() != payload) out.fail("blob round trip differs");
    }
    storage::ChunkTable::EncodedImage enc =
        L->record("storage.dedup.encode", nullptr, payload, [&] { return s.side.encode(image); });
    s.side.commit(enc);
    const auto fetch = [&s](const storage::ChunkKey& key, std::uint64_t) {
      return std::optional<std::vector<std::byte>>(s.side.blob_copy(key));
    };
    const std::optional<storage::CheckpointImage> decoded = L->record(
        "storage.dedup.decode", nullptr, payload,
        [&] { return storage::ChunkTable::decode(enc.manifest, fetch); });
    if (!decoded.has_value() || !core::images_equal_memory(*decoded, image)) {
      out.fail("dedup round trip differs");
    }
    // The side table keeps the chunks of each node's last kPruneEvery images.
    auto& refs = s.side_refs[static_cast<std::size_t>(i)];
    refs.push_back(enc.refs);
    if (refs.size() > kPruneEvery) {
      s.side.release(refs.front());
      refs.erase(refs.begin());
      s.side.collect_garbage();
    }
    excluded += wall_ms() - x0;
  }
  const storage::ImageId id = timed(L, "storage.journal.append", &k, payload, [&] {
    return s.chains[i]->append(std::move(image), charge);
  });
  const double wall = wall_ms() - w0 - excluded;
  const double cpu = cpu_ms() - c0;
  ++out.attempted;
  if (id == storage::kBadImageId) {
    out.fail("shard-stack commit rejected");
    return false;
  }
  st.commit_ms.push_back(wall);
  st.commit_wall_ms += wall;
  st.commit_cpu_ms += cpu;
  st.payload_bytes += static_cast<double>(payload);
  // The commit runs synchronously on the node: its guest is off the CPU
  // for the whole charge.
  st.sim_pause_ms.push_back(sim_ms(k.now() - sim0));
  if (L != nullptr) {
    st.covered_commit +=
        L->total_wall("core.capture") + L->total_wall("storage.journal.append") - covered0;
  }
  if (++s.commits[i] % kPruneEvery == 0) s.chains[i]->prune(storage::ChargeFn{});
  return true;
}

void stack_restart(ShardStack& s, int i, std::uint64_t salt, LayerLedger* L, StackStats& st,
                   RunOutput& out) {
  sim::SimKernel target(1, s.costs, salt);
  const auto charge = [&target](SimTime t) { target.charge_time(t); };
  const double covered0 = L == nullptr ? 0 : L->total_wall("storage.chain.reconstruct") +
                                                 L->total_wall("core.restore");
  std::optional<core::RestartResult> rr;
  const double w0 = wall_ms();
  const std::optional<storage::CheckpointImage> image = timed(
      L, "storage.chain.reconstruct", &target, 0, [&] { return s.chains[i]->reconstruct(charge); });
  if (image.has_value()) {
    rr = timed(L, "core.restore", &target, image->payload_bytes(),
               [&] { return core::restart_from_image(target, *image); });
  }
  const double wall = wall_ms() - w0;
  ++out.attempted;
  if (!rr.has_value() || !rr->ok) {
    out.fail("shard-stack restart of node " + std::to_string(i) + " failed");
    return;
  }
  st.restart_ms.push_back(wall);
  st.links += s.chains[i]->links_from_last_full();
  if (L != nullptr) {
    st.covered_restart +=
        L->total_wall("storage.chain.reconstruct") + L->total_wall("core.restore") - covered0;
    st.restart_wall += wall;
  }
  if (!memory_equal(s.kernels[i]->process(s.pids[i]), target.process(rr->pid))) {
    out.fail("shard-stack restart of node " + std::to_string(i) + " restored other memory");
  }
}

/// One scheduling window of the shard: guest steps, the due nodes' group
/// commit, background migrate/scrub on the fleet's cadence, and one restart.
void stack_window(ShardStack& s, util::ThreadPool& pool, LayerLedger* L, StackStats& st,
                  RunOutput& out) {
  const std::uint64_t w = s.window++;
  for (int i = 0; i < kStackNodes; ++i) {
    const std::uint64_t steps = 1 + s.rng.next_below(3);
    const Interval t = measure([&] { step_guest(*s.kernels[i], s.pids[i], steps); });
    st.step_wall_ms += t.wall;
    st.steps += steps;
  }
  std::vector<int> due;
  for (int i = 0; i < kStackNodes; ++i) {
    if ((w + static_cast<std::uint64_t>(i)) % kCommitEvery == 0) due.push_back(i);
  }
  s.journal->begin_group();
  for (const int i : due) stack_commit(s, i, pool, L, st, out);
  sim::SimKernel& payer = *s.kernels[static_cast<std::size_t>(due.front())];
  timed(L, "storage.journal.sync", &payer, 0,
        [&] { s.journal->end_group([&payer](SimTime t) { payer.charge_time(t); }); });
  ++st.syncs;
  if (w % kMigrateEvery == 0) {
    timed(L, "storage.journal.migrate", nullptr, 0,
          [&] { s.journal->migrate(storage::ChargeFn{}); });
  }
  if (w % kScrubEvery == 0) {
    const storage::ScrubReport scrub = timed(L, "storage.replicated.scrub", nullptr, 0,
                                             [&] { return s.store->scrub(storage::ChargeFn{}); });
    if (!scrub.clean()) out.fail("shard-stack scrub found damage: " + scrub.summary());
  }
  stack_restart(s, due.front(), w, L, st, out);
}

/// Host metrics come from the faster half of the run's slices: one scrub
/// cycle (16 windows) of a fleet, or of the shard stack, ranked against the
/// same cycle of the other blocks' fleets or stacks.
void put_end_to_end(const std::vector<FleetStats>& fleets,
                    const std::vector<std::vector<StackStats>>& stacks,
                    const std::vector<double>& setup_s, RunOutput& out) {
  std::vector<std::vector<std::vector<double>>> window_slices;
  for (const FleetStats& f : fleets) {
    auto& slices = window_slices.emplace_back();
    for (std::size_t i = 0; i < f.window_ms.size(); i += kScrubEvery) {
      slices.emplace_back(f.window_ms.begin() + static_cast<std::ptrdiff_t>(i),
                          f.window_ms.begin() + static_cast<std::ptrdiff_t>(
                                                    std::min(i + kScrubEvery, f.window_ms.size())));
    }
  }
  std::vector<double> window_ms;
  for (const auto* slice :
       faster_half_by_position(window_slices, [](const auto& w) { return median(w); })) {
    append(window_ms, *slice);
  }
  std::vector<double> commit_ms, restart_ms;
  double commit_wall = 0, commit_cpu = 0, payload = 0;
  for (const StackStats* st : faster_half_by_position(
           stacks, [](const StackStats& x) { return median(x.commit_ms); })) {
    append(commit_ms, st->commit_ms);
    append(restart_ms, st->restart_ms);
    commit_wall += st->commit_wall_ms;
    commit_cpu += st->commit_cpu_ms;
    payload += st->payload_bytes;
  }
  std::vector<double> sim_commit, sim_pause, sim_recover, durable;
  for (const FleetStats& f : fleets) {
    append(sim_commit, f.sim_commit_ms);
    append(sim_recover, f.recover_ms);
    durable.push_back(f.durable_per_live);
  }
  for (const auto& block : stacks) {
    for (const StackStats& st : block) append(sim_pause, st.sim_pause_ms);
  }

  out.put("commit_ms_p50", median(commit_ms), "ms", commit_ms.size());
  out.put("commit_ms_p90", tail(commit_ms, 0.9, "commit_ms_p90"), "ms", commit_ms.size());
  out.put("full_commit_ms_p50", median(commit_ms), "ms", commit_ms.size());
  out.put("full_commit_ms_p90", tail(commit_ms, 0.9, "full_commit_ms_p90"), "ms",
          commit_ms.size());
  out.put("restart_ms_p50", median(restart_ms), "ms", restart_ms.size());
  out.put("restart_ms_p90", tail(restart_ms, 0.9, "restart_ms_p90"), "ms", restart_ms.size());
  const double mib = payload / kMiB;
  out.put("commit_cpu_ms_per_mib", commit_cpu / mib, "ms/MiB", commit_ms.size());
  out.put("payload_mib_per_s", mib / (commit_wall / 1e3), "MiB/s", commit_ms.size());
  // Node·windows per host second at the median window: a window that
  // replaces a node costs several ordinary ones, and which windows do
  // depends on the seed's fault draw.
  out.put("node_windows_per_s", kFleetNodes / (median(window_ms) / 1e3), "1/s",
          window_ms.size());
  out.put("setup_s", median(setup_s), "s", setup_s.size());
  out.put("sim_commit_ms_p50", median(sim_commit), "sim_ms", sim_commit.size());
  out.put("sim_pause_ms_p50", median(sim_pause), "sim_ms", sim_pause.size());
  out.put("sim_recover_ms_p50", median(sim_recover), "sim_ms", sim_recover.size());
  out.put("durable_bytes_per_live_byte", median(durable), "ratio", durable.size());
  out.put("peak_rss_mib", peak_rss_mib(), "MiB", 1);
  for (const char* name : {"sim_commit_ms_p50", "sim_pause_ms_p50", "sim_recover_ms_p50",
                           "durable_bytes_per_live_byte"}) {
    out.fingerprint[name] = num(out.metrics.at(name).value);
  }
}

void put_fleet_fingerprint(const FleetStats& fs, const std::string& suffix, RunOutput& out) {
  out.fingerprint["fleet_digest" + suffix] = fs.digest;
  out.fingerprint["fleet_durable_per_live" + suffix] = num(fs.durable_per_live);
  out.fingerprint["fleet_commits_ok" + suffix] = std::to_string(fs.commits_ok);
  out.fingerprint["fleet_recoveries" + suffix] = std::to_string(fs.recover_ms.size());
}

}  // namespace

RunOutput run_fleet_journal_dedup(const Args& args, std::string* layers_json) {
  RunOutput out;
  util::ThreadPool pool(kPoolWidth);
  // Each block's fleet runs 4 scrub cycles (a fresh fleet, its own seed
  // derived from --seed), so every block shows the same chunk-leak growth.
  // The shard stack restarts one node per window; the faster half of its
  // 16-window slices must hold 100 restarts for restart_ms_p90.
  const std::uint64_t blocks = args.trace ? 1 : scaled(args.seconds, 0.2, 2, 1);
  const std::uint64_t stack_windows =
      scaled(args.seconds, 24.0 / static_cast<double>(blocks), 112, kScrubEvery);
  const auto block_seed = [&](std::uint64_t k) { return args.seed ^ (k * 0x9E3779B97F4A7C15ull); };
  const auto build = [&](std::uint64_t k, obs::Observer* observer,
                         std::unique_ptr<cluster::FleetManager>& fleet,
                         std::unique_ptr<ShardStack>& stack) {
    return measure([&] {
      fleet = build_fleet(block_seed(k));
      stack = build_stack(block_seed(k), pool, observer);
      StackStats warm;
      for (std::uint64_t w = 0; w < kScrubEvery; ++w) stack_window(*stack, pool, nullptr, warm, out);
    });
  };

  if (!args.trace) {
    std::vector<FleetStats> fleets;
    std::vector<std::vector<StackStats>> stacks(blocks);
    std::vector<double> setup_s;
    for (std::uint64_t k = 0; k < blocks; ++k) {
      std::unique_ptr<cluster::FleetManager> fleet;
      std::unique_ptr<ShardStack> stack;
      setup_s.push_back(build(k, nullptr, fleet, stack).wall / 1e3);
      fleets.push_back(fleet_segment(std::move(fleet), 4 * kScrubEvery, out));
      for (std::uint64_t w = 0; w < stack_windows; ++w) {
        if (w % kScrubEvery == 0) stacks[k].emplace_back();
        stack_window(*stack, pool, nullptr, stacks[k].back(), out);
      }
      const std::string suffix = "_" + std::to_string(k);
      put_fleet_fingerprint(fleets[k], suffix, out);
      out.fingerprint["stack_stored_bytes" + suffix] = std::to_string(stack->store->stored_bytes());
      out.fingerprint["stack_journal_bytes" + suffix] = std::to_string(stack->journal->stored_bytes());
    }
    std::string growth;
    for (const std::uint64_t bytes : fleets.front().durable_growth) {
      growth += (growth.empty() ? "" : " ") + std::to_string(bytes);
    }
    out.notes.emplace_back("fleet_durable_bytes_every_16_windows", growth);
    if (out.failed == 0) put_end_to_end(fleets, stacks, setup_s, out);
    return out;
  }

  // Traced run: one fleet for the cluster.fleet.* rows, then the shard stack
  // a quarter of the windows untraced (the overhead baseline) and half
  // traced, so a traced run costs about as much as an untraced one.
  obs::Observer observer;
  std::unique_ptr<cluster::FleetManager> fleet;
  std::unique_ptr<ShardStack> stack;
  build(0, &observer, fleet, stack);
  const FleetStats fs = fleet_segment(std::move(fleet), 4 * kScrubEvery, out);
  put_fleet_fingerprint(fs, "", out);
  LayerLedger ledger;
  StackStats untraced;
  StackStats st;
  for (std::uint64_t w = 0; w < stack_windows / 4; ++w) stack_window(*stack, pool, nullptr, untraced, out);
  for (std::uint64_t w = 0; w < stack_windows / 2; ++w) stack_window(*stack, pool, &ledger, st, out);

  // Traced: the journal's crash recovery, once, then every chain must still
  // reconstruct.
  const SimTime recover_sim0 = stack->kernels[0]->now();
  const Interval rec = measure([&] {
    stack->journal->simulate_crash();
    stack->journal->recover([&](SimTime t) { stack->kernels[0]->charge_time(t); });
  });
  for (int i = 0; i < kStackNodes; ++i) {
    if (!stack->chains[static_cast<std::size_t>(i)]->reconstruct({}).has_value()) {
      out.fail("chain of node " + std::to_string(i) + " lost in journal recovery");
    }
  }

  const double commits = static_cast<double>(st.commit_ms.size());
  const double restarts = static_cast<double>(st.restart_ms.size());
  const storage::DedupStats& dd = stack->store->dedup_stats();

  out.put("core.capture_ms_p50", ledger.p50("core.capture"), "ms", ledger.calls("core.capture"));
  out.put("core.capture_mib_per_s", ledger.mib_per_s("core.capture"), "MiB/s", ledger.calls("core.capture"));
  out.put("core.delta_pages_per_commit", 0.0, "count", st.commit_ms.size());
  out.put("core.restore_ms_p50", ledger.p50("core.restore"), "ms", ledger.calls("core.restore"));
  out.put("storage.image.serialize_ms_p50", ledger.p50("storage.image.serialize"), "ms",
          ledger.calls("storage.image.serialize"));
  out.put("storage.image.serialize_mib_per_s", ledger.mib_per_s("storage.image.serialize"), "MiB/s",
          ledger.calls("storage.image.serialize"));
  out.put("storage.image.deserialize_ms_p50", ledger.p50("storage.image.deserialize"), "ms",
          ledger.calls("storage.image.deserialize"));
  out.put("storage.image.deserialize_mib_per_s", ledger.mib_per_s("storage.image.deserialize"),
          "MiB/s", ledger.calls("storage.image.deserialize"));
  out.put("util.crc64_mib_per_s", ledger.mib_per_s("util.crc64"), "MiB/s", ledger.calls("util.crc64"));
  out.put("util.threadpool.cpu_per_wall", untraced.commit_cpu_ms / untraced.commit_wall_ms,
          "ratio", untraced.commit_ms.size());
  out.put("storage.chain.reconstruct_ms_p50", ledger.p50("storage.chain.reconstruct"), "ms",
          ledger.calls("storage.chain.reconstruct"));
  out.put("storage.chain.links_per_restart", static_cast<double>(st.links) / restarts, "count",
          st.restart_ms.size());
  out.put("storage.dedup.encode_ms_p50", ledger.p50("storage.dedup.encode"), "ms",
          ledger.calls("storage.dedup.encode"));
  out.put("storage.dedup.decode_ms_p50", ledger.p50("storage.dedup.decode"), "ms",
          ledger.calls("storage.dedup.decode"));
  out.put("storage.dedup.reused_ref_ratio",
          static_cast<double>(dd.chunks_reused) /
              static_cast<double>(std::max<std::uint64_t>(1, dd.chunks_reused + dd.chunks_created)),
          "ratio", dd.images);
  out.put("storage.dedup.stored_per_logical",
          static_cast<double>(dd.bytes_stored) /
              static_cast<double>(std::max<std::uint64_t>(1, dd.bytes_logical)),
          "ratio", dd.images);
  out.put("storage.journal.append_ms_p50", ledger.p50("storage.journal.append"), "ms",
          ledger.calls("storage.journal.append"));
  out.put("storage.journal.migrate_ms_p50", ledger.p50("storage.journal.migrate"), "ms",
          ledger.calls("storage.journal.migrate"));
  out.put("storage.journal.recover_ms", rec.wall, "ms", 1);
  out.put("storage.journal.syncs", static_cast<double>(st.syncs), "count", st.syncs);
  out.put("cluster.fleet.window_ms_p50", median(fs.window_ms), "ms", fs.window_ms.size());
  out.put("cluster.fleet.commits_per_window",
          static_cast<double>(fs.commits_ok) / static_cast<double>(fs.window_ms.size()), "count",
          fs.window_ms.size());
  out.put("cluster.fleet.recoveries", static_cast<double>(fs.recover_ms.size()), "count",
          fs.recover_ms.size());
  out.put("sim.guest_step_us", st.step_wall_ms * 1e3 / static_cast<double>(st.steps), "us",
          st.steps);
  // The fleet's commit path has no quiesce step: capture runs between
  // windows, while the node's guest is not scheduled.
  out.put("sim_phase.quiesce_ms", 0.0, "sim_ms", st.commit_ms.size());
  out.put("sim_phase.capture_ms", sim_ms(ledger.sim_ns("core.capture")) / commits, "sim_ms",
          st.commit_ms.size());
  out.put("sim_phase.store_ms",
          (sim_ms(ledger.sim_ns("storage.journal.append")) + sim_ms(ledger.sim_ns("storage.journal.sync"))) / commits,
          "sim_ms", st.commit_ms.size());
  out.put("sim_phase.restart_ms",
          (sim_ms(ledger.sim_ns("storage.chain.reconstruct")) + sim_ms(ledger.sim_ns("core.restore"))) / restarts,
          "sim_ms", st.restart_ms.size());
  out.put("obs.trace_overhead_pct",
          (median(st.commit_ms) / median(untraced.commit_ms) - 1.0) * 100.0, "%",
          st.commit_ms.size());
  out.put("obs.commit_coverage_pct", 100.0 * st.covered_commit / st.commit_wall_ms, "%",
          st.commit_ms.size());
  out.put("obs.restart_coverage_pct", 100.0 * st.covered_restart / st.restart_wall, "%",
          st.restart_ms.size());

  if (layers_json != nullptr) {
    std::string json = "\"rows\": " + ledger_rows_json(ledger);
    json += ",\n  \"journal_recover\": {\"host_wall_ms\": " + num(rec.wall) +
            ", \"sim_ms\": " + num(sim_ms(stack->kernels[0]->now() - recover_sim0)) + "}";
    json += ",\n  " + observer_json(observer);
    json += ",\n  \"fleet\": {\"windows\": " + std::to_string(fs.window_ms.size()) +
            ", \"durable_bytes_per_live_byte\": " + num(fs.durable_per_live) +
            ", \"digest\": \"" + fs.digest + "\"}";
    json += ",\n  \"coverage_pct\": {\"full_commit\": " +
            num(100.0 * st.covered_commit / st.commit_wall_ms) +
            ", \"restart\": " + num(100.0 * st.covered_restart / st.restart_wall) + "}";
    *layers_json = json;
  }
  return out;
}

}  // namespace perfbench
