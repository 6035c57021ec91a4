// Single-node workloads: one guest, one engine, one replicated store, in a
// closed loop of guest steps, commits and restarts onto a fresh kernel.
//
//   stw_full_3way  — DenseWriter with an 8 MiB array (4x a 2 MiB L2),
//                    stop-the-world full images, flat 3-way store with
//                    read-back verify.  Capture, serialize, CRC, replica
//                    stage/verify, load, deserialize and restore do the work.
//   cg_incr_stream — the CG solver guest, fork-and-copy streaming commits
//                    of KernelWpTracker deltas (full every 8, chain pruned on
//                    every full), flat 2-way store.  Dirty tracking, COW,
//                    the streamed store and chain reconstruction do the work.
//
// Both bound their retained images with EngineOptions::prune_after_full:
// every full commit drops everything older than the newest verified full.
//
// The untraced run drives the real engine (request_checkpoint, restart_on).
// The traced run composes the same commit and restart from the layers'
// public calls and times each call, so no span lives inside src/.
#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "cg_guest.hpp"
#include "core/capture.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/systemlevel.hpp"
#include "obs/observer.hpp"
#include "sim/guests.hpp"
#include "storage/backend.hpp"
#include "storage/chain.hpp"
#include "storage/replicated.hpp"
#include "util/crc64.hpp"
#include "util/threadpool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ckpt;

struct Spec {
  std::string name;
  std::function<sim::Pid(sim::SimKernel&)> spawn;
  std::size_t replicas = 1;
  core::EngineOptions engine;
  std::uint64_t steps_per_commit = 1;
  std::uint64_t restart_every = 1;  ///< commits between restarts
  std::uint64_t warmup_commits = 0;
  std::uint64_t commits = 0;        ///< measured commits
  /// Commits per slice: about a second of work, a whole number of restart
  /// periods.  Host metrics come from the faster half of the slices.
  std::uint64_t slice_commits = 1;
  /// The kind most commits take; commit_ms_* report it.
  storage::ImageKind steady_kind = storage::ImageKind::kFull;
  /// CG: a restarted run must reach the uninterrupted run's residual.
  bool check_residual = false;
  std::vector<std::pair<std::string, std::string>> notes;  ///< printed with the result
};

struct Store {
  std::vector<std::unique_ptr<storage::BlobStoreBackend>> replicas;
  std::unique_ptr<storage::ReplicatedStore> store;
};

Store make_store(const sim::CostModel& costs, std::size_t replicas, util::ThreadPool& pool,
                 obs::Observer* observer) {
  Store s;
  s.replicas.push_back(std::make_unique<storage::LocalDiskBackend>(costs));
  while (s.replicas.size() < replicas) {
    s.replicas.push_back(std::make_unique<storage::RemoteBackend>(costs));
  }
  std::vector<storage::BlobStoreBackend*> raw;
  for (const auto& r : s.replicas) raw.push_back(r.get());
  storage::ReplicatedOptions options;
  options.write_quorum = static_cast<std::uint32_t>(replicas);
  options.verify_writes = true;
  options.pool = &pool;
  options.observer = observer;
  s.store = std::make_unique<storage::ReplicatedStore>(raw, options);
  return s;
}

void run_steps(sim::SimKernel& kernel, sim::Pid pid, std::uint64_t steps) {
  const std::uint64_t target = kernel.process(pid).stats.guest_iterations + steps;
  kernel.run_while(
      [&] {
        const sim::Process* proc = kernel.find_process(pid);
        return proc != nullptr && proc->alive() && proc->stats.guest_iterations < target;
      },
      kernel.now() + 600 * kSecond);
}

/// The restart checks: restored memory equals the checkpointed memory byte
/// for byte (the source has not run since the commit), and for the CG guest
/// both runs reach the same iteration with a bit-identical residual.
void verify_restart(const Spec& spec, sim::SimKernel& src, sim::Pid src_pid,
                    sim::SimKernel& dst, sim::Pid dst_pid, RunOutput& out) {
  if (!memory_equal(src.process(src_pid), dst.process(dst_pid))) {
    out.fail("restored memory differs from the checkpointed memory");
    return;
  }
  if (!spec.check_residual) return;
  run_steps(src, src_pid, spec.steps_per_commit);
  run_steps(dst, dst_pid, spec.steps_per_commit);
  const CgGuest::Progress a = CgGuest::read_progress(src, src.process(src_pid));
  const CgGuest::Progress b = CgGuest::read_progress(dst, dst.process(dst_pid));
  if (a.iterations != b.iterations ||
      std::bit_cast<std::uint64_t>(a.rr) != std::bit_cast<std::uint64_t>(b.rr)) {
    out.fail("restarted CG run diverged: iteration " + std::to_string(b.iterations) +
             " residual " + num(b.rr) + " vs " + std::to_string(a.iterations) + " " +
             num(a.rr));
  }
}

// --- Untraced: the engine path ------------------------------------------------

struct EngineWorld {
  std::unique_ptr<sim::SimKernel> kernel;
  Store store;
  std::unique_ptr<core::SyscallEngine> engine;
  sim::Pid pid = sim::kNoPid;
};

EngineWorld build_engine_world(const Spec& spec, util::ThreadPool& pool, std::uint64_t seed,
                               RunOutput& out) {
  EngineWorld w;
  w.kernel = std::make_unique<sim::SimKernel>(1, sim::CostModel{}, seed);
  w.store = make_store(w.kernel->costs(), spec.replicas, pool, nullptr);
  w.engine = std::make_unique<core::SyscallEngine>(spec.name, w.store.store.get(), spec.engine,
                                                   *w.kernel,
                                                   core::SyscallEngine::TargetMode::kByPid,
                                                   nullptr);
  w.pid = spec.spawn(*w.kernel);
  w.engine->attach(*w.kernel, w.pid);
  for (std::uint64_t i = 0; i < spec.warmup_commits; ++i) {
    run_steps(*w.kernel, w.pid, spec.steps_per_commit);
    if (!w.engine->request_checkpoint(*w.kernel, w.pid).ok) out.fail("warm-up commit failed");
  }
  return w;
}

struct LoopStats {
  std::vector<double> full_ms, delta_ms, restart_ms;
  std::vector<double> sim_commit_ms, sim_pause_ms, sim_recover_ms;
  double commit_wall_ms = 0, commit_cpu_ms = 0, payload_bytes = 0;
  double loop_wall_ms = 0, step_wall_ms = 0;
  std::uint64_t steps = 0, commits = 0;

  [[nodiscard]] const std::vector<double>& of(storage::ImageKind kind) const {
    return kind == storage::ImageKind::kFull ? full_ms : delta_ms;
  }
};

/// Runs `commits` commits, starting a new slice of `slices` every
/// spec.slice_commits of them.
void engine_loop(EngineWorld& w, const Spec& spec, std::uint64_t commits, std::uint64_t seed,
                 std::vector<LoopStats>& slices, RunOutput& out) {
  for (std::uint64_t i = 0; i < commits; ++i) {
    if (i % spec.slice_commits == 0) slices.emplace_back();
    LoopStats& st = slices.back();
    const Interval step = measure([&] { run_steps(*w.kernel, w.pid, spec.steps_per_commit); });
    st.step_wall_ms += step.wall;
    st.steps += spec.steps_per_commit;
    core::CheckpointResult r;
    const Interval c = measure([&] { r = w.engine->request_checkpoint(*w.kernel, w.pid); });
    ++out.attempted;
    st.loop_wall_ms += step.wall + c.wall;
    if (!r.ok) {
      out.fail("commit " + std::to_string(i) + ": " + r.error);
      continue;
    }
    ++st.commits;
    (r.kind == storage::ImageKind::kFull ? st.full_ms : st.delta_ms).push_back(c.wall);
    st.commit_wall_ms += c.wall;
    st.commit_cpu_ms += c.cpu;
    st.payload_bytes += static_cast<double>(r.payload_bytes);
    st.sim_commit_ms.push_back(sim_ms(r.total_latency()));
    st.sim_pause_ms.push_back(sim_ms(r.pause_ns));
    if ((i + 1) % spec.restart_every != 0) continue;

    sim::SimKernel target(1, sim::CostModel{}, seed ^ (i << 16));
    core::RestartResult rr;
    const Interval t = measure([&] { rr = w.engine->restart_on(target, w.pid); });
    ++out.attempted;
    st.loop_wall_ms += t.wall;
    if (!rr.ok) {
      out.fail("restart after commit " + std::to_string(i) + ": " + rr.error);
      continue;
    }
    st.restart_ms.push_back(t.wall);
    st.sim_recover_ms.push_back(sim_ms(target.now()));
    verify_restart(spec, *w.kernel, w.pid, target, rr.pid, out);
  }
}

// --- Traced: the same commit and restart, composed from public calls --------

struct ComposedWorld {
  std::unique_ptr<sim::SimKernel> kernel;
  Store store;
  std::unique_ptr<storage::CheckpointChain> chain;
  std::unique_ptr<core::DirtyTracker> tracker;
  sim::Pid pid = sim::kNoPid;
  std::uint64_t taken = 0;
  /// Standalone serializations of the images the chain still holds; the
  /// restart deserializes them to split load into CRC/IO and decode.
  std::map<storage::ImageId, std::vector<std::byte>> blobs;
};

struct TraceStats {
  std::vector<double> full_ms, delta_ms;
  double covered_full = 0, wall_full = 0, covered_delta = 0, wall_delta = 0;
  double covered_restart = 0, wall_restart = 0;
  std::vector<double> stage_verify_self_ms, load_self_ms, reconstruct_ms;
  std::uint64_t links = 0, restarts = 0, delta_pages = 0, delta_commits = 0;
};

const std::vector<std::string> kCommitLayers = {
    "core.track", "core.quiesce", "core.capture", "storage.replicated.store", "core.release",
    "storage.chain.prune"};
const std::vector<std::string> kRestartLayers = {"storage.replicated.load",
                                                 "storage.chain.apply", "core.restore"};

double layer_sum(const LayerLedger& ledger, const std::vector<std::string>& names) {
  double total = 0;
  for (const std::string& n : names) total += ledger.total_wall(n);
  return total;
}

double last_wall(const LayerLedger& ledger, const std::string& layer) {
  return ledger.find(layer)->wall_ms.back();
}

ComposedWorld build_composed_world(const Spec& spec, util::ThreadPool& pool,
                                   std::uint64_t seed, obs::Observer* observer) {
  ComposedWorld w;
  w.kernel = std::make_unique<sim::SimKernel>(1, sim::CostModel{}, seed);
  w.kernel->set_observer(observer);
  w.store = make_store(w.kernel->costs(), spec.replicas, pool, observer);
  w.chain = std::make_unique<storage::CheckpointChain>(w.store.store.get());
  w.pid = spec.spawn(*w.kernel);
  if (spec.engine.incremental) {
    w.tracker = spec.engine.tracker_factory();
    w.tracker->begin_interval(*w.kernel, w.kernel->process(w.pid));
  }
  return w;
}

bool composed_commit(ComposedWorld& w, const Spec& spec, util::ThreadPool& pool,
                     LayerLedger& L, TraceStats& ts) {
  sim::SimKernel& k = *w.kernel;
  sim::Process& proc = k.process(w.pid);
  const bool delta = spec.engine.incremental && w.taken % spec.engine.full_every != 0;
  const bool fork = spec.engine.consistency == core::ConsistencyMode::kForkAndCopy;
  const auto charge = [&k](SimTime t) { k.charge_time(t); };
  const double covered0 = layer_sum(L, kCommitLayers);
  const double t0 = wall_ms();
  double excluded = 0;

  core::CaptureOptions capture = spec.engine.capture;
  if (delta) {
    capture.ranges = L.record("core.track", &k, 0, [&] { return w.tracker->collect(k, proc); });
  }
  sim::Pid shadow = sim::kNoPid;
  L.record("core.quiesce", &k, 0, [&] {
    if (fork) {
      shadow = k.fork_process(proc, /*freeze_child=*/true);
    } else {
      k.stop_process(proc);
    }
  });
  sim::Process& source = fork ? k.process(shadow) : proc;
  storage::CheckpointImage image = L.record(
      "core.capture", &k, 0, [&] { return core::capture_kernel_level(k, source, capture); });
  image.pid = proc.pid;
  image.process_name = proc.name;
  image.guest = proc.guest_image;
  image.kind = delta ? storage::ImageKind::kIncremental : storage::ImageKind::kFull;
  L.add_bytes("core.capture", image.payload_bytes());
  if (delta) {
    ts.delta_pages += image.page_count();
    ++ts.delta_commits;
  }

  // Standalone serialize + CRC of the same image: splits the store into its
  // encode half and its stage/verify half.  Not part of the commit.
  const double x0 = wall_ms();
  std::vector<std::byte> blob =
      L.record("storage.image.serialize", nullptr, 0, [&] { return image.serialize(pool); });
  L.add_bytes("storage.image.serialize", blob.size());
  keep(L.record("util.crc64", nullptr, blob.size(), [&] { return util::crc64(blob); }));
  excluded += wall_ms() - x0;

  const storage::ImageId id = L.record("storage.replicated.store", &k, blob.size(), [&] {
    return w.chain->append(std::move(image), charge);
  });
  ts.stage_verify_self_ms.push_back(last_wall(L, "storage.replicated.store") -
                                    last_wall(L, "storage.image.serialize"));
  L.record("core.release", &k, 0, [&] {
    if (fork) {
      k.terminate(k.process(shadow), 0);
      k.reap(shadow);
    } else {
      k.resume_process(proc);
    }
  });
  if (id == storage::kBadImageId) return false;
  ++w.taken;
  if (w.tracker != nullptr) {
    L.record("core.track", &k, 0, [&] { w.tracker->begin_interval(k, proc); });
  }
  w.blobs[id] = std::move(blob);
  if (!delta && spec.engine.prune_after_full && w.chain->length() > 1) {
    L.record("storage.chain.prune", &k, 0, [&] { w.chain->prune(charge); });
    std::set<storage::ImageId> live;
    for (const auto& e : w.chain->entries()) live.insert(e.id);
    std::erase_if(w.blobs, [&](const auto& kv) { return live.count(kv.first) == 0; });
  }

  const double wall = wall_ms() - t0 - excluded;
  const double covered = layer_sum(L, kCommitLayers) - covered0;
  (delta ? ts.delta_ms : ts.full_ms).push_back(wall);
  (delta ? ts.covered_delta : ts.covered_full) += covered;
  (delta ? ts.wall_delta : ts.wall_full) += wall;
  return true;
}

std::optional<sim::Pid> composed_restart(ComposedWorld& w, sim::SimKernel& target,
                                         LayerLedger& L, TraceStats& ts) {
  const auto charge = [&target](SimTime t) { target.charge_time(t); };
  const auto& entries = w.chain->entries();
  std::size_t first = entries.size();
  for (std::size_t j = entries.size(); j-- > 0;) {
    if (entries[j].kind == storage::ImageKind::kFull) {
      first = j;
      break;
    }
  }
  if (first == entries.size()) return std::nullopt;

  const double covered0 = layer_sum(L, kRestartLayers);
  const double t0 = wall_ms();
  double excluded = 0;
  double reconstruct = 0;
  std::optional<storage::CheckpointImage> image;
  for (std::size_t j = first; j < entries.size(); ++j) {
    const std::vector<std::byte>& blob = w.blobs.at(entries[j].id);
    std::optional<storage::CheckpointImage> loaded =
        L.record("storage.replicated.load", &target, blob.size(),
                 [&] { return w.store.store->load(entries[j].id, charge); });
    reconstruct += last_wall(L, "storage.replicated.load");
    const double x0 = wall_ms();
    {
      const storage::CheckpointImage decoded =
          L.record("storage.image.deserialize", nullptr, blob.size(),
                   [&] { return storage::CheckpointImage::deserialize(blob); });
    }
    excluded += wall_ms() - x0;
    ts.load_self_ms.push_back(last_wall(L, "storage.replicated.load") -
                              last_wall(L, "storage.image.deserialize"));
    if (!loaded.has_value()) return std::nullopt;
    if (!image.has_value()) {
      image = std::move(loaded);
    } else {
      L.record("storage.chain.apply", &target, loaded->payload_bytes(),
               [&] { storage::apply_delta(*image, *loaded); });
      reconstruct += last_wall(L, "storage.chain.apply");
    }
    ++ts.links;
  }
  const core::RestartResult rr = L.record("core.restore", &target, image->payload_bytes(),
                                          [&] { return core::restart_from_image(target, *image); });
  const double wall = wall_ms() - t0 - excluded;
  ts.reconstruct_ms.push_back(reconstruct);
  ts.covered_restart += layer_sum(L, kRestartLayers) - covered0;
  ts.wall_restart += wall;
  ++ts.restarts;
  if (!rr.ok) return std::nullopt;
  return rr.pid;
}

// --- Metrics -----------------------------------------------------------------

/// Blocks per untraced run: each builds a fresh world (one set-up sample)
/// and runs an equal share of the commits.
constexpr std::uint64_t kBlocks = 8;

void merge(LoopStats& into, const LoopStats& from) {
  append(into.full_ms, from.full_ms);
  append(into.delta_ms, from.delta_ms);
  append(into.restart_ms, from.restart_ms);
  append(into.sim_commit_ms, from.sim_commit_ms);
  append(into.sim_pause_ms, from.sim_pause_ms);
  append(into.sim_recover_ms, from.sim_recover_ms);
  into.commit_wall_ms += from.commit_wall_ms;
  into.commit_cpu_ms += from.commit_cpu_ms;
  into.payload_bytes += from.payload_bytes;
  into.loop_wall_ms += from.loop_wall_ms;
  into.step_wall_ms += from.step_wall_ms;
  into.steps += from.steps;
  into.commits += from.commits;
}

void put_end_to_end(const Spec& spec, const std::vector<LoopStats>& slices,
                    const std::vector<double>& setup_s, double stored_bytes, double live,
                    RunOutput& out) {
  // Host metrics from the faster half of the slices (ranked by their median
  // steady-state commit); sim metrics from all of them.
  LoopStats st;
  for (const LoopStats* slice : faster_half(
           slices, [&](const LoopStats& x) { return median(x.of(spec.steady_kind)); })) {
    merge(st, *slice);
  }
  LoopStats all;
  for (const LoopStats& slice : slices) merge(all, slice);

  const auto& steady = st.of(spec.steady_kind);
  out.put("commit_ms_p50", median(steady), "ms", steady.size());
  out.put("commit_ms_p90", tail(steady, 0.9, "commit_ms_p90"), "ms", steady.size());
  out.put("full_commit_ms_p50", median(st.full_ms), "ms", st.full_ms.size());
  out.put("full_commit_ms_p90", tail(st.full_ms, 0.9, "full_commit_ms_p90"), "ms",
          st.full_ms.size());
  out.put("restart_ms_p50", median(st.restart_ms), "ms", st.restart_ms.size());
  out.put("restart_ms_p90", tail(st.restart_ms, 0.9, "restart_ms_p90"), "ms",
          st.restart_ms.size());
  const double mib = st.payload_bytes / kMiB;
  out.put("commit_cpu_ms_per_mib", st.commit_cpu_ms / mib, "ms/MiB", st.commits);
  out.put("payload_mib_per_s", mib / (st.commit_wall_ms / 1e3), "MiB/s", st.commits);
  out.put("node_windows_per_s", static_cast<double>(st.commits) / (st.loop_wall_ms / 1e3),
          "1/s", st.commits);
  out.put("setup_s", median(setup_s), "s", setup_s.size());
  out.put("sim_commit_ms_p50", median(all.sim_commit_ms), "sim_ms", all.sim_commit_ms.size());
  out.put("sim_pause_ms_p50", median(all.sim_pause_ms), "sim_ms", all.sim_pause_ms.size());
  out.put("sim_recover_ms_p50", median(all.sim_recover_ms), "sim_ms",
          all.sim_recover_ms.size());
  out.put("durable_bytes_per_live_byte", stored_bytes / live, "ratio", 1);
  out.put("peak_rss_mib", peak_rss_mib(), "MiB", 1);

  out.fingerprint["commits"] = std::to_string(all.commits);
  out.fingerprint["restarts"] = std::to_string(all.restart_ms.size());
  out.fingerprint["payload_bytes"] = num(all.payload_bytes);
  out.fingerprint["stored_bytes"] = num(stored_bytes);
  out.fingerprint["live_bytes"] = num(live);
  for (const char* name : {"sim_commit_ms_p50", "sim_pause_ms_p50", "sim_recover_ms_p50"}) {
    out.fingerprint[name] = num(out.metrics.at(name).value);
  }
}

RunOutput run_single(const Spec& spec, const Args& args, std::string* layers_json) {
  RunOutput out;
  out.notes = spec.notes;
  util::ThreadPool pool(kPoolWidth);

  if (!args.trace) {
    std::vector<LoopStats> slices;
    std::vector<double> setup_s;
    double stored = 0;
    double live = 0;
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      std::optional<EngineWorld> world;
      setup_s.push_back(
          measure([&] { world.emplace(build_engine_world(spec, pool, args.seed, out)); }).wall /
          1e3);
      engine_loop(*world, spec, spec.commits / kBlocks, args.seed, slices, out);
      stored = static_cast<double>(world->store.store->stored_bytes());
      live = static_cast<double>(live_bytes(world->kernel->process(world->pid)));
      if (spec.check_residual) {
        const auto progress =
            CgGuest::read_progress(*world->kernel, world->kernel->process(world->pid));
        out.fingerprint["cg_iterations"] = std::to_string(progress.iterations);
        out.fingerprint["cg_rr_bits"] = std::to_string(std::bit_cast<std::uint64_t>(progress.rr));
      }
    }
    if (out.failed == 0) put_end_to_end(spec, slices, setup_s, stored, live, out);
    return out;
  }

  // Traced run.  U: the untraced engine loop (the baseline the overhead is
  // measured against).  T: the composed loop with every layer call timed.
  // A quarter of the commits untraced and half traced: a traced run costs
  // about as much as an untraced one.
  const auto share = [&](std::uint64_t parts) {
    return std::max<std::uint64_t>(spec.commits / parts / spec.restart_every, 1) *
           spec.restart_every;
  };
  LoopStats u;
  {
    EngineWorld world = build_engine_world(spec, pool, args.seed, out);
    std::vector<LoopStats> slices;
    engine_loop(world, spec, share(4), args.seed, slices, out);
    for (const LoopStats& slice : slices) merge(u, slice);
  }
  obs::Observer observer;
  LayerLedger L;
  TraceStats ts;
  {
    ComposedWorld w = build_composed_world(spec, pool, args.seed, &observer);
    const auto commit = [&] {
      ++out.attempted;
      if (!composed_commit(w, spec, pool, L, ts)) out.fail("traced commit failed");
    };
    for (std::uint64_t i = 0; i < spec.warmup_commits; ++i) {
      run_steps(*w.kernel, w.pid, spec.steps_per_commit);
      commit();
    }
    L = LayerLedger{};
    ts = TraceStats{};
    for (std::uint64_t i = 0; i < share(2); ++i) {
      run_steps(*w.kernel, w.pid, spec.steps_per_commit);
      commit();
      if ((i + 1) % spec.restart_every != 0) continue;
      sim::SimKernel target(1, sim::CostModel{}, args.seed ^ (i << 16));
      ++out.attempted;
      const std::optional<sim::Pid> pid = composed_restart(w, target, L, ts);
      if (!pid.has_value()) {
        out.fail("traced restart failed");
        continue;
      }
      verify_restart(spec, *w.kernel, w.pid, target, *pid, out);
    }
  }

  const auto sim_per_op = [&](const std::vector<std::string>& names, std::uint64_t ops) {
    SimTime total = 0;
    for (const std::string& n : names) total += L.sim_ns(n);
    return ops == 0 ? 0.0 : sim_ms(total) / static_cast<double>(ops);
  };
  const std::uint64_t commits = ts.full_ms.size() + ts.delta_ms.size();

  out.put("core.capture_ms_p50", L.p50("core.capture"), "ms", L.calls("core.capture"));
  out.put("core.capture_mib_per_s", L.mib_per_s("core.capture"), "MiB/s", L.calls("core.capture"));
  out.put("core.delta_pages_per_commit",
          ts.delta_commits == 0 ? 0.0
                                : static_cast<double>(ts.delta_pages) /
                                      static_cast<double>(ts.delta_commits),
          "count", ts.delta_commits);
  out.put("core.restore_ms_p50", L.p50("core.restore"), "ms", L.calls("core.restore"));
  out.put("storage.image.serialize_ms_p50", L.p50("storage.image.serialize"), "ms",
          L.calls("storage.image.serialize"));
  out.put("storage.image.serialize_mib_per_s", L.mib_per_s("storage.image.serialize"), "MiB/s",
          L.calls("storage.image.serialize"));
  out.put("storage.image.deserialize_ms_p50", L.p50("storage.image.deserialize"), "ms",
          L.calls("storage.image.deserialize"));
  out.put("storage.image.deserialize_mib_per_s", L.mib_per_s("storage.image.deserialize"),
          "MiB/s", L.calls("storage.image.deserialize"));
  out.put("util.crc64_mib_per_s", L.mib_per_s("util.crc64"), "MiB/s", L.calls("util.crc64"));
  out.put("util.threadpool.cpu_per_wall", u.commit_cpu_ms / u.commit_wall_ms, "ratio",
          u.commits);
  out.put("storage.replicated.store_ms_p50", L.p50("storage.replicated.store"), "ms",
          L.calls("storage.replicated.store"));
  out.put("storage.replicated.stage_verify_self_ms_p50", median(ts.stage_verify_self_ms), "ms",
          ts.stage_verify_self_ms.size());
  out.put("storage.replicated.load_ms_p50", L.p50("storage.replicated.load"), "ms",
          L.calls("storage.replicated.load"));
  out.put("storage.replicated.load_self_ms_p50", median(ts.load_self_ms), "ms",
          ts.load_self_ms.size());
  out.put("storage.chain.reconstruct_ms_p50", median(ts.reconstruct_ms), "ms",
          ts.reconstruct_ms.size());
  out.put("storage.chain.links_per_restart",
          static_cast<double>(ts.links) / static_cast<double>(ts.restarts), "count",
          ts.restarts);
  out.put("sim.guest_step_us", u.step_wall_ms * 1e3 / static_cast<double>(u.steps), "us",
          u.steps);
  out.put("sim_phase.quiesce_ms", sim_per_op({"core.quiesce"}, commits), "sim_ms", commits);
  out.put("sim_phase.capture_ms", sim_per_op({"core.track", "core.capture"}, commits), "sim_ms",
          commits);
  out.put("sim_phase.store_ms",
          sim_per_op({"storage.replicated.store", "core.release", "storage.chain.prune"}, commits),
          "sim_ms", commits);
  out.put("sim_phase.restart_ms", sim_per_op(kRestartLayers, ts.restarts), "sim_ms",
          ts.restarts);
  const auto& steady_t = spec.steady_kind == storage::ImageKind::kFull ? ts.full_ms : ts.delta_ms;
  const auto& steady_u = u.of(spec.steady_kind);
  out.put("obs.trace_overhead_pct", (median(steady_t) / median(steady_u) - 1.0) * 100.0, "%",
          steady_t.size());
  const bool full_steady = spec.steady_kind == storage::ImageKind::kFull;
  out.put("obs.commit_coverage_pct",
          100.0 * (full_steady ? ts.covered_full / ts.wall_full : ts.covered_delta / ts.wall_delta),
          "%", steady_t.size());
  out.put("obs.restart_coverage_pct", 100.0 * ts.covered_restart / ts.wall_restart, "%",
          ts.restarts);

  if (layers_json != nullptr) {
    std::string json = "\"rows\": " + ledger_rows_json(L);
    json += ",\n  " + observer_json(observer);
    json += ",\n  \"coverage_pct\": {\"full_commit\": " +
            num(ts.wall_full > 0 ? 100.0 * ts.covered_full / ts.wall_full : 0.0) +
            ", \"delta_commit\": " +
            num(ts.wall_delta > 0 ? 100.0 * ts.covered_delta / ts.wall_delta : 0.0) +
            ", \"restart\": " + num(100.0 * ts.covered_restart / ts.wall_restart) + "}";
    *layers_json = json;
  }
  return out;
}

}  // namespace

RunOutput run_stw_full_3way(const Args& args, std::string* layers_json) {
  Spec spec;
  spec.name = "stw";
  sim::WriterConfig config;
  config.array_bytes = 8 * 1024 * 1024;
  config.writes_per_step = 64;
  config.seed = args.seed;
  spec.spawn = [config](sim::SimKernel& kernel) {
    return kernel.spawn(sim::DenseWriterGuest::kTypeName, config.encode(),
                        sim::spawn_options_for_array(config.array_bytes));
  };
  spec.replicas = 3;
  spec.engine.consistency = core::ConsistencyMode::kStopTarget;
  spec.engine.prune_after_full = true;
  spec.steps_per_commit = 16;
  spec.restart_every = 2;
  spec.warmup_commits = 2;
  spec.slice_commits = 10;  // ~0.6 s
  // Restarts come every second commit, and the faster half of the slices
  // needs 100 of them for restart_ms_p90.
  spec.commits = scaled(args.seconds, 16, 400, kBlocks * spec.slice_commits);
  spec.steady_kind = storage::ImageKind::kFull;
  return run_single(spec, args, layers_json);
}

RunOutput run_cg_incr_stream(const Args& args, std::string* layers_json) {
  Spec spec;
  spec.name = "cg";
  CgConfig config;
  config.seed = args.seed;
  spec.spawn = [config](sim::SimKernel& kernel) {
    return kernel.spawn(CgGuest::kTypeName, config.encode(), CgGuest::spawn_options(config));
  };
  spec.replicas = 2;
  spec.engine.consistency = core::ConsistencyMode::kForkAndCopy;
  spec.engine.streaming = true;
  spec.engine.incremental = true;
  // PTE dirty bits, not KernelWpTracker: under kForkAndCopy the kernel's
  // COW fault path restores write access before the tracker's wp_hook
  // runs, so KernelWpTracker deltas miss pages and restarts diverge
  // (see README.md, finding 2).
  spec.engine.tracker_factory = [] { return std::make_unique<core::PteScanTracker>(); };
  spec.engine.full_every = 8;
  spec.engine.prune_after_full = true;
  spec.steps_per_commit = 4;
  spec.restart_every = 8;  // every restart reconstructs a full image + 7 deltas
  spec.warmup_commits = 8;
  spec.check_residual = true;
  const CgLayout layout(config, 0);
  spec.notes.emplace_back("cg_matrix_share_of_heap",
                          num(static_cast<double>(layout.matrix_bytes) /
                              static_cast<double>(layout.total_bytes)));
  spec.slice_commits = 64;  // ~0.5 s
  // One full commit and one restart in 8, and the faster half of the
  // slices needs 100 of each for full_commit_ms_p90 and restart_ms_p90.
  spec.commits = scaled(args.seconds, 96, 1600, kBlocks * spec.slice_commits);
  spec.steady_kind = storage::ImageKind::kIncremental;
  return run_single(spec, args, layers_json);
}

}  // namespace perfbench
