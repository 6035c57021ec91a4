// A miniFE-shaped conjugate-gradient solver guest.
//
// After the application-level C/R exemplar for miniFE: a restarted run must
// reproduce the uninterrupted run's residual bit for bit.  Here the solver
// is a guest of the simulated kernel, so the checkpoint is system-level and
// the application is unaware of it.
//
// Memory layout (all mutable state lives in simulated memory):
//   data segment  — header: iteration counters and the CG scalars;
//   heap          — a CSR 7-point Laplacian (row pointers, column indices,
//                   values) written once by on_start and never again, then
//                   the x, r, p and q vectors rewritten by every step.
// The read-only matrix is about three quarters of the image, so a dirty
// tracker sees only the vectors change between checkpoints.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/guest.hpp"
#include "sim/kernel.hpp"
#include "sim/userapi.hpp"

namespace perfbench {

struct CgConfig {
  std::uint64_t nx = 16;
  std::uint64_t ny = 32;
  std::uint64_t nz = 32;
  std::uint64_t seed = 1;
  /// Iterations before a solve is declared done and a new right-hand side
  /// is drawn (a solve also ends early once the residual has converged).
  std::uint64_t max_iters = 160;

  [[nodiscard]] std::uint64_t rows() const { return nx * ny * nz; }
  [[nodiscard]] std::vector<std::byte> encode() const;
  static CgConfig decode(const std::vector<std::byte>& blob);
};

/// Where each array lives in the guest's heap, derived from the config.
struct CgLayout {
  explicit CgLayout(const CgConfig& config, ckpt::sim::VAddr heap_base);

  std::uint64_t rows = 0;
  std::uint64_t nnz = 0;
  ckpt::sim::VAddr rowptr = 0;  ///< rows + 1 u32
  ckpt::sim::VAddr colidx = 0;  ///< nnz u32
  ckpt::sim::VAddr values = 0;  ///< nnz f64
  ckpt::sim::VAddr x = 0, r = 0, p = 0, q = 0;  ///< rows f64 each
  std::uint64_t matrix_bytes = 0;  ///< rowptr + colidx + values
  std::uint64_t total_bytes = 0;
};

class CgGuest : public ckpt::sim::GuestProgram {
 public:
  static constexpr const char* kTypeName = "perfbench_cg";

  explicit CgGuest(CgConfig config) : config_(config) {}
  void on_start(ckpt::sim::UserApi& api) override;
  ckpt::sim::GuestStatus on_step(ckpt::sim::UserApi& api) override;

  /// Solver progress read from outside: total iterations and the current
  /// squared residual norm, as stored in the guest's memory.
  struct Progress {
    std::uint64_t iterations = 0;
    double rr = 0;
  };
  static Progress read_progress(ckpt::sim::SimKernel& kernel, ckpt::sim::Process& proc);

  static void register_type();
  static ckpt::sim::SpawnOptions spawn_options(const CgConfig& config);

 private:
  CgConfig config_;
};

}  // namespace perfbench
