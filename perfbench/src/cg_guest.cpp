#include "cg_guest.hpp"

#include <bit>
#include <cstring>
#include <span>

#include "sim/memory.hpp"
#include "util/serialize.hpp"

namespace perfbench {

using ckpt::SimTime;
using ckpt::sim::GuestStatus;
using ckpt::sim::UserApi;
using ckpt::sim::VAddr;
using ckpt::sim::kDataBase;
using ckpt::sim::kPageSize;

namespace {

// Header words in the data segment.
constexpr VAddr kTotalIterAddr = kDataBase;       // iterations over all solves
constexpr VAddr kSolveIterAddr = kDataBase + 8;   // iterations in this solve (0 = fresh)
constexpr VAddr kSolveAddr = kDataBase + 16;      // index of the current solve
constexpr VAddr kRrAddr = kDataBase + 24;         // r·r (bits of a double)
constexpr VAddr kRr0Addr = kDataBase + 32;        // r·r at the start of the solve

VAddr align_page(VAddr a) { return (a + kPageSize - 1) / kPageSize * kPageSize; }

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a hash.
double unit(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

template <typename T>
std::vector<T> load_array(UserApi& api, VAddr addr, std::uint64_t count) {
  std::vector<T> out(count);
  api.load(addr, std::as_writable_bytes(std::span<T>(out)));
  return out;
}

template <typename T>
void store_array(UserApi& api, VAddr addr, const std::vector<T>& values) {
  api.store(addr, std::as_bytes(std::span<const T>(values)));
}

void store_double(UserApi& api, VAddr addr, double v) {
  api.store_u64(addr, std::bit_cast<std::uint64_t>(v));
}

double load_double(UserApi& api, VAddr addr) {
  return std::bit_cast<double>(api.load_u64(addr));
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace

std::vector<std::byte> CgConfig::encode() const {
  ckpt::util::Serializer s;
  s.put(nx);
  s.put(ny);
  s.put(nz);
  s.put(seed);
  s.put(max_iters);
  return std::move(s).take();
}

CgConfig CgConfig::decode(const std::vector<std::byte>& blob) {
  ckpt::util::Deserializer d(blob);
  CgConfig c;
  c.nx = d.get<std::uint64_t>();
  c.ny = d.get<std::uint64_t>();
  c.nz = d.get<std::uint64_t>();
  c.seed = d.get<std::uint64_t>();
  c.max_iters = d.get<std::uint64_t>();
  return c;
}

CgLayout::CgLayout(const CgConfig& config, VAddr heap_base) {
  rows = config.rows();
  // 7-point stencil: the diagonal plus one neighbour per interior face.
  nnz = rows + 2 * ((config.nx - 1) * config.ny * config.nz +
                    config.nx * (config.ny - 1) * config.nz +
                    config.nx * config.ny * (config.nz - 1));
  rowptr = heap_base;
  colidx = align_page(rowptr + (rows + 1) * 4);
  values = align_page(colidx + nnz * 4);
  x = align_page(values + nnz * 8);
  matrix_bytes = x - heap_base;
  r = align_page(x + rows * 8);
  p = align_page(r + rows * 8);
  q = align_page(p + rows * 8);
  total_bytes = align_page(q + rows * 8) - heap_base;
}

ckpt::sim::SpawnOptions CgGuest::spawn_options(const CgConfig& config) {
  ckpt::sim::SpawnOptions options;
  options.heap_pages = ckpt::sim::pages_for(CgLayout(config, 0).total_bytes) + 4;
  return options;
}

void CgGuest::register_type() {
  ckpt::sim::GuestRegistry::instance().register_type(
      kTypeName, [](const std::vector<std::byte>& blob) {
        return std::make_unique<CgGuest>(CgConfig::decode(blob));
      });
}

void CgGuest::on_start(UserApi& api) {
  const CgLayout layout(config_, api.process().heap_base);
  std::vector<std::uint32_t> rowptr;
  std::vector<std::uint32_t> colidx;
  std::vector<double> values;
  rowptr.reserve(layout.rows + 1);
  colidx.reserve(layout.nnz);
  values.reserve(layout.nnz);
  const auto index = [&](std::uint64_t i, std::uint64_t j, std::uint64_t k) {
    return static_cast<std::uint32_t>((k * config_.ny + j) * config_.nx + i);
  };
  for (std::uint64_t k = 0; k < config_.nz; ++k) {
    for (std::uint64_t j = 0; j < config_.ny; ++j) {
      for (std::uint64_t i = 0; i < config_.nx; ++i) {
        rowptr.push_back(static_cast<std::uint32_t>(colidx.size()));
        const std::uint32_t row = index(i, j, k);
        const auto neighbour = [&](std::uint32_t col) {
          colidx.push_back(col);
          values.push_back(-1.0);
        };
        if (k > 0) neighbour(index(i, j, k - 1));
        if (j > 0) neighbour(index(i, j - 1, k));
        if (i > 0) neighbour(index(i - 1, j, k));
        // Strictly diagonally dominant, so the matrix is SPD; the seed
        // perturbs the diagonal so different seeds give different systems.
        colidx.push_back(row);
        values.push_back(6.05 + 0.1 * unit(mix(config_.seed ^ (row * 0x100000001B3ull))));
        if (i + 1 < config_.nx) neighbour(index(i + 1, j, k));
        if (j + 1 < config_.ny) neighbour(index(i, j + 1, k));
        if (k + 1 < config_.nz) neighbour(index(i, j, k + 1));
      }
    }
  }
  rowptr.push_back(static_cast<std::uint32_t>(colidx.size()));
  store_array(api, layout.rowptr, rowptr);
  store_array(api, layout.colidx, colidx);
  store_array(api, layout.values, values);
  api.store_u64(kTotalIterAddr, 0);
  api.store_u64(kSolveIterAddr, 0);
  api.store_u64(kSolveAddr, 0);
}

GuestStatus CgGuest::on_step(UserApi& api) {
  const CgLayout layout(config_, api.process().heap_base);
  const std::uint64_t n = layout.rows;
  const std::uint64_t solve_iter = api.load_u64(kSolveIterAddr);
  const std::uint64_t solve = api.load_u64(kSolveAddr);

  if (solve_iter == 0) {
    // A fresh right-hand side: x = 0, r = p = b.
    std::vector<double> b(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      b[i] = 2.0 * unit(mix(config_.seed * 0x2545F4914F6CDD1Dull ^ (solve << 32) ^ i)) - 1.0;
    }
    store_array(api, layout.x, std::vector<double>(n, 0.0));
    store_array(api, layout.r, b);
    store_array(api, layout.p, b);
    store_array(api, layout.q, std::vector<double>(n, 0.0));
    const double rr = dot(b, b);
    store_double(api, kRrAddr, rr);
    store_double(api, kRr0Addr, rr);
  } else {
    const auto rowptr = load_array<std::uint32_t>(api, layout.rowptr, n + 1);
    const auto colidx = load_array<std::uint32_t>(api, layout.colidx, layout.nnz);
    const auto values = load_array<double>(api, layout.values, layout.nnz);
    auto x = load_array<double>(api, layout.x, n);
    auto r = load_array<double>(api, layout.r, n);
    auto p = load_array<double>(api, layout.p, n);
    std::vector<double> q(n);
    for (std::uint64_t row = 0; row < n; ++row) {
      double sum = 0;
      for (std::uint32_t e = rowptr[row]; e < rowptr[row + 1]; ++e) {
        sum += values[e] * p[colidx[e]];
      }
      q[row] = sum;
    }
    const double rr = load_double(api, kRrAddr);
    const double alpha = rr / dot(p, q);
    for (std::uint64_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
    }
    const double rr_new = dot(r, r);
    const double beta = rr_new / rr;
    for (std::uint64_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    store_array(api, layout.x, x);
    store_array(api, layout.r, r);
    store_array(api, layout.p, p);
    store_array(api, layout.q, q);
    store_double(api, kRrAddr, rr_new);
  }

  // Next step: continue this solve, or draw a new system once it converged
  // (or ran its iteration budget).
  const double rr = load_double(api, kRrAddr);
  const double rr0 = load_double(api, kRr0Addr);
  const bool done = solve_iter + 1 >= config_.max_iters || rr <= 1e-24 * rr0;
  api.store_u64(kSolveIterAddr, done ? 0 : solve_iter + 1);
  api.store_u64(kSolveAddr, done ? solve + 1 : solve);
  api.store_u64(kTotalIterAddr, api.load_u64(kTotalIterAddr) + 1);
  // Two flops per stored nonzero at 1 ns each, plus the vector updates.
  api.compute(static_cast<SimTime>(2 * layout.nnz + 10 * n));
  api.work_done();
  return GuestStatus::kRunning;
}

CgGuest::Progress CgGuest::read_progress(ckpt::sim::SimKernel&, ckpt::sim::Process& proc) {
  const auto read = [&](VAddr addr) {
    const auto page = proc.aspace->page_data(ckpt::sim::page_of(addr));
    std::uint64_t v = 0;
    std::memcpy(&v, page.data() + ckpt::sim::page_offset(addr), sizeof(v));
    return v;
  };
  return Progress{read(kTotalIterAddr), std::bit_cast<double>(read(kRrAddr))};
}

}  // namespace perfbench
