#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "sim/memory.hpp"

namespace perfbench {

namespace {

bool is_code_page(const ckpt::sim::Process& proc, ckpt::sim::PageNum page) {
  const ckpt::sim::Vma* vma = proc.aspace->find_vma(ckpt::sim::page_base(page));
  return vma != nullptr && vma->kind == ckpt::sim::VmaKind::kCode;
}

}  // namespace

bool memory_equal(const ckpt::sim::Process& a, const ckpt::sim::Process& b) {
  std::vector<ckpt::sim::PageNum> pages_a;
  std::vector<ckpt::sim::PageNum> pages_b;
  a.aspace->for_each_page([&](ckpt::sim::PageNum page, const ckpt::sim::PageTableEntry& pte) {
    if (pte.present && !is_code_page(a, page)) pages_a.push_back(page);
  });
  b.aspace->for_each_page([&](ckpt::sim::PageNum page, const ckpt::sim::PageTableEntry& pte) {
    if (pte.present && !is_code_page(b, page)) pages_b.push_back(page);
  });
  if (pages_a != pages_b) return false;
  return std::all_of(pages_a.begin(), pages_a.end(), [&](ckpt::sim::PageNum page) {
    const auto da = a.aspace->page_data(page);
    const auto db = b.aspace->page_data(page);
    return da.size() == db.size() && std::memcmp(da.data(), db.data(), da.size()) == 0;
  });
}

std::uint64_t live_bytes(const ckpt::sim::Process& proc) {
  std::uint64_t bytes = 0;
  proc.aspace->for_each_page([&](ckpt::sim::PageNum page, const ckpt::sim::PageTableEntry& pte) {
    if (pte.present && !is_code_page(proc, page)) bytes += ckpt::sim::kPageSize;
  });
  return bytes;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
