#include "mem/memory.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <cassert>
#include <cstring>
#include <mutex>
#include <new>

namespace fpst::mem {

namespace {

/// One host page, mapped PROT_NONE right after the array.
std::size_t guard_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// An array of kBytes with `prot` access and a PROT_NONE guard page after
/// it; throws std::bad_alloc when either cannot be set up. Sanitizers do
/// not track mmap'd memory; without the guard an overrun would read a
/// neighbouring mapping instead of faulting.
std::uint8_t* map_guarded(int prot) {
  void* p = mmap(nullptr, MemParams::kBytes + guard_bytes(), prot,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  auto* base = static_cast<std::uint8_t*>(p);
  if (mprotect(base + MemParams::kBytes, guard_bytes(), PROT_NONE) != 0) {
    munmap(p, MemParams::kBytes + guard_bytes());
    throw std::bad_alloc();
  }
  return base;
}

/// The read-only zero array every unwritten memory reads through, mapped
/// once per process and never unmapped. Reading it maps no memory of its
/// own: the kernel backs every page with its shared zero page.
const std::uint8_t* zero_view() {
  static const std::uint8_t* const zeros = map_guarded(PROT_READ);
  return zeros;
}

/// The idle arrays, all zero, with the blocks each has had written since
/// it was first mapped. Arrays leave and rejoin from any thread (serve
/// workers, shard threads), so one mutex guards it; the storage is fixed,
/// so releasing an array allocates nothing. A pooled array is poisoned for
/// AddressSanitizer (the macros compile to nothing in other builds), so a
/// stale access through a destroyed memory is still reported, as munmap
/// made it fault.
class Pool {
 public:
  /// An idle array, or a fresh mapping when there is none.
  std::uint8_t* acquire(std::bitset<PoolParams::kBlocks>& written) {
    {
      const std::lock_guard lock{mu_};
      if (count_ > 0) {
        Idle& idle = idle_[--count_];
        ++reused_;
        retained_blocks_ -= idle.written.count();
        ASAN_UNPOISON_MEMORY_REGION(idle.data, MemParams::kBytes);
        written = idle.written;
        return idle.data;
      }
    }
    std::uint8_t* data = map_guarded(PROT_READ | PROT_WRITE);
    const std::lock_guard lock{mu_};
    ++mapped_;
    return data;
  }

  /// Zeroes the written blocks and keeps the array, or unmaps it when it
  /// is over either bound.
  void release(std::uint8_t* data,
               const std::bitset<PoolParams::kBlocks>& written) noexcept {
    const std::size_t blocks = written.count();
    if (blocks <= PoolParams::kMaxWrittenBlocks) {
      for (std::size_t b = 0; b < PoolParams::kBlocks; ++b) {
        if (written[b]) {
          std::memset(data + b * PoolParams::kBlockBytes, 0,
                      PoolParams::kBlockBytes);
        }
      }
      const std::lock_guard lock{mu_};
      if (count_ < PoolParams::kMaxArrays) {
        ASAN_POISON_MEMORY_REGION(data, MemParams::kBytes);
        idle_[count_++] = {data, written};
        retained_blocks_ += blocks;
        return;
      }
    }
    munmap(data, MemParams::kBytes + guard_bytes());
  }

  PoolStats stats() {
    const std::lock_guard lock{mu_};
    return {mapped_, reused_, count_,
            retained_blocks_ * PoolParams::kBlockBytes};
  }

 private:
  struct Idle {
    std::uint8_t* data = nullptr;
    std::bitset<PoolParams::kBlocks> written;
  };

  std::mutex mu_;
  std::array<Idle, PoolParams::kMaxArrays> idle_;
  std::size_t count_ = 0;
  std::size_t retained_blocks_ = 0;
  std::uint64_t mapped_ = 0;
  std::uint64_t reused_ = 0;
};

/// The process's one pool, never destroyed, like the shared zero array: a
/// memory may be freed during static destruction.
Pool& pool() {
  static Pool* const p = new Pool;
  return *p;
}

}  // namespace

std::uint32_t VectorRegister::u32(std::size_t i) const {
  assert(i < MemParams::kElems32);
  std::uint32_t v;
  std::memcpy(&v, bytes_.data() + i * 4, sizeof v);
  return v;
}

void VectorRegister::set_u32(std::size_t i, std::uint32_t v) {
  assert(i < MemParams::kElems32);
  std::memcpy(bytes_.data() + i * 4, &v, sizeof v);
}

std::uint64_t VectorRegister::u64(std::size_t i) const {
  assert(i < MemParams::kElems64);
  std::uint64_t v;
  std::memcpy(&v, bytes_.data() + i * 8, sizeof v);
  return v;
}

void VectorRegister::set_u64(std::size_t i, std::uint64_t v) {
  assert(i < MemParams::kElems64);
  std::memcpy(bytes_.data() + i * 8, &v, sizeof v);
}

PoolStats pool_stats() { return pool().stats(); }

NodeMemory::NodeMemory() : view_{zero_view()} {}

NodeMemory::~NodeMemory() {
  if (data_ != nullptr) {
    pool().release(data_, written_);
  }
}

void NodeMemory::map() {
  // Not a vector, which writes every byte up front, nor calloc: once memory
  // has been freed, glibc serves 1 MiB from recycled heap chunks and
  // re-zeroes them. The array, pooled or fresh, holds the zeros the shared
  // view showed, and the stored parity bit of every byte matches its data.
  data_ = pool().acquire(written_);
  view_ = data_;
}

void NodeMemory::check_parity(std::uint32_t addr) {
  // The mismatch set holds exactly the bytes whose stored parity bit
  // disagrees with their data — the bytes corrupt_byte has flipped an odd
  // number of times since they were last written. Representing only the
  // disagreement keeps fault-free reads O(1) instead of re-deriving the
  // parity of every byte touched; detection behaviour is identical.
  const auto it = corrupted_.find(addr);
  if (it == corrupted_.end()) {
    return;
  }
  pending_error_ = ParityError{addr};
  ++parity_error_count_;
  // Repair so one fault is reported once, as the system board would after
  // logging and re-writing the word.
  corrupted_.erase(it);
}

void NodeMemory::clear_corruption(std::uint32_t addr, std::uint32_t len) {
  // Writing a byte recomputes its stored parity bit, so any outstanding
  // mismatch in the written range vanishes undetected.
  corrupted_.erase(corrupted_.lower_bound(addr),
                   corrupted_.lower_bound(addr + len));
}

std::uint32_t NodeMemory::read_word(std::uint32_t addr) {
  addr &= ~3u;
  assert(addr + 3 < MemParams::kBytes);
  if (!corrupted_.empty()) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      check_parity(addr + i);
    }
  }
  std::uint32_t v;
  std::memcpy(&v, view_ + addr, sizeof v);
  stats_.add(kWordReads, 1);
  return v;
}

void NodeMemory::write_word(std::uint32_t addr, std::uint32_t v) {
  addr &= ~3u;
  assert(addr + 3 < MemParams::kBytes);
  std::memcpy(writable(addr) + addr, &v, sizeof v);
  if (!corrupted_.empty()) {
    clear_corruption(addr, 4);
  }
  stats_.add(kWordWrites, 1);
}

std::uint8_t NodeMemory::read_byte(std::uint32_t addr) {
  assert(addr < MemParams::kBytes);
  if (!corrupted_.empty()) {
    check_parity(addr);
  }
  stats_.add(kWordReads, 1);
  return view_[addr];
}

void NodeMemory::write_byte(std::uint32_t addr, std::uint8_t v) {
  assert(addr < MemParams::kBytes);
  writable(addr)[addr] = v;
  if (!corrupted_.empty()) {
    clear_corruption(addr, 1);
  }
  stats_.add(kWordWrites, 1);
}

void NodeMemory::load_row(std::size_t row, VectorRegister& reg) {
  assert(row < MemParams::kRows);
  const std::size_t base = row * MemParams::kRowBytes;
  if (!corrupted_.empty()) {
    for (std::size_t i = 0; i < MemParams::kRowBytes; ++i) {
      check_parity(static_cast<std::uint32_t>(base + i));
    }
  }
  std::memcpy(reg.raw().data(), view_ + base, MemParams::kRowBytes);
  stats_.add(kRowLoads, 1);
}

void NodeMemory::store_row(std::size_t row, const VectorRegister& reg) {
  assert(row < MemParams::kRows);
  const std::size_t base = row * MemParams::kRowBytes;
  std::memcpy(writable(static_cast<std::uint32_t>(base)) + base,
              reg.raw().data(), MemParams::kRowBytes);
  if (!corrupted_.empty()) {
    clear_corruption(static_cast<std::uint32_t>(base), MemParams::kRowBytes);
  }
  stats_.add(kRowStores, 1);
}

void NodeMemory::corrupt_byte(std::uint32_t addr, int bit) {
  assert(addr < MemParams::kBytes);
  assert(bit >= 0 && bit < 8);
  std::uint8_t* data = writable(addr);
  data[addr] = static_cast<std::uint8_t>(data[addr] ^ (1u << bit));
  // Each call flips exactly one data bit without touching the stored parity
  // bit, so the byte's mismatch toggles: an even number of flipped bits per
  // byte restores matching parity and goes undetected, exactly as one
  // parity bit per byte would behave.
  const auto [it, inserted] = corrupted_.insert(addr);
  if (!inserted) {
    corrupted_.erase(it);
  }
}

std::optional<ParityError> NodeMemory::take_parity_error() {
  std::optional<ParityError> e = pending_error_;
  pending_error_.reset();
  return e;
}

}  // namespace fpst::mem
