#include "mem/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstring>
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

NodeMemory::NodeMemory() : view_{zero_view()} {}

void NodeMemory::map() {
  // Not a vector, which writes every byte up front, nor calloc: once memory
  // has been freed, glibc serves 1 MiB from recycled heap chunks and
  // re-zeroes them. The fresh array holds the zeros the shared view showed,
  // and the stored parity bit of every byte matches its data.
  data_.reset(map_guarded(PROT_READ | PROT_WRITE));
  view_ = data_.get();
}

void NodeMemory::Unmap::operator()(std::uint8_t* p) const noexcept {
  munmap(p, MemParams::kBytes + guard_bytes());
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
  std::memcpy(writable() + addr, &v, sizeof v);
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
  writable()[addr] = v;
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
  std::memcpy(writable() + base, reg.raw().data(), MemParams::kRowBytes);
  if (!corrupted_.empty()) {
    clear_corruption(static_cast<std::uint32_t>(base), MemParams::kRowBytes);
  }
  stats_.add(kRowStores, 1);
}

void NodeMemory::corrupt_byte(std::uint32_t addr, int bit) {
  assert(addr < MemParams::kBytes);
  assert(bit >= 0 && bit < 8);
  std::uint8_t* data = writable();
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
