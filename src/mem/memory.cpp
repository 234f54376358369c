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

NodeMemory::NodeMemory() {
  // Not a vector, which writes every byte up front, nor calloc: once memory
  // has been freed, glibc serves 1 MiB from recycled heap chunks and
  // re-zeroes them. A fresh array is consistent: the stored parity bit of
  // every byte matches its data, so the mismatch set starts empty.
  void* p = mmap(nullptr, MemParams::kBytes + guard_bytes(),
                 PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  auto* base = static_cast<std::uint8_t*>(p);
  data_.reset(base);
  // Sanitizers do not track mmap'd memory; without the guard an overrun
  // would read a neighbouring mapping instead of faulting.
  if (mprotect(base + MemParams::kBytes, guard_bytes(), PROT_NONE) != 0) {
    throw std::bad_alloc();
  }
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
  std::memcpy(&v, data_.get() + addr, sizeof v);
  ++word_accesses_;
  if (perf::PerfSink* sink = perf_.sink()) {
    perf_.slots().word_reads.add(*sink, "word_reads", 1);
  }
  return v;
}

void NodeMemory::write_word(std::uint32_t addr, std::uint32_t v) {
  addr &= ~3u;
  assert(addr + 3 < MemParams::kBytes);
  std::memcpy(data_.get() + addr, &v, sizeof v);
  if (!corrupted_.empty()) {
    clear_corruption(addr, 4);
  }
  ++word_accesses_;
  if (perf::PerfSink* sink = perf_.sink()) {
    perf_.slots().word_writes.add(*sink, "word_writes", 1);
  }
}

std::uint8_t NodeMemory::read_byte(std::uint32_t addr) {
  assert(addr < MemParams::kBytes);
  if (!corrupted_.empty()) {
    check_parity(addr);
  }
  ++word_accesses_;
  if (perf::PerfSink* sink = perf_.sink()) {
    perf_.slots().word_reads.add(*sink, "word_reads", 1);
  }
  return data_[addr];
}

void NodeMemory::write_byte(std::uint32_t addr, std::uint8_t v) {
  assert(addr < MemParams::kBytes);
  data_[addr] = v;
  if (!corrupted_.empty()) {
    clear_corruption(addr, 1);
  }
  ++word_accesses_;
  if (perf::PerfSink* sink = perf_.sink()) {
    perf_.slots().word_writes.add(*sink, "word_writes", 1);
  }
}

void NodeMemory::load_row(std::size_t row, VectorRegister& reg) {
  assert(row < MemParams::kRows);
  const std::size_t base = row * MemParams::kRowBytes;
  if (!corrupted_.empty()) {
    for (std::size_t i = 0; i < MemParams::kRowBytes; ++i) {
      check_parity(static_cast<std::uint32_t>(base + i));
    }
  }
  std::memcpy(reg.raw().data(), data_.get() + base, MemParams::kRowBytes);
  ++row_accesses_;
  if (perf::PerfSink* sink = perf_.sink()) {
    perf_.slots().row_loads.add(*sink, "row_loads", 1);
  }
}

void NodeMemory::store_row(std::size_t row, const VectorRegister& reg) {
  assert(row < MemParams::kRows);
  const std::size_t base = row * MemParams::kRowBytes;
  std::memcpy(data_.get() + base, reg.raw().data(), MemParams::kRowBytes);
  if (!corrupted_.empty()) {
    clear_corruption(static_cast<std::uint32_t>(base), MemParams::kRowBytes);
  }
  ++row_accesses_;
  if (perf::PerfSink* sink = perf_.sink()) {
    perf_.slots().row_stores.add(*sink, "row_stores", 1);
  }
}

void NodeMemory::corrupt_byte(std::uint32_t addr, int bit) {
  assert(addr < MemParams::kBytes);
  assert(bit >= 0 && bit < 8);
  data_[addr] = static_cast<std::uint8_t>(data_[addr] ^ (1u << bit));
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
