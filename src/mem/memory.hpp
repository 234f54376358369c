// The T Series node memory (paper §II "Memory").
//
// Each node carries 1 MByte of dual-ported dynamic RAM:
//   * a conventional random-access port used by the control processor and
//     the communication links — one 32-bit word per 400 ns (10 MB/s);
//   * a vector port that moves an entire 1024-byte row between memory and a
//     vector register in 400 ns (2560 MB/s).
//
// The vector unit sees the array as two banks of 1024-byte-aligned vectors:
// bank A holds 256 vectors (64 KWords) and bank B 768 vectors (192 KWords),
// so both pipe operands can be fetched in parallel on each 125 ns cycle. A
// vector is 256 elements of 32 bits or 128 elements of 64 bits. One parity
// bit guards each byte.
//
// This model is functional + timed: reads/writes move real bytes, and the
// timing constants are exposed for the node-level cost model. Parity is
// modelled so fault injection (corrupt_byte) is detected on the next read.
//
// Storage: each NodeMemory maps its 1 MByte as anonymous private memory,
// which the kernel zero-fills one page at a time on first write, so a
// machine costs host memory only for the pages its program writes. One
// PROT_NONE guard page follows the array: an access past the end faults
// in every build type, sanitized or not.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>

#include "fp/softfloat.hpp"
#include "perf/sink.hpp"
#include "sim/time.hpp"

namespace fpst::mem {

/// All §II memory constants in one place.
struct MemParams {
  static constexpr std::size_t kBytes = 1 << 20;          // 1 MByte
  static constexpr std::size_t kRowBytes = 1024;          // one vector row
  static constexpr std::size_t kRows = kBytes / kRowBytes;        // 1024
  static constexpr std::size_t kBankARows = 256;          // 64 KWords
  static constexpr std::size_t kBankBRows = kRows - kBankARows;   // 768
  static constexpr std::size_t kWords = kBytes / 4;       // 256K x 32-bit
  static constexpr std::size_t kElems32 = kRowBytes / 4;  // 256 per vector
  static constexpr std::size_t kElems64 = kRowBytes / 8;  // 128 per vector

  /// One 32-bit word through the random-access port.
  static constexpr sim::SimTime word_access() {
    return sim::SimTime::nanoseconds(400);
  }
  /// One full row through the vector port.
  static constexpr sim::SimTime row_access() {
    return sim::SimTime::nanoseconds(400);
  }
  /// Moving one 64-bit element CP-side (2 reads + 2 writes): 1.6 us.
  static constexpr sim::SimTime gather_move64() { return 4 * word_access(); }
  /// Moving one 32-bit element CP-side (1 read + 1 write): 0.8 us.
  static constexpr sim::SimTime gather_move32() { return 2 * word_access(); }

  /// Effective CP bandwidth to RAM: 4 bytes / 0.4 us = 10 MB/s.
  static constexpr double cp_bandwidth_mb_s() {
    return 4.0 / word_access().us();
  }
  /// Row port bandwidth: 1024 bytes / 0.4 us = 2560 MB/s.
  static constexpr double row_bandwidth_mb_s() {
    return static_cast<double>(kRowBytes) / row_access().us();
  }
};

enum class Bank : std::uint8_t { A, B };

/// A 1024-byte vector register, loadable from / storable to a memory row in
/// one row-access time. Elements are viewed as 32- or 64-bit values.
class VectorRegister {
 public:
  VectorRegister() { bytes_.fill(std::byte{0}); }

  std::uint32_t u32(std::size_t i) const;
  void set_u32(std::size_t i, std::uint32_t v);
  std::uint64_t u64(std::size_t i) const;
  void set_u64(std::size_t i, std::uint64_t v);

  fp::T32 f32(std::size_t i) const { return fp::T32::from_bits(u32(i)); }
  void set_f32(std::size_t i, fp::T32 v) { set_u32(i, v.bits()); }
  fp::T64 f64(std::size_t i) const { return fp::T64::from_bits(u64(i)); }
  void set_f64(std::size_t i, fp::T64 v) { set_u64(i, v.bits()); }

  std::array<std::byte, MemParams::kRowBytes>& raw() { return bytes_; }
  const std::array<std::byte, MemParams::kRowBytes>& raw() const {
    return bytes_;
  }

 private:
  /// Cache-line aligned so the batch arm's vectorised clean loops can run
  /// aligned loads/stores straight over the register storage.
  alignas(64) std::array<std::byte, MemParams::kRowBytes> bytes_;
};

/// Node memory's statistics (perf/sink.hpp): accesses per port and way.
inline constexpr perf::FieldTable kFields{
    {"word_reads"}, {"word_writes"}, {"row_loads"}, {"row_stores"}};
/// kFields' cells.
enum Stat : std::size_t { kWordReads, kWordWrites, kRowLoads, kRowStores };

/// Where a parity violation was detected.
struct ParityError {
  std::uint32_t byte_address;
};

class NodeMemory {
 public:
  /// Maps the zero-filled array; throws std::bad_alloc if the mapping or
  /// its guard page cannot be set up.
  NodeMemory();

  // --- random-access (CP / link) port: functional ---
  /// Read the aligned 32-bit word containing `addr` (little-endian model).
  std::uint32_t read_word(std::uint32_t addr);
  void write_word(std::uint32_t addr, std::uint32_t v);
  std::uint8_t read_byte(std::uint32_t addr);
  void write_byte(std::uint32_t addr, std::uint8_t v);

  // --- vector port: whole rows ---
  void load_row(std::size_t row, VectorRegister& reg);
  void store_row(std::size_t row, const VectorRegister& reg);

  // --- geometry ---
  static Bank bank_of_row(std::size_t row) {
    return row < MemParams::kBankARows ? Bank::A : Bank::B;
  }
  static std::size_t row_of_address(std::uint32_t addr) {
    return addr / MemParams::kRowBytes;
  }
  static std::uint32_t address_of_row(std::size_t row) {
    return static_cast<std::uint32_t>(row * MemParams::kRowBytes);
  }

  // --- debug / loader access (no timing, no stats, no parity checks) ---
  /// Raw byte view used for instruction fetch (the CP's prefetch stream) and
  /// by the checkpoint engine; does not model a timed port.
  std::uint8_t peek_byte(std::uint32_t addr) const { return data_[addr]; }
  void poke_byte(std::uint32_t addr, std::uint8_t v) {
    data_[addr] = v;
    if (!corrupted_.empty()) {
      clear_corruption(addr, 1);
    }
  }

  // --- parity / fault injection ---
  /// Flip one data bit without updating parity; the next read of that byte
  /// reports a parity error (there is one parity bit per byte, §II).
  void corrupt_byte(std::uint32_t addr, int bit);
  /// Error detected since the last call, if any (sticky until consumed).
  std::optional<ParityError> take_parity_error();
  std::uint64_t parity_errors_detected() const { return parity_error_count_; }

  /// Count into `track`'s cells from now on (a "mem" track made with
  /// kFields).
  void attach_perf(perf::PerfSink& track) { stats_.attach(track); }

  // --- traffic statistics, since construction or the last attach ---
  std::uint64_t word_accesses() const {
    return stats_.count(kWordReads) + stats_.count(kWordWrites);
  }
  std::uint64_t row_accesses() const {
    return stats_.count(kRowLoads) + stats_.count(kRowStores);
  }

 private:
  void check_parity(std::uint32_t addr);
  void clear_corruption(std::uint32_t addr, std::uint32_t len);

  /// Unmaps the array and its guard page.
  struct Unmap {
    void operator()(std::uint8_t* p) const noexcept;
  };

  perf::Stats<kFields> stats_;
  std::unique_ptr<std::uint8_t[], Unmap> data_;
  /// Bytes whose stored parity bit currently disagrees with their data:
  /// exactly the bytes corrupt_byte has flipped an odd number of times
  /// since their last write. The sparse representation makes fault-free
  /// parity checking O(1) per access instead of O(bytes touched) while
  /// preserving per-byte parity detection semantics bit for bit.
  std::set<std::uint32_t> corrupted_;
  std::optional<ParityError> pending_error_{};
  std::uint64_t parity_error_count_ = 0;
};

}  // namespace fpst::mem
