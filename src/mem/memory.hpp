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
// Storage: a NodeMemory maps nothing until its first write. Until then it
// reads through one read-only zero array that every unwritten memory in
// the process shares. The first write through any writing port gives the
// node its own 1 MByte of anonymous private memory, which the kernel
// zero-fills one page at a time as it is written, so a machine costs host
// memory only for the nodes, and the pages, its program writes. One
// PROT_NONE guard page follows each array, the shared one included: an
// access past the end faults in every build type, sanitized or not.
//
// Like the paper's DRAM, which is installed once and overwritten by each
// program, an array outlives its node: a NodeMemory records which 4 KiB
// blocks it has written, and its destructor zeroes them and hands the
// array, guard page included, to one process-wide pool. The next first
// write anywhere in the process takes it from there instead of mapping,
// so a served job that writes node memory maps, protects and unmaps
// nothing once the pool is warm. A pooled array is all zero, so it reads
// exactly like a fresh mapping. PoolParams bounds what the pool keeps.
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <cstdint>
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

/// Bounds of the process-wide pool of released node arrays.
struct PoolParams {
  /// Granule of the record of written bytes: one 4 KiB host page.
  static constexpr std::size_t kBlockBytes = 4096;
  static constexpr std::size_t kBlocks = MemParams::kBytes / kBlockBytes;
  /// At most this many idle arrays: one per node of serve's largest
  /// machine, a 10-cube, so every array a served job frees is kept.
  static constexpr std::size_t kMaxArrays = 1024;
  /// Only an array with at most this many written blocks (64 KiB) is
  /// pooled; a larger one is unmapped. Every block written since the array
  /// was first mapped stays resident and is zeroed at each release, so
  /// this bounds both the zeroing and the pool's resident memory: at most
  /// 64 MiB, in at most 2,048 idle memory regions (each array's and its
  /// guard page's). A served saxpy writes 2 blocks per node.
  static constexpr std::size_t kMaxWrittenBlocks = 16;
};

/// The process's node arrays: what the pool has done, and holds now.
struct PoolStats {
  std::uint64_t mapped = 0;  ///< arrays mapped fresh, ever
  std::uint64_t reused = 0;  ///< first writes served from the pool, ever
  std::uint64_t pooled = 0;  ///< arrays idle in the pool now
  std::uint64_t retained_bytes = 0;  ///< the idle arrays' written blocks
};
PoolStats pool_stats();

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
  /// An unmapped memory, reading as zero. Its first write takes an array
  /// from the pool or maps one, and throws std::bad_alloc if the mapping
  /// or its guard page cannot be set up.
  NodeMemory();
  NodeMemory(const NodeMemory&) = delete;
  NodeMemory& operator=(const NodeMemory&) = delete;
  /// Zeroes the written blocks and pools the array, or unmaps it when the
  /// pool is full or the array is over PoolParams::kMaxWrittenBlocks.
  ~NodeMemory();

  /// True once a write has given the memory its own array.
  bool mapped() const { return data_ != nullptr; }

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
  std::uint8_t peek_byte(std::uint32_t addr) const { return view_[addr]; }
  void poke_byte(std::uint32_t addr, std::uint8_t v) {
    writable(addr)[addr] = v;
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

  /// The array, for a write at `addr`: taken or mapped by the first one.
  /// Marks the block `addr` lies in as written; an address past the end
  /// marks a block inside and still faults on the guard page.
  std::uint8_t* writable(std::uint32_t addr) {
    if (data_ == nullptr) {
      map();
    }
    written_[addr / PoolParams::kBlockBytes % PoolParams::kBlocks] = true;
    return data_;
  }
  void map();

  perf::Stats<kFields> stats_;
  /// What reads see: the shared zero array until the first write, the
  /// node's own array from then on.
  const std::uint8_t* view_;
  /// The node's own array, null until the first write. Only the node's
  /// shard thread writes its memory, or staging before the run starts, so
  /// the memory itself takes no lock; only the pool, which arrays leave
  /// and rejoin from any thread, does.
  std::uint8_t* data_ = nullptr;
  /// The array's blocks written since it was first mapped, by this memory
  /// or an earlier owner: all of them hold the only bytes that can be
  /// nonzero. The record travels with the array through the pool.
  std::bitset<PoolParams::kBlocks> written_;
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
