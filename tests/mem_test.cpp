// Tests for the dual-ported node memory: geometry, functional access, row
// transfers, parity fault injection, the paper's bandwidth constants, and
// the pool that recycles released arrays.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "mem/memory.hpp"

namespace fpst::mem {
namespace {

TEST(MemParams, PaperGeometry) {
  EXPECT_EQ(MemParams::kBytes, 1u << 20) << "1 MByte per node";
  EXPECT_EQ(MemParams::kWords, 256u * 1024u) << "256K 32-bit words";
  EXPECT_EQ(MemParams::kRows, 1024u);
  EXPECT_EQ(MemParams::kBankARows, 256u) << "bank A: 64 KWords";
  EXPECT_EQ(MemParams::kBankBRows, 768u) << "bank B: 192 KWords";
  EXPECT_EQ(MemParams::kElems32, 256u) << "256 x 32-bit per vector";
  EXPECT_EQ(MemParams::kElems64, 128u) << "128 x 64-bit per vector";
}

TEST(MemParams, PaperBandwidths) {
  // (4 bytes) / (0.4 us) = 10 MB/s; (1024 bytes) / (0.4 us) = 2560 MB/s.
  EXPECT_DOUBLE_EQ(MemParams::cp_bandwidth_mb_s(), 10.0);
  EXPECT_DOUBLE_EQ(MemParams::row_bandwidth_mb_s(), 2560.0);
  // Gather-scatter: 1.6 us per 64-bit element, 0.8 us per 32-bit element.
  EXPECT_EQ(MemParams::gather_move64(), sim::SimTime::nanoseconds(1600));
  EXPECT_EQ(MemParams::gather_move32(), sim::SimTime::nanoseconds(800));
}

TEST(NodeMemory, WordReadWriteRoundTrip) {
  NodeMemory m;
  m.write_word(0x100, 0xdeadbeef);
  EXPECT_EQ(m.read_word(0x100), 0xdeadbeefu);
  // Unaligned addresses refer to the containing aligned word.
  EXPECT_EQ(m.read_word(0x102), 0xdeadbeefu);
  m.write_word(MemParams::kBytes - 4, 42);
  EXPECT_EQ(m.read_word(MemParams::kBytes - 4), 42u);
}

TEST(NodeMemory, ByteAccess) {
  NodeMemory m;
  m.write_word(0x40, 0x04030201);
  EXPECT_EQ(m.read_byte(0x40), 0x01) << "little-endian model";
  EXPECT_EQ(m.read_byte(0x43), 0x04);
  m.write_byte(0x41, 0xff);
  EXPECT_EQ(m.read_word(0x40), 0x0403ff01u);
}

TEST(NodeMemory, RowTransferRoundTrip) {
  NodeMemory m;
  VectorRegister reg;
  for (std::size_t i = 0; i < MemParams::kElems64; ++i) {
    reg.set_u64(i, 0x1000 + i);
  }
  m.store_row(5, reg);
  VectorRegister out;
  m.load_row(5, out);
  for (std::size_t i = 0; i < MemParams::kElems64; ++i) {
    EXPECT_EQ(out.u64(i), 0x1000 + i);
  }
}

TEST(NodeMemory, RowAndWordPortsSeeTheSameBytes) {
  // Dual-ported: the CP writes words, the vector port reads the same row.
  NodeMemory m;
  const std::size_t row = 300;
  const std::uint32_t base = NodeMemory::address_of_row(row);
  for (std::uint32_t w = 0; w < 256; ++w) {
    m.write_word(base + 4 * w, w * 3 + 1);
  }
  VectorRegister reg;
  m.load_row(row, reg);
  for (std::size_t w = 0; w < 256; ++w) {
    EXPECT_EQ(reg.u32(w), w * 3 + 1);
  }
}

TEST(NodeMemory, BankGeometry) {
  EXPECT_EQ(NodeMemory::bank_of_row(0), Bank::A);
  EXPECT_EQ(NodeMemory::bank_of_row(255), Bank::A);
  EXPECT_EQ(NodeMemory::bank_of_row(256), Bank::B);
  EXPECT_EQ(NodeMemory::bank_of_row(1023), Bank::B);
  EXPECT_EQ(NodeMemory::row_of_address(0x400), 1u);
  EXPECT_EQ(NodeMemory::address_of_row(2), 0x800u);
}

TEST(NodeMemory, ParityDetectsSingleBitFault) {
  NodeMemory m;
  m.write_word(0x200, 0x12345678);
  m.corrupt_byte(0x201, 3);
  EXPECT_FALSE(m.take_parity_error().has_value()) << "not yet read";
  (void)m.read_word(0x200);
  const auto err = m.take_parity_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->byte_address, 0x201u);
  EXPECT_EQ(m.parity_errors_detected(), 1u);
  // The error is consumed and repaired: subsequent reads are clean.
  (void)m.read_word(0x200);
  EXPECT_FALSE(m.take_parity_error().has_value());
}

TEST(NodeMemory, ParityDetectsFaultThroughRowPort) {
  NodeMemory m;
  VectorRegister reg;
  reg.set_u64(0, 0xabcdef);
  m.store_row(10, reg);
  m.corrupt_byte(NodeMemory::address_of_row(10) + 2, 0);
  VectorRegister out;
  m.load_row(10, out);
  EXPECT_TRUE(m.take_parity_error().has_value());
}

TEST(NodeMemory, CleanTrafficRaisesNoParityErrors) {
  NodeMemory m;
  std::mt19937 rng{7};
  std::uniform_int_distribution<std::uint32_t> addr(0, MemParams::kBytes - 4);
  std::uniform_int_distribution<std::uint32_t> val;
  for (int i = 0; i < 5000; ++i) {
    const std::uint32_t a = addr(rng) & ~3u;
    m.write_word(a, val(rng));
    (void)m.read_word(a);
  }
  EXPECT_EQ(m.parity_errors_detected(), 0u);
}

TEST(NodeMemory, StatsCountTraffic) {
  NodeMemory m;
  m.write_word(0, 1);
  (void)m.read_word(0);
  VectorRegister reg;
  m.load_row(0, reg);
  EXPECT_EQ(m.word_accesses(), 2u);
  EXPECT_EQ(m.row_accesses(), 1u);
}

// Nothing is mapped at construction: every port must still read an
// untouched byte as zero, up to the last one, and reading maps nothing.
TEST(NodeMemory, FreshMemoryReadsZeroThroughEveryPort) {
  NodeMemory m;
  EXPECT_FALSE(m.mapped());
  EXPECT_EQ(m.read_word(MemParams::kBytes - 4), 0u);
  EXPECT_EQ(m.read_byte(MemParams::kBytes - 1), 0u);
  VectorRegister reg;
  reg.set_u64(0, ~0ull);
  m.load_row(MemParams::kRows - 1, reg);
  for (std::size_t i = 0; i < MemParams::kElems64; ++i) {
    EXPECT_EQ(reg.u64(i), 0u) << "element " << i;
  }
  for (const std::uint32_t a : {0u, 0x1234u, 0x80000u}) {
    EXPECT_EQ(m.peek_byte(a), 0u) << "address " << a;
  }
  EXPECT_EQ(m.peek_byte(MemParams::kBytes - 1), 0u);
  EXPECT_FALSE(m.mapped()) << "a read mapped the array";
  EXPECT_EQ(m.word_accesses(), 2u);
  EXPECT_EQ(m.row_accesses(), 1u);
}

// The first write through any writing port maps the array, which then
// holds the written byte and zero everywhere else.
TEST(NodeMemory, FirstWriteThroughEveryWritingPortMaps) {
  constexpr std::uint32_t kAt = 0x2468;
  const std::vector<std::pair<const char*, std::function<void(NodeMemory&)>>>
      ports = {
          {"write_word", [](NodeMemory& m) { m.write_word(kAt, 0x5a); }},
          {"write_byte", [](NodeMemory& m) { m.write_byte(kAt, 0x5a); }},
          {"store_row",
           [](NodeMemory& m) {
             VectorRegister reg;
             reg.raw()[kAt % MemParams::kRowBytes] = std::byte{0x5a};
             m.store_row(NodeMemory::row_of_address(kAt), reg);
           }},
          {"poke_byte", [](NodeMemory& m) { m.poke_byte(kAt, 0x5a); }},
          {"corrupt_byte",
           [](NodeMemory& m) {
             for (const int bit : {1, 3, 4, 6}) {  // 0x5a
               m.corrupt_byte(kAt, bit);
             }
           }},
      };
  for (const auto& [port, write] : ports) {
    SCOPED_TRACE(port);
    NodeMemory m;
    write(m);
    EXPECT_TRUE(m.mapped());
    EXPECT_EQ(m.peek_byte(kAt), 0x5au);
    EXPECT_EQ(m.peek_byte(kAt + 1), 0u);
    EXPECT_EQ(m.peek_byte(MemParams::kBytes - 1), 0u);
  }
}

// Flipping a bit of a byte never written still leaves its stored parity
// bit behind, so the next read reports it.
TEST(NodeMemory, CorruptingAnUnwrittenByteReportsParity) {
  NodeMemory m;
  m.corrupt_byte(0x123, 2);
  EXPECT_TRUE(m.mapped());
  EXPECT_EQ(m.read_byte(0x123), 4u);
  const auto err = m.take_parity_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->byte_address, 0x123u);
}

// ASan does not watch mmap'd memory, so the guard page after the array is
// what turns an overrun into a fault, in release and sanitized builds alike:
// after the shared zero array while the memory is unwritten, after its own
// once written, and after one it took from the pool.
TEST(NodeMemoryDeathTest, ReadPastTheEndFaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        NodeMemory m;
        volatile std::uint8_t byte = m.peek_byte(MemParams::kBytes);
        (void)byte;
      },
      "");
  ASSERT_DEATH(
      {
        NodeMemory m;
        m.write_byte(0, 1);
        volatile std::uint8_t byte = m.peek_byte(MemParams::kBytes);
        (void)byte;
      },
      "");
  // An array reused from the pool keeps its guard page. Exiting with 0
  // when the array was mapped fresh fails the death assertion.
  ASSERT_DEATH(
      {
        std::make_unique<NodeMemory>()->write_byte(0, 1);
        const std::uint64_t reused = pool_stats().reused;
        NodeMemory m;
        m.write_byte(0, 1);
        if (pool_stats().reused != reused + 1) {
          std::exit(0);
        }
        volatile std::uint8_t byte = m.peek_byte(MemParams::kBytes);
        (void)byte;
      },
      "");
}

constexpr std::size_t kBlock = PoolParams::kBlockBytes;

/// Takes every idle array out of the pool while it lives, so a test sees
/// only the arrays it releases itself.
class HeldPool {
 public:
  HeldPool() : held_(pool_stats().pooled) {
    for (NodeMemory& m : held_) {
      m.poke_byte(0, 0);
    }
  }

 private:
  std::vector<NodeMemory> held_;
};

// The array the last memory released is taken by the next first write
// (the pool is a stack, and this thread is the only one releasing), and
// it is indistinguishable from a fresh one.
TEST(NodeMemoryPool, ReusedArrayReadsZeroThroughEveryPort) {
  const HeldPool held;
  // One writing port per block, and two in the last block.
  constexpr std::uint32_t kWord = 0x10;
  constexpr std::uint32_t kByte = 3 * kBlock + 7;
  constexpr std::size_t kRow = 100 * kBlock / MemParams::kRowBytes;
  constexpr std::uint32_t kPoke = 200 * kBlock + 1;
  constexpr std::uint32_t kCorrupt = MemParams::kBytes - 2;
  const PoolStats before = pool_stats();
  {
    NodeMemory first;
    first.write_word(kWord, 0xdeadbeef);
    first.write_byte(kByte, 0x5a);
    VectorRegister reg;
    reg.set_u64(MemParams::kElems64 - 1, ~0ull);
    first.store_row(kRow, reg);
    first.poke_byte(kPoke, 0xa5);
    first.poke_byte(kCorrupt - 1, 0xff);
    first.corrupt_byte(kCorrupt, 5);  // a parity error no read reported
  }
  const PoolStats released = pool_stats();
  EXPECT_EQ(released.mapped, before.mapped + 1);
  EXPECT_EQ(released.pooled, 1u);
  EXPECT_EQ(released.retained_bytes, 5 * kBlock);

  NodeMemory m;
  m.poke_byte(kBlock, 1);  // the first write takes the array back
  const PoolStats taken = pool_stats();
  EXPECT_EQ(taken.reused, released.reused + 1);
  EXPECT_EQ(taken.mapped, released.mapped);
  EXPECT_EQ(taken.pooled, 0u);
  EXPECT_EQ(taken.retained_bytes, 0u);
  EXPECT_EQ(m.word_accesses(), 0u) << "statistics start at zero";
  EXPECT_EQ(m.row_accesses(), 0u);

  EXPECT_EQ(m.read_word(kWord), 0u);
  EXPECT_EQ(m.read_byte(kByte), 0u);
  VectorRegister reg;
  reg.set_u64(0, 1);
  m.load_row(kRow, reg);
  for (std::size_t i = 0; i < MemParams::kElems64; ++i) {
    EXPECT_EQ(reg.u64(i), 0u) << "element " << i;
  }
  for (const std::uint32_t a : {kWord, kByte, kPoke, kCorrupt - 1, kCorrupt}) {
    EXPECT_EQ(m.peek_byte(a), 0u) << "address " << a;
  }
  EXPECT_EQ(m.read_byte(kCorrupt), 0u);
  EXPECT_FALSE(m.take_parity_error().has_value());
  EXPECT_EQ(m.parity_errors_detected(), 0u);
  EXPECT_EQ(m.word_accesses(), 3u);
  EXPECT_EQ(m.row_accesses(), 1u);
}

// The record of written blocks travels with the array, so an array whose
// owners together wrote more blocks than the bound is unmapped, not
// pooled; one at the bound is pooled.
TEST(NodeMemoryPool, ArrayOverTheBlockBoundIsUnmapped) {
  const HeldPool held;
  const auto write_blocks = [](NodeMemory& m, std::size_t from,
                               std::size_t count) {
    for (std::size_t b = from; b < from + count; ++b) {
      m.write_byte(static_cast<std::uint32_t>(b * kBlock), 1);
    }
  };
  {
    NodeMemory m;
    write_blocks(m, 0, PoolParams::kMaxWrittenBlocks + 1);
  }
  EXPECT_EQ(pool_stats().pooled, 0u) << "over the bound";
  {
    NodeMemory m;
    write_blocks(m, 0, PoolParams::kMaxWrittenBlocks);
  }
  EXPECT_EQ(pool_stats().pooled, 1u) << "at the bound";
  EXPECT_EQ(pool_stats().retained_bytes,
            PoolParams::kMaxWrittenBlocks * kBlock);
  {
    NodeMemory m;
    // A block no owner wrote.
    write_blocks(m, PoolParams::kMaxWrittenBlocks, 1);
  }
  const PoolStats after = pool_stats();
  EXPECT_EQ(after.pooled, 0u) << "the owners' union is over the bound";
  EXPECT_EQ(after.retained_bytes, 0u);
  {
    NodeMemory m;
    m.write_byte(0, 1);
  }
  EXPECT_EQ(pool_stats().mapped, after.mapped + 1) << "nothing left to reuse";
}

TEST(NodeMemoryPool, HoldsAtMostItsArrayBound) {
  const HeldPool held;
  {
    std::vector<NodeMemory> machine(PoolParams::kMaxArrays + 1);
    for (NodeMemory& m : machine) {
      m.write_word(0, 1);
    }
  }
  const PoolStats full = pool_stats();
  EXPECT_EQ(full.pooled, PoolParams::kMaxArrays);
  EXPECT_EQ(full.retained_bytes, PoolParams::kMaxArrays * kBlock);
  {
    NodeMemory m;
    m.write_word(0, 1);
  }
  EXPECT_EQ(pool_stats().reused, full.reused + 1);
  EXPECT_EQ(pool_stats().pooled, PoolParams::kMaxArrays);
}

TEST(VectorRegister, TypedViewsShareBytes) {
  VectorRegister reg;
  reg.set_u64(0, 0x0123456789abcdefull);
  EXPECT_EQ(reg.u32(0), 0x89abcdefu);
  EXPECT_EQ(reg.u32(1), 0x01234567u);
  reg.set_f64(1, fp::T64::from_double(2.5));
  EXPECT_EQ(reg.f64(1).to_double(), 2.5);
}

}  // namespace
}  // namespace fpst::mem
