// Tests for the dual-ported node memory: geometry, functional access, row
// transfers, parity fault injection, and the paper's bandwidth constants.
#include <gtest/gtest.h>

#include <random>

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

// The array is mapped, not written, at construction: every port must still
// read an untouched byte as zero, up to the last one.
TEST(NodeMemory, FreshMemoryReadsZeroThroughEveryPort) {
  NodeMemory m;
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
}

// ASan does not watch mmap'd memory, so the guard page after the array is
// what turns an overrun into a fault, in release and sanitized builds alike.
TEST(NodeMemoryDeathTest, ReadPastTheEndFaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        NodeMemory m;
        volatile std::uint8_t byte = m.peek_byte(MemParams::kBytes);
        (void)byte;
      },
      "");
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
