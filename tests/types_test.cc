// Unit tests for the fundamental value types: addresses, hashes, hex codecs,
// the deterministic RNG and the stopwatch.
#include "src/common/types.h"

#include <gtest/gtest.h>

#include <set>

#include "src/common/clock.h"
#include "src/common/rng.h"

namespace frn {
namespace {

TEST(AddressTest, HexRoundTrip) {
  Address a = Address::FromHex("0x00112233445566778899aabbccddeeff00112233");
  EXPECT_EQ(a.ToHex(), "0x00112233445566778899aabbccddeeff00112233");
  EXPECT_EQ(Address().ToHex(), "0x0000000000000000000000000000000000000000");
}

TEST(AddressTest, U256TruncationKeepsLow20Bytes) {
  // A word wider than 20 bytes truncates to the low 160 bits (EVM rule).
  U256 wide = U256::FromHex(
      "0xdeadbeef00112233445566778899aabbccddeeff0011223344556677");
  Address a = Address::FromU256(wide);
  EXPECT_EQ(a.ToHex(), "0x445566778899aabbccddeeff0011223344556677" /* low 20 bytes */);
  // Address -> U256 -> Address is the identity.
  EXPECT_EQ(Address::FromU256(a.ToU256()), a);
}

TEST(AddressTest, FromIdIsStableAndCollisionFreeForSmallIds) {
  std::set<std::string> seen;
  for (uint64_t id = 0; id < 20'000; ++id) {
    ASSERT_TRUE(seen.insert(Address::FromId(id).ToHex()).second) << id;
  }
  EXPECT_EQ(Address::FromId(42), Address::FromId(42));
}

TEST(AddressTest, IsZeroAndOrdering) {
  EXPECT_TRUE(Address().IsZero());
  EXPECT_FALSE(Address::FromId(1).IsZero());
  Address a = Address::FromHex("0x01");
  Address b = Address::FromHex("0x02");
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
}

TEST(HashTest, RoundTripAndComparisons) {
  Hash h = Hash::FromU256(U256(0xABCD));
  EXPECT_EQ(h.ToU256(), U256(0xABCD));
  EXPECT_TRUE(Hash().IsZero());
  EXPECT_FALSE(h.IsZero());
  EXPECT_NE(h, Hash());
  EXPECT_EQ(h.ToHex().size(), 2 + 64u);
}

TEST(HexCodecTest, BytesRoundTrip) {
  Bytes data = {0x00, 0x01, 0xAB, 0xFF};
  EXPECT_EQ(BytesToHex(data), "0x0001abff");
  EXPECT_EQ(HexToBytes("0x0001abff"), data);
  EXPECT_EQ(HexToBytes("0001ABFF"), data);  // prefix optional, case-insensitive
  EXPECT_TRUE(HexToBytes("0x").empty());
  EXPECT_EQ(BytesToHex({}), "0x");
}

TEST(HasherTest, HashFunctorsDistinguish) {
  EXPECT_NE(AddressHasher{}(Address::FromId(1)), AddressHasher{}(Address::FromId(2)));
  // HashHasher keys on the leading bytes, which are uniform for real
  // (Keccak-produced) hashes.
  Hash a = Hash::FromU256(U256(0x1111, 2, 3, 4));
  Hash b = Hash::FromU256(U256(0x2222, 2, 3, 4));
  EXPECT_NE(HashHasher{}(a), HashHasher{}(b));
}

TEST(RngTest, DeterministicStreams) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  Rng c(43);
  EXPECT_NE(Rng(42).NextU64(), c.NextU64());
}

TEST(RngTest, BoundedAndDoubleRanges) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(99);
  double sum = 0;
  constexpr int kSamples = 20'000;
  for (int i = 0; i < kSamples; ++i) {
    double x = rng.NextExponential(13.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kSamples, 13.0, 0.5);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng base(5);
  Rng f1 = base.Fork(1);
  Rng f2 = base.Fork(2);
  EXPECT_NE(f1.NextU64(), f2.NextU64());
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  double a = w.ElapsedSeconds();
  double b = w.ElapsedSeconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

}  // namespace
}  // namespace frn
