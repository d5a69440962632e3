#include "src/crypto/keccak.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>

#include "src/common/rng.h"

namespace frn {
namespace {

Bytes FromString(const std::string& s) { return Bytes(s.begin(), s.end()); }

// The reference: Keccak-f[1600] in its loop form, straight from the
// specification's step mappings, and the Keccak-256 sponge around it.
void ReferenceKeccakF1600(uint64_t state[25]) {
  static constexpr uint64_t kRoundConstants[24] = {
      0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL, 0x8000000080008000ULL,
      0x000000000000808bULL, 0x0000000080000001ULL, 0x8000000080008081ULL, 0x8000000000008009ULL,
      0x000000000000008aULL, 0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
      0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL, 0x8000000000008003ULL,
      0x8000000000008002ULL, 0x8000000000000080ULL, 0x000000000000800aULL, 0x800000008000000aULL,
      0x8000000080008081ULL, 0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
  };
  static constexpr int kRhoOffsets[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55, 20, 3,  10, 43,
                                          25, 39, 41, 45, 15, 21, 8,  18, 2,  61, 56, 14};
  for (int round = 0; round < 24; ++round) {
    uint64_t c[5];
    for (int x = 0; x < 5; ++x) {
      c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
    }
    for (int x = 0; x < 5; ++x) {
      uint64_t d = c[(x + 4) % 5] ^ std::rotl(c[(x + 1) % 5], 1);
      for (int y = 0; y < 5; ++y) {
        state[x + 5 * y] ^= d;
      }
    }
    uint64_t b[25];
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        b[y + 5 * ((2 * x + 3 * y) % 5)] = std::rotl(state[x + 5 * y], kRhoOffsets[x + 5 * y]);
      }
    }
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        state[x + 5 * y] = b[x + 5 * y] ^ (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
      }
    }
    state[0] ^= kRoundConstants[round];
  }
}

Hash ReferenceKeccak256(const Bytes& data) {
  constexpr size_t kRate = 136;
  uint64_t state[25] = {0};
  Bytes padded = data;
  padded.push_back(0x01);
  padded.resize((padded.size() + kRate - 1) / kRate * kRate, 0);
  padded.back() |= 0x80;
  for (size_t block = 0; block < padded.size(); block += kRate) {
    for (size_t i = 0; i < kRate / 8; ++i) {
      uint64_t lane;
      std::memcpy(&lane, padded.data() + block + 8 * i, 8);
      state[i] ^= lane;
    }
    ReferenceKeccakF1600(state);
  }
  std::array<uint8_t, 32> out;
  std::memcpy(out.data(), state, 32);
  return Hash(out);
}

// Published Keccak-256 vectors (Ethereum's Keccak, 0x01 padding).
TEST(KeccakTest, EmptyInput) {
  EXPECT_EQ(Keccak256(Bytes{}).ToHex(),
            "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(KeccakTest, Abc) {
  EXPECT_EQ(Keccak256(FromString("abc")).ToHex(),
            "0x4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(KeccakTest, HelloWorldEthereumStyle) {
  // keccak256("hello world") — widely published Solidity test vector.
  EXPECT_EQ(Keccak256(FromString("hello world")).ToHex(),
            "0x47173285a8d7341e5e972fc677286384f802f8ef42a5ec5f03bbfa254cb01fad");
}

TEST(KeccakTest, TransferSignature) {
  // The canonical ERC-20 event topic: keccak256("Transfer(address,address,uint256)").
  EXPECT_EQ(Keccak256(FromString("Transfer(address,address,uint256)")).ToHex(),
            "0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef");
}

TEST(KeccakTest, LongInputCrossesRateBoundary) {
  // 200 bytes of 0xA3: exercises multi-block absorption (rate is 136 bytes).
  Bytes input(200, 0xA3);
  Hash h1 = Keccak256(input);
  // Same input in two spans must agree with one-shot hashing (determinism).
  Hash h2 = Keccak256(input.data(), input.size());
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, Keccak256(Bytes(199, 0xA3)));
}

TEST(KeccakTest, ExactlyOneRateBlock) {
  Bytes input(136, 0x00);
  // Exercises the case where the padding goes into a second block.
  Hash h = Keccak256(input);
  EXPECT_FALSE(h.IsZero());
  EXPECT_NE(h, Keccak256(Bytes(135, 0x00)));
  EXPECT_NE(h, Keccak256(Bytes(137, 0x00)));
}

TEST(KeccakTest, WordHelpers) {
  // keccak of 32 zero bytes (Solidity: keccak256(abi.encode(uint256(0)))).
  EXPECT_EQ(Keccak256Word(U256()).ToHex(),
            "0x290decd9548b62a8d60345a988386fc84ba6bc95484008f6362f93160ef3e563");
  // Two-word form equals hashing the 64-byte concatenation.
  Bytes buf(64, 0);
  buf[31] = 1;
  buf[63] = 2;
  EXPECT_EQ(Keccak256TwoWords(U256(1), U256(2)), Keccak256(buf));
}

TEST(KeccakTest, MappingSlotDerivation) {
  // Solidity mapping slot: keccak256(key . slot). Spot-check determinism and
  // sensitivity to both inputs.
  Hash a = Keccak256TwoWords(U256(3990300), U256(1));
  Hash b = Keccak256TwoWords(U256(3990300), U256(2));
  Hash c = Keccak256TwoWords(U256(3990301), U256(1));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, Keccak256TwoWords(U256(3990300), U256(1)));
}

TEST(KeccakTest, MatchesLoopFormOnRandomInputs) {
  // Random lengths up to three rate blocks, so the padding lands in every
  // position and inputs absorb one to four permutations.
  Rng rng(0x4B454343);
  for (int i = 0; i < 1000; ++i) {
    Bytes input(rng.NextBounded(3 * 136 + 1));
    for (uint8_t& b : input) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    ASSERT_EQ(Keccak256(input), ReferenceKeccak256(input)) << "length " << input.size();
  }
}

}  // namespace
}  // namespace frn
