#include "src/crypto/keccak.h"

#include <bit>
#include <cstring>

namespace frn {

namespace {

constexpr int kRounds = 24;
constexpr size_t kRateBytes = 136;  // 1088-bit rate for Keccak-256

constexpr uint64_t kRoundConstants[kRounds] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL, 0x8000000080008000ULL,
    0x000000000000808bULL, 0x0000000080000001ULL, 0x8000000080008081ULL, 0x8000000000008009ULL,
    0x000000000000008aULL, 0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL, 0x8000000000008003ULL,
    0x8000000000008002ULL, 0x8000000000000080ULL, 0x000000000000800aULL, 0x800000008000000aULL,
    0x8000000080008081ULL, 0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

// Keccak-f[1600] with every step mapping written out lane by lane, so each
// index and rotation is a constant: the loop form ran about four times
// slower at -O2, where GCC does not unroll it, and no faster at -O3. Lane
// (x, y) is s[x + 5y]; the round loop is the only loop.
void KeccakF1600(uint64_t s[25]) {
  for (int round = 0; round < kRounds; ++round) {
    uint64_t c[5], d[5], b[25];
    // Theta.
    c[0] = s[0] ^ s[5] ^ s[10] ^ s[15] ^ s[20];
    c[1] = s[1] ^ s[6] ^ s[11] ^ s[16] ^ s[21];
    c[2] = s[2] ^ s[7] ^ s[12] ^ s[17] ^ s[22];
    c[3] = s[3] ^ s[8] ^ s[13] ^ s[18] ^ s[23];
    c[4] = s[4] ^ s[9] ^ s[14] ^ s[19] ^ s[24];
    d[0] = c[4] ^ std::rotl(c[1], 1);
    d[1] = c[0] ^ std::rotl(c[2], 1);
    d[2] = c[1] ^ std::rotl(c[3], 1);
    d[3] = c[2] ^ std::rotl(c[4], 1);
    d[4] = c[3] ^ std::rotl(c[0], 1);
    s[0] ^= d[0]; s[1] ^= d[1]; s[2] ^= d[2]; s[3] ^= d[3]; s[4] ^= d[4];
    s[5] ^= d[0]; s[6] ^= d[1]; s[7] ^= d[2]; s[8] ^= d[3]; s[9] ^= d[4];
    s[10] ^= d[0]; s[11] ^= d[1]; s[12] ^= d[2]; s[13] ^= d[3]; s[14] ^= d[4];
    s[15] ^= d[0]; s[16] ^= d[1]; s[17] ^= d[2]; s[18] ^= d[3]; s[19] ^= d[4];
    s[20] ^= d[0]; s[21] ^= d[1]; s[22] ^= d[2]; s[23] ^= d[3]; s[24] ^= d[4];
    // Rho and pi: lane (x, y) moves to (y, 2x + 3y), rotated by its offset.
    b[0] = s[0];
    b[10] = std::rotl(s[1], 1);
    b[20] = std::rotl(s[2], 62);
    b[5] = std::rotl(s[3], 28);
    b[15] = std::rotl(s[4], 27);
    b[16] = std::rotl(s[5], 36);
    b[1] = std::rotl(s[6], 44);
    b[11] = std::rotl(s[7], 6);
    b[21] = std::rotl(s[8], 55);
    b[6] = std::rotl(s[9], 20);
    b[7] = std::rotl(s[10], 3);
    b[17] = std::rotl(s[11], 10);
    b[2] = std::rotl(s[12], 43);
    b[12] = std::rotl(s[13], 25);
    b[22] = std::rotl(s[14], 39);
    b[23] = std::rotl(s[15], 41);
    b[8] = std::rotl(s[16], 45);
    b[18] = std::rotl(s[17], 15);
    b[3] = std::rotl(s[18], 21);
    b[13] = std::rotl(s[19], 8);
    b[14] = std::rotl(s[20], 18);
    b[24] = std::rotl(s[21], 2);
    b[9] = std::rotl(s[22], 61);
    b[19] = std::rotl(s[23], 56);
    b[4] = std::rotl(s[24], 14);
    // Chi.
    s[0] = b[0] ^ (~b[1] & b[2]);
    s[1] = b[1] ^ (~b[2] & b[3]);
    s[2] = b[2] ^ (~b[3] & b[4]);
    s[3] = b[3] ^ (~b[4] & b[0]);
    s[4] = b[4] ^ (~b[0] & b[1]);
    s[5] = b[5] ^ (~b[6] & b[7]);
    s[6] = b[6] ^ (~b[7] & b[8]);
    s[7] = b[7] ^ (~b[8] & b[9]);
    s[8] = b[8] ^ (~b[9] & b[5]);
    s[9] = b[9] ^ (~b[5] & b[6]);
    s[10] = b[10] ^ (~b[11] & b[12]);
    s[11] = b[11] ^ (~b[12] & b[13]);
    s[12] = b[12] ^ (~b[13] & b[14]);
    s[13] = b[13] ^ (~b[14] & b[10]);
    s[14] = b[14] ^ (~b[10] & b[11]);
    s[15] = b[15] ^ (~b[16] & b[17]);
    s[16] = b[16] ^ (~b[17] & b[18]);
    s[17] = b[17] ^ (~b[18] & b[19]);
    s[18] = b[18] ^ (~b[19] & b[15]);
    s[19] = b[19] ^ (~b[15] & b[16]);
    s[20] = b[20] ^ (~b[21] & b[22]);
    s[21] = b[21] ^ (~b[22] & b[23]);
    s[22] = b[22] ^ (~b[23] & b[24]);
    s[23] = b[23] ^ (~b[24] & b[20]);
    s[24] = b[24] ^ (~b[20] & b[21]);
    // Iota.
    s[0] ^= kRoundConstants[round];
  }
}

}  // namespace

Hash Keccak256(const uint8_t* data, size_t len) {
  uint64_t state[25] = {0};
  // Absorb full blocks.
  while (len >= kRateBytes) {
    for (size_t i = 0; i < kRateBytes / 8; ++i) {
      uint64_t lane;
      std::memcpy(&lane, data + 8 * i, 8);
      state[i] ^= lane;
    }
    KeccakF1600(state);
    data += kRateBytes;
    len -= kRateBytes;
  }
  // Final partial block with 0x01...0x80 padding. Empty input reaches here
  // with data == nullptr; passing that to memcpy is UB even for len == 0.
  uint8_t block[kRateBytes] = {0};
  if (len > 0) {
    std::memcpy(block, data, len);
  }
  block[len] = 0x01;
  block[kRateBytes - 1] |= 0x80;
  for (size_t i = 0; i < kRateBytes / 8; ++i) {
    uint64_t lane;
    std::memcpy(&lane, block + 8 * i, 8);
    state[i] ^= lane;
  }
  KeccakF1600(state);
  // Squeeze the first 32 bytes.
  std::array<uint8_t, 32> out;
  std::memcpy(out.data(), state, 32);
  return Hash(out);
}

Hash Keccak256(const Bytes& data) { return Keccak256(data.data(), data.size()); }

Hash Keccak256Word(const U256& word) {
  auto be = word.ToBigEndian();
  return Keccak256(be.data(), be.size());
}

Hash Keccak256TwoWords(const U256& a, const U256& b) {
  uint8_t buf[64];
  auto be_a = a.ToBigEndian();
  auto be_b = b.ToBigEndian();
  std::memcpy(buf, be_a.data(), 32);
  std::memcpy(buf + 32, be_b.data(), 32);
  return Keccak256(buf, 64);
}

}  // namespace frn
