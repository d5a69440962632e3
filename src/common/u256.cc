#include "src/common/u256.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace frn {

namespace {

using uint128 = unsigned __int128;

int HexDigit(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

}  // namespace

U256 U256::FromHex(std::string_view hex) {
  if (hex.size() >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
    hex.remove_prefix(2);
  }
  U256 out;
  for (char c : hex) {
    int d = HexDigit(c);
    if (d < 0) {
      continue;
    }
    out = (out << 4) | U256(static_cast<uint64_t>(d));
  }
  return out;
}

U256 U256::FromDec(std::string_view dec) {
  U256 out;
  for (char c : dec) {
    if (c < '0' || c > '9') {
      continue;
    }
    out = out * U256(10) + U256(static_cast<uint64_t>(c - '0'));
  }
  return out;
}

U256 U256::FromBigEndian(const uint8_t* data, size_t len) {
  U256 out;
  len = std::min<size_t>(len, 32);
  for (size_t i = 0; i < len; ++i) {
    out = (out << 8) | U256(static_cast<uint64_t>(data[i]));
  }
  return out;
}

int U256::BitLength() const {
  for (int i = 3; i >= 0; --i) {
    if (limbs_[i] != 0) {
      return 64 * i + (64 - std::countl_zero(limbs_[i]));
    }
  }
  return 0;
}

std::array<uint8_t, 32> U256::ToBigEndian() const {
  std::array<uint8_t, 32> out{};
  for (int i = 0; i < 32; ++i) {
    out[31 - i] = static_cast<uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

std::string U256::ToHex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string s = "0x";
  for (int i = BitLength() - 1; i >= 0; i -= 4) {
    int nibble_index = i / 4;
    uint64_t nibble = (limbs_[nibble_index / 16] >> (4 * (nibble_index % 16))) & 0xF;
    s.push_back(kDigits[nibble]);
  }
  if (s.size() == 2) {
    s.push_back('0');
  }
  return s;
}

std::string U256::ToDec() const {
  if (IsZero()) {
    return "0";
  }
  std::string s;
  U256 v = *this;
  const U256 ten(10);
  while (!v.IsZero()) {
    auto [q, r] = DivMod(v, ten);
    s.push_back(static_cast<char>('0' + r.AsUint64()));
    v = q;
  }
  std::reverse(s.begin(), s.end());
  return s;
}

bool operator<(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i];
    }
  }
  return false;
}

U256 operator+(const U256& a, const U256& b) {
  U256 out;
  uint128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    uint128 sum = static_cast<uint128>(a.limbs_[i]) + b.limbs_[i] + carry;
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = sum >> 64;
  }
  return out;
}

U256 operator-(const U256& a, const U256& b) {
  U256 out;
  uint128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    uint128 diff = static_cast<uint128>(a.limbs_[i]) - b.limbs_[i] - borrow;
    out.limbs_[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) & 1;
  }
  return out;
}

U256 operator*(const U256& a, const U256& b) {
  uint64_t result[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    uint128 carry = 0;
    for (int j = 0; i + j < 4; ++j) {
      uint128 cur = static_cast<uint128>(a.limbs_[i]) * b.limbs_[j] + result[i + j] + carry;
      result[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
  }
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs_[i] = result[i];
  }
  return out;
}

std::pair<U256, U256> U256::DivMod(const U256& a, const U256& b) {
  // Fast path: both fit in 64 bits.
  if (a.FitsUint64() && b.FitsUint64()) {
    return {U256(a.limbs_[0] / b.limbs_[0]), U256(a.limbs_[0] % b.limbs_[0])};
  }
  if (a < b) {
    return {U256(), a};
  }
  // Binary long division over the significant bits only.
  U256 quotient;
  U256 remainder;
  for (int i = a.BitLength() - 1; i >= 0; --i) {
    remainder = remainder << 1;
    if (a.Bit(i)) {
      remainder.limbs_[0] |= 1;
    }
    if (remainder >= b) {
      remainder = remainder - b;
      quotient.limbs_[i >> 6] |= (uint64_t{1} << (i & 63));
    }
  }
  return {quotient, remainder};
}

U256 operator/(const U256& a, const U256& b) {
  if (b.IsZero()) {
    return U256();
  }
  return U256::DivMod(a, b).first;
}

U256 operator%(const U256& a, const U256& b) {
  if (b.IsZero()) {
    return U256();
  }
  return U256::DivMod(a, b).second;
}

U256 operator&(const U256& a, const U256& b) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs_[i] = a.limbs_[i] & b.limbs_[i];
  }
  return out;
}

U256 operator|(const U256& a, const U256& b) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs_[i] = a.limbs_[i] | b.limbs_[i];
  }
  return out;
}

U256 operator^(const U256& a, const U256& b) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs_[i] = a.limbs_[i] ^ b.limbs_[i];
  }
  return out;
}

U256 operator~(const U256& a) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limbs_[i] = ~a.limbs_[i];
  }
  return out;
}

U256 operator<<(const U256& a, unsigned n) {
  if (n >= 256) {
    return U256();
  }
  U256 out;
  unsigned limb_shift = n / 64;
  unsigned bit_shift = n % 64;
  for (int i = 3; i >= 0; --i) {
    uint64_t v = 0;
    int src = i - static_cast<int>(limb_shift);
    if (src >= 0) {
      v = a.limbs_[src] << bit_shift;
      if (bit_shift != 0 && src - 1 >= 0) {
        v |= a.limbs_[src - 1] >> (64 - bit_shift);
      }
    }
    out.limbs_[i] = v;
  }
  return out;
}

U256 operator>>(const U256& a, unsigned n) {
  if (n >= 256) {
    return U256();
  }
  U256 out;
  unsigned limb_shift = n / 64;
  unsigned bit_shift = n % 64;
  for (int i = 0; i < 4; ++i) {
    uint64_t v = 0;
    int src = i + static_cast<int>(limb_shift);
    if (src <= 3) {
      v = a.limbs_[src] >> bit_shift;
      if (bit_shift != 0 && src + 1 <= 3) {
        v |= a.limbs_[src + 1] << (64 - bit_shift);
      }
    }
    out.limbs_[i] = v;
  }
  return out;
}

U256 U256::Sdiv(const U256& a, const U256& b) {
  if (b.IsZero()) {
    return U256();
  }
  bool neg_a = a.IsNegative();
  bool neg_b = b.IsNegative();
  U256 ua = neg_a ? a.Negate() : a;
  U256 ub = neg_b ? b.Negate() : b;
  U256 q = ua / ub;
  return (neg_a != neg_b) ? q.Negate() : q;
}

U256 U256::Smod(const U256& a, const U256& b) {
  if (b.IsZero()) {
    return U256();
  }
  bool neg_a = a.IsNegative();
  U256 ua = neg_a ? a.Negate() : a;
  U256 ub = b.IsNegative() ? b.Negate() : b;
  U256 r = ua % ub;
  return neg_a ? r.Negate() : r;
}

bool U256::Slt(const U256& a, const U256& b) {
  bool neg_a = a.IsNegative();
  bool neg_b = b.IsNegative();
  if (neg_a != neg_b) {
    return neg_a;
  }
  return a < b;
}

U256 U256::AddMod(const U256& a, const U256& b, const U256& m) {
  if (m.IsZero()) {
    return U256();
  }
  // Reduce first so the sum fits in 257 bits, then correct a single overflow.
  U256 ra = a % m;
  U256 rb = b % m;
  U256 sum = ra + rb;
  if (sum < ra || sum >= m) {
    sum = sum - m;
  }
  return sum;
}

U256 U256::MulMod(const U256& a, const U256& b, const U256& m) {
  if (m.IsZero()) {
    return U256();
  }
  // 512-bit product in 8 limbs, then binary reduction modulo m.
  uint64_t prod[8] = {0};
  for (int i = 0; i < 4; ++i) {
    uint128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      uint128 cur = static_cast<uint128>(a.limbs_[i]) * b.limbs_[j] + prod[i + j] + carry;
      prod[i + j] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
    prod[i + 4] = static_cast<uint64_t>(carry);
  }
  int top = 511;
  while (top >= 0 && ((prod[top >> 6] >> (top & 63)) & 1) == 0) {
    --top;
  }
  U256 remainder;
  for (int i = top; i >= 0; --i) {
    remainder = remainder << 1;
    if ((prod[i >> 6] >> (i & 63)) & 1) {
      remainder.limbs_[0] |= 1;
    }
    if (remainder >= m) {
      remainder = remainder - m;
    }
  }
  return remainder;
}

U256 U256::Exp(const U256& a, const U256& e) {
  U256 base = a;
  U256 result(1);
  for (int i = 0; i < e.BitLength(); ++i) {
    if (e.Bit(i)) {
      result = result * base;
    }
    base = base * base;
  }
  return result;
}

U256 U256::SignExtend(const U256& byte_index, const U256& value) {
  if (!byte_index.FitsUint64() || byte_index.AsUint64() >= 31) {
    return value;
  }
  unsigned bit = static_cast<unsigned>(byte_index.AsUint64()) * 8 + 7;
  bool sign = value.Bit(static_cast<int>(bit));
  U256 mask = (U256(1) << (bit + 1)) - U256(1);
  if (sign) {
    return value | ~mask;
  }
  return value & mask;
}

U256 U256::ByteAt(const U256& i, const U256& value) {
  if (!i.FitsUint64() || i.AsUint64() >= 32) {
    return U256();
  }
  auto bytes = value.ToBigEndian();
  return U256(static_cast<uint64_t>(bytes[i.AsUint64()]));
}

U256 U256::Sar(const U256& shift, const U256& value) {
  bool neg = value.IsNegative();
  if (!shift.FitsUint64() || shift.AsUint64() >= 256) {
    return neg ? ~U256() : U256();
  }
  unsigned n = static_cast<unsigned>(shift.AsUint64());
  U256 out = value >> n;
  if (neg && n > 0) {
    out = out | (~U256() << (256 - n));
  }
  return out;
}

size_t U256::HashValue() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 4; ++i) {
    h ^= limbs_[i];
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h);
}

}  // namespace frn
