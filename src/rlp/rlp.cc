#include "src/rlp/rlp.h"

#include <algorithm>

namespace frn {

namespace {

// A header's first byte is `offset` plus the payload length when that is
// under 56; past that, offset + 55 plus the number of big-endian length bytes
// that follow it.
void AppendHeader(Bytes* out, size_t len, uint8_t offset) {
  if (len < 56) {
    out->push_back(static_cast<uint8_t>(offset + len));
    return;
  }
  const int n = static_cast<int>(RlpEncoder::HeaderSize(len)) - 1;
  out->push_back(static_cast<uint8_t>(offset + 55 + n));
  for (int i = n - 1; i >= 0; --i) {
    out->push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
}

bool IsOwnEncoding(const uint8_t* data, size_t len) { return len == 1 && data[0] < 0x80; }

// The minimal big-endian byte length of an integer.
size_t UintLength(const U256& value) { return static_cast<size_t>(value.BitLength() + 7) / 8; }

}  // namespace

size_t RlpEncoder::HeaderSize(size_t len) {
  size_t size = 1;
  if (len >= 56) {
    for (; len != 0; len >>= 8) {
      ++size;
    }
  }
  return size;
}

size_t RlpEncoder::StringSize(const uint8_t* data, size_t len) {
  return IsOwnEncoding(data, len) ? 1 : HeaderSize(len) + len;
}

size_t RlpEncoder::UintSize(const U256& value) {
  const size_t len = UintLength(value);
  return len == 1 && value.AsUint64() < 0x80 ? 1 : 1 + len;
}

void RlpEncoder::AppendStringHeader(Bytes* out, size_t len) { AppendHeader(out, len, 0x80); }

void RlpEncoder::AppendListHeader(Bytes* out, size_t payload_len) {
  AppendHeader(out, payload_len, 0xc0);
}

void RlpEncoder::AppendString(Bytes* out, const uint8_t* data, size_t len) {
  if (!IsOwnEncoding(data, len)) {
    AppendStringHeader(out, len);
  }
  out->insert(out->end(), data, data + len);
}

void RlpEncoder::AppendUint(Bytes* out, const U256& value) {
  const std::array<uint8_t, 32> be = value.ToBigEndian();
  const size_t len = UintLength(value);
  AppendString(out, be.data() + (32 - len), len);
}

Bytes RlpEncoder::EncodeBytes(const Bytes& data) {
  Bytes out;
  out.reserve(StringSize(data.data(), data.size()));
  AppendString(&out, data.data(), data.size());
  return out;
}

Bytes RlpEncoder::EncodeUint(const U256& value) {
  Bytes out;
  out.reserve(UintSize(value));
  AppendUint(&out, value);
  return out;
}

bool RlpReader::Next(RlpItem* item) {
  const size_t avail = static_cast<size_t>(end_ - pos_);
  if (avail == 0) {
    return false;
  }
  const uint8_t prefix = pos_[0];
  if (prefix < 0x80) {
    *item = RlpItem{false, pos_, 1};
    ++pos_;
    return true;
  }
  const bool is_list = prefix >= 0xc0;
  size_t len = prefix - (is_list ? 0xc0 : 0x80);
  size_t header = 1;
  if (len > 55) {
    // Long form: the next len - 55 bytes (1 to 8) hold the payload length.
    const size_t n = len - 55;
    if (avail <= n || pos_[1] == 0) {
      return false;  // truncated, or a leading zero length byte
    }
    len = 0;
    for (size_t i = 1; i <= n; ++i) {
      len = (len << 8) | pos_[i];
    }
    if (len < 56) {
      return false;  // the short form was required
    }
    header += n;
  }
  if (avail - header < len) {
    return false;
  }
  if (!is_list && IsOwnEncoding(pos_ + header, len)) {
    return false;  // a single byte below 0x80 has no header
  }
  *item = RlpItem{is_list, pos_ + header, len};
  pos_ += header + len;
  return true;
}

bool RlpReader::Decode(const Bytes& data, RlpItem* item) {
  RlpReader reader(data);
  return reader.Next(item) && reader.AtEnd();
}

bool RlpReader::ReadUint(const RlpItem& item, size_t max_len, U256* out) {
  if (item.is_list || item.size > max_len || (item.size > 0 && item.data[0] == 0)) {
    return false;
  }
  *out = U256::FromBigEndian(item.data, item.size);
  return true;
}

bool RlpReader::ReadHash(const RlpItem& item, Hash* out) {
  if (item.is_list || item.size != 32) {
    return false;
  }
  std::array<uint8_t, 32> bytes;
  std::copy(item.data, item.data + 32, bytes.begin());
  *out = Hash(bytes);
  return true;
}

}  // namespace frn
