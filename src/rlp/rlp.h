// Recursive Length Prefix (RLP) encoding per the Ethereum Yellow Paper,
// appendix B. Used to serialize accounts and trie nodes so that trie roots are
// computed over canonical byte strings.
#ifndef SRC_RLP_RLP_H_
#define SRC_RLP_RLP_H_

#include "src/common/types.h"

namespace frn {

// RLP writer. A caller sizes its items first, reserves one buffer and then
// appends headers and items into it; nested lists are written header first,
// since a list header needs only its payload's size.
class RlpEncoder {
 public:
  // Size of the header announcing a `len`-byte string or list payload.
  static size_t HeaderSize(size_t len);
  // Encoded size of a byte string item (a single byte below 0x80 is its own
  // encoding, with no header).
  static size_t StringSize(const uint8_t* data, size_t len);
  // Encoded size of an integer item (see AppendUint).
  static size_t UintSize(const U256& value);

  static void AppendStringHeader(Bytes* out, size_t len);
  static void AppendListHeader(Bytes* out, size_t payload_len);
  static void AppendString(Bytes* out, const uint8_t* data, size_t len);
  // Appends an integer as a big-endian byte string with no leading zeros
  // (the canonical RLP integer form; zero encodes as the empty string).
  static void AppendUint(Bytes* out, const U256& value);

  // One string or integer item in a buffer of its own.
  static Bytes EncodeBytes(const Bytes& data);
  static Bytes EncodeUint(const U256& value);
};

// One RLP item, viewed in place: `data` points into the decoded buffer.
struct RlpItem {
  bool is_list = false;
  const uint8_t* data = nullptr;  // the string's bytes, or the list's payload
  size_t size = 0;
};

// RLP reader. It walks a buffer's items in place, copying and allocating
// nothing, so the buffer must outlive every RlpItem read from it. A list
// item's items are walked by a reader over that item. Input is held to
// canonical form, as Geth's rlp package does: a single byte below 0x80 must
// be its own encoding, a payload under 56 bytes must use the short header,
// and a long header's length has no leading zero bytes.
class RlpReader {
 public:
  RlpReader(const uint8_t* data, size_t len) : pos_(data), end_(data + len) {}
  explicit RlpReader(const Bytes& data) : RlpReader(data.data(), data.size()) {}
  explicit RlpReader(Bytes&&) = delete;  // its items would point into a temporary
  // Walks the items of `list`.
  explicit RlpReader(const RlpItem& list) : RlpReader(list.data, list.size) {}

  // Reads the next item and moves past it; false at the end of the input or
  // on a truncated or non-canonical item (the reader then stays put).
  bool Next(RlpItem* item);
  bool AtEnd() const { return pos_ == end_; }

  // Reads `data` as exactly one item; false when it is malformed or trailed
  // by more bytes.
  static bool Decode(const Bytes& data, RlpItem* item);
  static bool Decode(Bytes&&, RlpItem*) = delete;

  // Reads an integer item: a string of at most `max_len` bytes with no
  // leading zero byte, the canonical form AppendUint writes.
  static bool ReadUint(const RlpItem& item, size_t max_len, U256* out);
  // Reads a 32-byte string item.
  static bool ReadHash(const RlpItem& item, Hash* out);

 private:
  const uint8_t* pos_;
  const uint8_t* end_;
};

}  // namespace frn

#endif  // SRC_RLP_RLP_H_
