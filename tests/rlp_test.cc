#include "src/rlp/rlp.h"

#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.h"

namespace frn {
namespace {

Bytes FromString(const std::string& s) { return Bytes(s.begin(), s.end()); }

// A list of already-encoded items, written header first.
Bytes EncodeList(const std::vector<Bytes>& encoded_items) {
  size_t payload = 0;
  for (const Bytes& item : encoded_items) {
    payload += item.size();
  }
  Bytes out;
  RlpEncoder::AppendListHeader(&out, payload);
  for (const Bytes& item : encoded_items) {
    out.insert(out.end(), item.begin(), item.end());
  }
  return out;
}

Bytes Payload(const RlpItem& item) { return Bytes(item.data, item.data + item.size); }

// Reads every item of `list`; false on malformed input.
bool ReadItems(const RlpItem& list, std::vector<RlpItem>* items) {
  RlpReader reader(list);
  while (!reader.AtEnd()) {
    if (!reader.Next(&items->emplace_back())) {
      return false;
    }
  }
  return true;
}

// Canonical examples from the Ethereum wiki / Yellow Paper appendix B.
TEST(RlpTest, SingleByteBelow0x80IsItself) {
  EXPECT_EQ(RlpEncoder::EncodeBytes(Bytes{0x7f}), (Bytes{0x7f}));
  EXPECT_EQ(RlpEncoder::EncodeBytes(Bytes{0x00}), (Bytes{0x00}));
}

TEST(RlpTest, EmptyString) { EXPECT_EQ(RlpEncoder::EncodeBytes(Bytes{}), (Bytes{0x80})); }

TEST(RlpTest, Dog) {
  EXPECT_EQ(RlpEncoder::EncodeBytes(FromString("dog")), (Bytes{0x83, 'd', 'o', 'g'}));
}

TEST(RlpTest, CatDogList) {
  std::vector<Bytes> items = {RlpEncoder::EncodeBytes(FromString("cat")),
                              RlpEncoder::EncodeBytes(FromString("dog"))};
  EXPECT_EQ(EncodeList(items), (Bytes{0xc8, 0x83, 'c', 'a', 't', 0x83, 'd', 'o', 'g'}));
}

TEST(RlpTest, EmptyList) { EXPECT_EQ(EncodeList({}), (Bytes{0xc0})); }

TEST(RlpTest, LongString) {
  // "Lorem ipsum dolor sit amet, consectetur adipisicing elit" (56 chars)
  std::string s = "Lorem ipsum dolor sit amet, consectetur adipisicing elit";
  Bytes encoded = RlpEncoder::EncodeBytes(FromString(s));
  ASSERT_EQ(encoded[0], 0xb8);
  ASSERT_EQ(encoded[1], 56);
  EXPECT_EQ(encoded.size(), 58u);
  EXPECT_EQ(RlpEncoder::StringSize(FromString(s).data(), s.size()), 58u);
  // A list payload of 56 bytes or more takes the long header too.
  Bytes list = EncodeList({encoded});
  EXPECT_EQ(list[0], 0xf8);
  EXPECT_EQ(list[1], 58);
  EXPECT_EQ(RlpEncoder::HeaderSize(58), 2u);
}

TEST(RlpTest, IntegerEncodings) {
  EXPECT_EQ(RlpEncoder::EncodeUint(uint64_t{0}), (Bytes{0x80}));
  EXPECT_EQ(RlpEncoder::EncodeUint(uint64_t{15}), (Bytes{0x0f}));
  EXPECT_EQ(RlpEncoder::EncodeUint(uint64_t{1024}), (Bytes{0x82, 0x04, 0x00}));
  for (uint64_t v : {0ULL, 15ULL, 0x7fULL, 0x80ULL, 1024ULL, ~0ULL}) {
    EXPECT_EQ(RlpEncoder::UintSize(v), RlpEncoder::EncodeUint(v).size()) << v;
  }
}

TEST(RlpTest, DecodeRoundTripString) {
  Bytes payload = FromString("hello rlp world, longer than one byte");
  Bytes encoded = RlpEncoder::EncodeBytes(payload);
  RlpItem item;
  ASSERT_TRUE(RlpReader::Decode(encoded, &item));
  EXPECT_FALSE(item.is_list);
  EXPECT_EQ(Payload(item), payload);
  // In place: the item points into the encoded buffer.
  EXPECT_EQ(item.data, encoded.data() + 1);
}

TEST(RlpTest, DecodeRoundTripNestedList) {
  std::vector<Bytes> inner = {RlpEncoder::EncodeBytes(FromString("a")),
                              RlpEncoder::EncodeBytes(FromString("b"))};
  std::vector<Bytes> outer = {EncodeList(inner), RlpEncoder::EncodeBytes(FromString("c"))};
  Bytes encoded = EncodeList(outer);
  RlpItem item;
  ASSERT_TRUE(RlpReader::Decode(encoded, &item));
  ASSERT_TRUE(item.is_list);
  std::vector<RlpItem> children;
  ASSERT_TRUE(ReadItems(item, &children));
  ASSERT_EQ(children.size(), 2u);
  ASSERT_TRUE(children[0].is_list);
  std::vector<RlpItem> grandchildren;
  ASSERT_TRUE(ReadItems(children[0], &grandchildren));
  ASSERT_EQ(grandchildren.size(), 2u);
  EXPECT_EQ(Payload(grandchildren[0]), FromString("a"));
  EXPECT_EQ(Payload(children[1]), FromString("c"));
}

TEST(RlpTest, DecodeRejectsTruncatedInput) {
  Bytes encoded = RlpEncoder::EncodeBytes(FromString("dog"));
  encoded.pop_back();
  RlpItem item;
  EXPECT_FALSE(RlpReader::Decode(encoded, &item));
  // A list whose header promises more than its items hold.
  Bytes list = EncodeList({RlpEncoder::EncodeBytes(FromString("dog"))});
  list.pop_back();
  EXPECT_FALSE(RlpReader::Decode(list, &item));
}

TEST(RlpTest, DecodeRejectsTrailingGarbage) {
  Bytes encoded = RlpEncoder::EncodeBytes(FromString("dog"));
  encoded.push_back(0x00);
  RlpItem item;
  EXPECT_FALSE(RlpReader::Decode(encoded, &item));
}

// Canonical form, as Geth's rlp package requires: each of these decodes to
// a value that has a shorter (or the only) encoding.
TEST(RlpTest, DecodeRejectsNonCanonicalHeaders) {
  const std::vector<Bytes> bad = {
      {0x81, 0x05},                    // a byte below 0x80 with a header
      {0xb8, 0x03, 'd', 'o', 'g'},     // long string form for a short payload
      {0xf8, 0x01, 0x80},              // long list form for a short payload
      {0xb9, 0x00, 0x38},              // a length with a leading zero byte
      {0xbf},                          // a length cut off
  };
  for (const Bytes& input : bad) {
    RlpItem item;
    EXPECT_FALSE(RlpReader::Decode(input, &item)) << BytesToHex(input);
  }
  const Bytes canonical = {0x81, 0x80};  // 0x80 needs its header
  RlpItem item;
  ASSERT_TRUE(RlpReader::Decode(canonical, &item));
  EXPECT_EQ(Payload(item), (Bytes{0x80}));
}

TEST(RlpTest, ReadUintRequiresCanonicalIntegers) {
  const Bytes leading_zero = {0x82, 0x00, 0x01};
  const Bytes canonical = {0x82, 0x01, 0x00};
  RlpItem item;
  U256 value;
  ASSERT_TRUE(RlpReader::Decode(leading_zero, &item));
  EXPECT_FALSE(RlpReader::ReadUint(item, 32, &value));
  ASSERT_TRUE(RlpReader::Decode(canonical, &item));
  EXPECT_FALSE(RlpReader::ReadUint(item, 1, &value));  // longer than allowed
  ASSERT_TRUE(RlpReader::ReadUint(item, 32, &value));
  EXPECT_EQ(value, U256(256));
  Hash hash;
  EXPECT_FALSE(RlpReader::ReadHash(item, &hash));  // not 32 bytes
}

// Property sweep: random strings and flat lists round-trip.
class RlpRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(RlpRoundTripProperty, RandomStringsRoundTrip) {
  Rng rng(0x1210 + GetParam());
  for (int i = 0; i < 100; ++i) {
    size_t len = rng.NextBounded(300);
    Bytes payload(len);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    Bytes encoded = RlpEncoder::EncodeBytes(payload);
    EXPECT_EQ(encoded.size(), RlpEncoder::StringSize(payload.data(), payload.size()));
    RlpItem item;
    ASSERT_TRUE(RlpReader::Decode(encoded, &item));
    EXPECT_FALSE(item.is_list);
    EXPECT_EQ(Payload(item), payload);
  }
}

TEST_P(RlpRoundTripProperty, RandomListsRoundTrip) {
  Rng rng(0xBEEF + GetParam());
  for (int i = 0; i < 50; ++i) {
    size_t n = rng.NextBounded(20);
    std::vector<Bytes> raw;
    std::vector<Bytes> encoded_items;
    for (size_t j = 0; j < n; ++j) {
      size_t len = rng.NextBounded(80);
      Bytes payload(len);
      for (auto& b : payload) {
        b = static_cast<uint8_t>(rng.NextU64());
      }
      raw.push_back(payload);
      encoded_items.push_back(RlpEncoder::EncodeBytes(payload));
    }
    Bytes encoded = EncodeList(encoded_items);
    RlpItem item;
    ASSERT_TRUE(RlpReader::Decode(encoded, &item));
    ASSERT_TRUE(item.is_list);
    std::vector<RlpItem> children;
    ASSERT_TRUE(ReadItems(item, &children));
    ASSERT_EQ(children.size(), n);
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(Payload(children[j]), raw[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RlpRoundTripProperty, ::testing::Range(0, 4));

TEST(RlpTest, U256IntegerCanonical) {
  // No leading zeros in the canonical integer encoding.
  U256 v = U256::FromHex("0x00ff");
  Bytes encoded = RlpEncoder::EncodeUint(v);
  EXPECT_EQ(encoded, (Bytes{0x81, 0xff}));
}

}  // namespace
}  // namespace frn
