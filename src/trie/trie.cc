#include "src/trie/trie.h"

#include <cassert>
#include <deque>

#include "src/crypto/keccak.h"
#include "src/rlp/rlp.h"

namespace frn {

namespace {

bool IsEmptyRef(const Hash& h) { return h.IsZero(); }

size_t CommonPrefixLen(const Nibbles& a, size_t a_off, const Nibbles& b, size_t b_off) {
  size_t n = 0;
  while (a_off + n < a.size() && b_off + n < b.size() && a[a_off + n] == b[b_off + n]) {
    ++n;
  }
  return n;
}

Nibbles Slice(const Nibbles& src, size_t from, size_t count) {
  return Nibbles(src.begin() + from, src.begin() + from + count);
}

void AppendHexPrefix(Bytes* out, const Nibbles& path, bool is_leaf) {
  const uint8_t flag = is_leaf ? 2 : 0;
  size_t i = 0;
  if (path.size() % 2 == 1) {
    out->push_back(static_cast<uint8_t>(((flag | 1) << 4) | path[0]));
    i = 1;
  } else {
    out->push_back(static_cast<uint8_t>(flag << 4));
  }
  for (; i < path.size(); i += 2) {
    out->push_back(static_cast<uint8_t>((path[i] << 4) | path[i + 1]));
  }
}

// A node's path as an RLP string item. The hex-prefix flag byte is below
// 0x40, so a one-byte encoding is its own item, with no header.
size_t HexPrefixItemSize(const Nibbles& path) {
  const size_t len = path.size() / 2 + 1;
  return len == 1 ? 1 : RlpEncoder::HeaderSize(len) + len;
}

void AppendHexPrefixItem(Bytes* out, const Nibbles& path, bool is_leaf) {
  const size_t len = path.size() / 2 + 1;
  if (len > 1) {
    RlpEncoder::AppendStringHeader(out, len);
  }
  AppendHexPrefix(out, path, is_leaf);
}

// A child reference is the 32-byte hash of a stored node.
constexpr size_t kRefItemSize = 33;

// A decoded Node's child references are the hashes themselves.
const Hash& SelfHash(const Hash& ref) { return ref; }

void AppendRef(Bytes* out, const Hash& ref) {
  RlpEncoder::AppendString(out, ref.bytes().data(), ref.bytes().size());
}

// Reads a child reference: exactly 32 bytes, and not the zero hash, which
// stands for an empty branch slot.
bool ReadRef(const RlpItem& item, Hash* out) {
  return RlpReader::ReadHash(item, out) && !IsEmptyRef(*out);
}

}  // namespace

Nibbles BytesToNibbles(const uint8_t* data, size_t len) {
  Nibbles out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(data[i] >> 4);
    out.push_back(data[i] & 0xF);
  }
  return out;
}

Bytes HexPrefixEncode(const Nibbles& path, bool is_leaf) {
  Bytes out;
  out.reserve(path.size() / 2 + 1);
  AppendHexPrefix(&out, path, is_leaf);
  return out;
}

bool HexPrefixDecode(const uint8_t* data, size_t len, Nibbles* path, bool* is_leaf) {
  if (len == 0) {
    return false;
  }
  const uint8_t flag = data[0] >> 4;
  const bool odd = (flag & 1) != 0;
  if (flag > 3 || (!odd && (data[0] & 0xF) != 0)) {
    return false;  // an unknown flag, or a nonzero pad nibble
  }
  *is_leaf = (flag & 2) != 0;
  path->clear();
  if (odd) {
    path->push_back(data[0] & 0xF);
  }
  for (size_t i = 1; i < len; ++i) {
    path->push_back(data[i] >> 4);
    path->push_back(data[i] & 0xF);
  }
  return true;
}

Hash Mpt::EmptyRoot() {
  static const Hash kRoot = [] {
    Bytes empty = RlpEncoder::EncodeBytes(Bytes{});
    return Keccak256(empty);
  }();
  return kRoot;
}

bool Mpt::LoadNode(const Hash& ref, Bytes* blob, Node* out) {
  return store_->GetInto(ref, blob) && DecodeNodeBlob(*blob, out);
}

bool Mpt::DecodeNodeBlob(const Bytes& blob, Node* out) {
  RlpItem list;
  if (!RlpReader::Decode(blob, &list) || !list.is_list) {
    return false;
  }
  // Every item is a string: two make a leaf or an extension, 17 a branch.
  std::array<RlpItem, 17> items;
  size_t n = 0;
  for (RlpReader reader(list); !reader.AtEnd(); ++n) {
    if (n == items.size() || !reader.Next(&items[n]) || items[n].is_list) {
      return false;
    }
  }
  if (n == 2) {
    bool is_leaf = false;
    if (!HexPrefixDecode(items[0].data, items[0].size, &out->path, &is_leaf)) {
      return false;
    }
    if (is_leaf) {
      out->kind = Node::Kind::kLeaf;
      out->value.assign(items[1].data, items[1].data + items[1].size);
      return true;
    }
    out->kind = Node::Kind::kExtension;
    out->value.clear();
    return ReadRef(items[1], &out->child);
  }
  if (n != 17) {
    return false;
  }
  out->kind = Node::Kind::kBranch;
  out->path.clear();
  for (size_t i = 0; i < 16; ++i) {
    if (items[i].size == 0) {
      out->children[i] = Hash();
    } else if (!ReadRef(items[i], &out->children[i])) {
      return false;
    }
  }
  out->value.assign(items[16].data, items[16].data + items[16].size);
  return true;
}

template <typename N, typename HashOf>
Bytes Mpt::EncodeNode(const N& node, HashOf hash_of) {
  // The items are sized first, so the list header and every item go into
  // one buffer allocated at its final size.
  size_t payload = 0;
  switch (node.kind) {
    case Node::Kind::kLeaf:
      payload = HexPrefixItemSize(node.path) +
                RlpEncoder::StringSize(node.value.data(), node.value.size());
      break;
    case Node::Kind::kExtension:
      payload = HexPrefixItemSize(node.path) + kRefItemSize;
      break;
    case Node::Kind::kBranch:
      for (const auto& child : node.children) {
        payload += IsEmptyRef(hash_of(child)) ? 1 : kRefItemSize;
      }
      payload += RlpEncoder::StringSize(node.value.data(), node.value.size());
      break;
  }
  Bytes out;
  out.reserve(RlpEncoder::HeaderSize(payload) + payload);
  RlpEncoder::AppendListHeader(&out, payload);
  switch (node.kind) {
    case Node::Kind::kLeaf:
      AppendHexPrefixItem(&out, node.path, true);
      RlpEncoder::AppendString(&out, node.value.data(), node.value.size());
      break;
    case Node::Kind::kExtension:
      AppendHexPrefixItem(&out, node.path, false);
      AppendRef(&out, hash_of(node.child));
      break;
    case Node::Kind::kBranch:
      for (const auto& child : node.children) {
        const Hash& ref = hash_of(child);
        if (IsEmptyRef(ref)) {
          RlpEncoder::AppendStringHeader(&out, 0);
        } else {
          AppendRef(&out, ref);
        }
      }
      RlpEncoder::AppendString(&out, node.value.data(), node.value.size());
      break;
  }
  return out;
}

std::optional<Bytes> Mpt::ReencodeNodeForTest(const Bytes& blob) {
  Node node;
  if (!DecodeNodeBlob(blob, &node)) {
    return std::nullopt;
  }
  return EncodeNode(node, SelfHash);
}

Hash Mpt::StoreNode(const Node& node) {
  Bytes encoded = EncodeNode(node, SelfHash);
  Hash ref = Keccak256(encoded);
  store_->Put(ref, std::move(encoded));
  return ref;
}

std::optional<Bytes> Mpt::Get(const Hash& root, const Bytes& key) {
  if (root == EmptyRoot() || IsEmptyRef(root)) {
    return std::nullopt;
  }
  const Nibbles nibbles = BytesToNibbles(key.data(), key.size());
  // One blob buffer and one decoded node serve the whole walk.
  Bytes blob;
  Node node;
  Hash ref = root;
  size_t depth = 0;
  while (LoadNode(ref, &blob, &node)) {
    switch (node.kind) {
      case Node::Kind::kLeaf:
        if (nibbles.size() - depth == node.path.size() &&
            CommonPrefixLen(nibbles, depth, node.path, 0) == node.path.size()) {
          return std::move(node.value);
        }
        return std::nullopt;
      case Node::Kind::kExtension:
        if (nibbles.size() - depth < node.path.size() ||
            CommonPrefixLen(nibbles, depth, node.path, 0) != node.path.size()) {
          return std::nullopt;
        }
        depth += node.path.size();
        ref = node.child;
        break;
      case Node::Kind::kBranch:
        if (depth == nibbles.size()) {
          if (node.value.empty()) {
            return std::nullopt;
          }
          return std::move(node.value);
        }
        ref = node.children[nibbles[depth]];
        if (IsEmptyRef(ref)) {
          return std::nullopt;
        }
        ++depth;
        break;
    }
  }
  return std::nullopt;
}

Hash Mpt::Put(const Hash& root, const Bytes& key, const Bytes& value) {
  Nibbles nibbles = BytesToNibbles(key.data(), key.size());
  Hash effective_root = (root == EmptyRoot()) ? Hash() : root;
  Hash new_ref;
  if (value.empty()) {
    if (IsEmptyRef(effective_root)) {
      return EmptyRoot();
    }
    new_ref = DeleteAt(effective_root, nibbles, 0);
  } else {
    new_ref = PutAt(effective_root, nibbles, 0, value);
  }
  return IsEmptyRef(new_ref) ? EmptyRoot() : new_ref;
}

Hash Mpt::PutAt(const Hash& ref, const Nibbles& key, size_t depth, const Bytes& value) {
  if (IsEmptyRef(ref)) {
    Node leaf;
    leaf.kind = Node::Kind::kLeaf;
    leaf.path = Slice(key, depth, key.size() - depth);
    leaf.value = value;
    return StoreNode(leaf);
  }
  Node node;
  Bytes blob;
  bool ok = LoadNode(ref, &blob, &node);
  assert(ok && "dangling trie reference");
  (void)ok;
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      size_t match = CommonPrefixLen(key, depth, node.path, 0);
      if (match == node.path.size() && depth + match == key.size()) {
        node.value = value;  // exact overwrite
        return StoreNode(node);
      }
      // Split: branch at the divergence point.
      Node branch;
      branch.kind = Node::Kind::kBranch;
      // Existing leaf goes under its next nibble (or into the value slot).
      if (match == node.path.size()) {
        branch.value = node.value;
      } else {
        Node old_leaf;
        old_leaf.kind = Node::Kind::kLeaf;
        old_leaf.path = Slice(node.path, match + 1, node.path.size() - match - 1);
        old_leaf.value = node.value;
        branch.children[node.path[match]] = StoreNode(old_leaf);
      }
      // New value likewise.
      if (depth + match == key.size()) {
        branch.value = value;
      } else {
        Node new_leaf;
        new_leaf.kind = Node::Kind::kLeaf;
        new_leaf.path = Slice(key, depth + match + 1, key.size() - depth - match - 1);
        new_leaf.value = value;
        branch.children[key[depth + match]] = StoreNode(new_leaf);
      }
      Hash branch_ref = StoreNode(branch);
      if (match == 0) {
        return branch_ref;
      }
      Node ext;
      ext.kind = Node::Kind::kExtension;
      ext.path = Slice(node.path, 0, match);
      ext.child = branch_ref;
      return StoreNode(ext);
    }
    case Node::Kind::kExtension: {
      size_t match = CommonPrefixLen(key, depth, node.path, 0);
      if (match == node.path.size()) {
        node.child = PutAt(node.child, key, depth + match, value);
        return StoreNode(node);
      }
      // Split the extension.
      Node branch;
      branch.kind = Node::Kind::kBranch;
      // Remainder of the old extension path.
      Hash old_sub;
      if (match + 1 == node.path.size()) {
        old_sub = node.child;
      } else {
        Node tail;
        tail.kind = Node::Kind::kExtension;
        tail.path = Slice(node.path, match + 1, node.path.size() - match - 1);
        tail.child = node.child;
        old_sub = StoreNode(tail);
      }
      branch.children[node.path[match]] = old_sub;
      if (depth + match == key.size()) {
        branch.value = value;
      } else {
        Node new_leaf;
        new_leaf.kind = Node::Kind::kLeaf;
        new_leaf.path = Slice(key, depth + match + 1, key.size() - depth - match - 1);
        new_leaf.value = value;
        branch.children[key[depth + match]] = StoreNode(new_leaf);
      }
      Hash branch_ref = StoreNode(branch);
      if (match == 0) {
        return branch_ref;
      }
      Node ext;
      ext.kind = Node::Kind::kExtension;
      ext.path = Slice(node.path, 0, match);
      ext.child = branch_ref;
      return StoreNode(ext);
    }
    case Node::Kind::kBranch: {
      if (depth == key.size()) {
        node.value = value;
      } else {
        uint8_t idx = key[depth];
        node.children[idx] = PutAt(node.children[idx], key, depth + 1, value);
      }
      return StoreNode(node);
    }
  }
  return Hash();
}

Hash Mpt::DeleteAt(const Hash& ref, const Nibbles& key, size_t depth) {
  Node node;
  Bytes blob;
  if (!LoadNode(ref, &blob, &node)) {
    return ref;  // key not present under a dangling ref: no change
  }
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      if (key.size() - depth == node.path.size() &&
          CommonPrefixLen(key, depth, node.path, 0) == node.path.size()) {
        return Hash();  // removed
      }
      return ref;  // not present
    }
    case Node::Kind::kExtension: {
      if (key.size() - depth < node.path.size() ||
          CommonPrefixLen(key, depth, node.path, 0) != node.path.size()) {
        return ref;
      }
      Hash new_child = DeleteAt(node.child, key, depth + node.path.size());
      if (new_child == node.child) {
        return ref;
      }
      if (IsEmptyRef(new_child)) {
        return Hash();
      }
      node.child = new_child;
      return Normalize(node);
    }
    case Node::Kind::kBranch: {
      if (depth == key.size()) {
        if (node.value.empty()) {
          return ref;
        }
        node.value.clear();
      } else {
        uint8_t idx = key[depth];
        if (IsEmptyRef(node.children[idx])) {
          return ref;
        }
        Hash new_child = DeleteAt(node.children[idx], key, depth + 1);
        if (new_child == node.children[idx]) {
          return ref;
        }
        node.children[idx] = new_child;
      }
      return Normalize(node);
    }
  }
  return ref;
}

Hash Mpt::Normalize(const Node& node) {
  Bytes blob;
  if (node.kind == Node::Kind::kBranch) {
    int live_children = 0;
    int live_index = -1;
    for (int i = 0; i < 16; ++i) {
      if (!IsEmptyRef(node.children[i])) {
        ++live_children;
        live_index = i;
      }
    }
    if (live_children == 0 && node.value.empty()) {
      return Hash();
    }
    if (live_children >= 2 || (live_children >= 1 && !node.value.empty())) {
      return StoreNode(node);
    }
    if (live_children == 0) {
      // Only the value slot remains: collapse into a leaf with empty path.
      Node leaf;
      leaf.kind = Node::Kind::kLeaf;
      leaf.value = node.value;
      return StoreNode(leaf);
    }
    // Exactly one child and no value: merge the nibble into the child.
    Node child;
    bool ok = LoadNode(node.children[live_index], &blob, &child);
    assert(ok && "dangling branch child");
    (void)ok;
    if (child.kind == Node::Kind::kBranch) {
      Node ext;
      ext.kind = Node::Kind::kExtension;
      ext.path = {static_cast<uint8_t>(live_index)};
      ext.child = node.children[live_index];
      return StoreNode(ext);
    }
    // Leaf or extension: prepend the nibble.
    child.path.insert(child.path.begin(), static_cast<uint8_t>(live_index));
    return StoreNode(child);
  }
  if (node.kind == Node::Kind::kExtension) {
    Node child;
    bool ok = LoadNode(node.child, &blob, &child);
    assert(ok && "dangling extension child");
    (void)ok;
    if (child.kind == Node::Kind::kBranch) {
      return StoreNode(node);
    }
    // Merge paths with a leaf or chained extension.
    Node merged = child;
    merged.path.insert(merged.path.begin(), node.path.begin(), node.path.end());
    return StoreNode(merged);
  }
  return StoreNode(node);
}

// Update's working tree, after Geth's trie of dirty nodes. Every stored node
// the batch reaches is loaded and decoded once into an arena; the writes then
// mutate decoded nodes, following PutAt, DeleteAt and Normalize case for case,
// and Commit encodes, hashes and emits each surviving dirty node once,
// children before parents. Dirty nodes the batch later replaces are never
// reached from the root, so they are never encoded.
class Mpt::BatchFold {
 public:
  struct Mem;
  // A subtree slot: empty (zero hash, no node), stored but not yet loaded
  // (hash only), loaded and clean (both), or dirty (node only: its hash is
  // computed by Commit).
  struct Ref {
    Hash hash;
    Mem* node = nullptr;
    bool empty() const { return node == nullptr && IsEmptyRef(hash); }
  };
  struct Mem {
    Node::Kind kind = Node::Kind::kLeaf;
    Nibbles path;
    Bytes value;
    Ref child;                     // extension
    std::array<Ref, 16> children;  // branch
    bool dirty = true;
  };

  explicit BatchFold(Mpt* trie) : trie_(trie) {}

  // Sets `key` to `value` in the subtree at `r`; false when nothing changed.
  bool Insert(Ref& r, const Nibbles& key, size_t depth, const Bytes& value) {
    if (r.empty()) {
      r = NewLeaf(Slice(key, depth, key.size() - depth), value);
      return true;
    }
    bool ok = Resolve(r);
    assert(ok && "dangling trie reference");
    (void)ok;
    Mem& n = *r.node;
    size_t match = 0;
    switch (n.kind) {
      case Node::Kind::kBranch:
        if (depth == key.size()) {
          if (n.value == value) {
            return false;
          }
          n.value = value;
        } else if (!Insert(n.children[key[depth]], key, depth + 1, value)) {
          return false;
        }
        MarkDirty(r);
        return true;
      case Node::Kind::kExtension:
        match = CommonPrefixLen(key, depth, n.path, 0);
        if (match == n.path.size()) {
          if (!Insert(n.child, key, depth + match, value)) {
            return false;
          }
          MarkDirty(r);
          return true;
        }
        break;
      case Node::Kind::kLeaf:
        match = CommonPrefixLen(key, depth, n.path, 0);
        if (match == n.path.size() && depth + match == key.size()) {
          if (n.value == value) {
            return false;
          }
          n.value = value;  // exact overwrite
          MarkDirty(r);
          return true;
        }
        break;
    }
    // Split at the divergence: a branch takes the node's remainder and the
    // new value, under an extension for the shared prefix.
    Ref branch = NewNode(Node::Kind::kBranch);
    if (match == n.path.size()) {
      branch.node->value = std::move(n.value);  // a leaf the key runs past
    } else {
      uint8_t nibble = n.path[match];
      if (n.kind == Node::Kind::kExtension && match + 1 == n.path.size()) {
        branch.node->children[nibble] = n.child;
      } else {
        n.path.erase(n.path.begin(), n.path.begin() + static_cast<std::ptrdiff_t>(match) + 1);
        MarkDirty(r);
        branch.node->children[nibble] = r;
      }
    }
    if (depth + match == key.size()) {
      branch.node->value = value;
    } else {
      branch.node->children[key[depth + match]] =
          NewLeaf(Slice(key, depth + match + 1, key.size() - depth - match - 1), value);
    }
    r = match == 0 ? branch : NewExtension(Slice(key, depth, match), branch);
    return true;
  }

  // Deletes `key` from the subtree at `r`; false when it was absent.
  bool Remove(Ref& r, const Nibbles& key, size_t depth) {
    if (r.empty() || !Resolve(r)) {
      return false;  // absent, or under a dangling ref: no change
    }
    Mem& n = *r.node;
    switch (n.kind) {
      case Node::Kind::kLeaf:
        if (key.size() - depth == n.path.size() &&
            CommonPrefixLen(key, depth, n.path, 0) == n.path.size()) {
          r = Ref();
          return true;
        }
        return false;
      case Node::Kind::kExtension:
        if (key.size() - depth < n.path.size() ||
            CommonPrefixLen(key, depth, n.path, 0) != n.path.size() ||
            !Remove(n.child, key, depth + n.path.size())) {
          return false;
        }
        if (n.child.empty()) {
          r = Ref();
          return true;
        }
        break;
      case Node::Kind::kBranch:
        if (depth == key.size()) {
          if (n.value.empty()) {
            return false;
          }
          n.value.clear();
        } else if (!Remove(n.children[key[depth]], key, depth + 1)) {
          return false;
        }
        break;
    }
    MarkDirty(r);
    Normalize(r);
    return true;
  }

  // Encodes, hashes and appends every dirty node under `r`, children first;
  // returns r's hash (zero when empty).
  Hash Commit(Ref& r, KvStore::StagedWrites* nodes) {
    if (r.node == nullptr || !r.node->dirty) {
      return r.hash;
    }
    Mem& m = *r.node;
    if (m.kind == Node::Kind::kExtension) {
      Commit(m.child, nodes);
    } else if (m.kind == Node::Kind::kBranch) {
      for (Ref& child : m.children) {
        Commit(child, nodes);
      }
    }
    Bytes encoded = EncodeNode(m, [](const Ref& child) -> const Hash& { return child.hash; });
    r.hash = Keccak256(encoded);
    m.dirty = false;
    nodes->emplace_back(r.hash, std::move(encoded));
    return r.hash;
  }

 private:
  // Loads and decodes a stored node on first reach; false if absent/corrupt.
  bool Resolve(Ref& r) {
    if (r.node != nullptr) {
      return true;
    }
    Node stored;
    if (!trie_->LoadNode(r.hash, &blob_, &stored)) {
      return false;
    }
    Mem& m = arena_.emplace_back();
    m.kind = stored.kind;
    m.path = std::move(stored.path);
    m.value = std::move(stored.value);
    m.child.hash = stored.child;
    for (int i = 0; i < 16; ++i) {
      m.children[i].hash = stored.children[i];
    }
    m.dirty = false;
    r.node = &m;
    return true;
  }

  static void MarkDirty(Ref& r) {
    r.node->dirty = true;
    r.hash = Hash();
  }

  Ref NewNode(Node::Kind kind) {
    Mem& m = arena_.emplace_back();
    m.kind = kind;
    return Ref{Hash(), &m};
  }

  Ref NewLeaf(Nibbles path, Bytes value) {
    Ref r = NewNode(Node::Kind::kLeaf);
    r.node->path = std::move(path);
    r.node->value = std::move(value);
    return r;
  }

  Ref NewExtension(Nibbles path, const Ref& child) {
    Ref r = NewNode(Node::Kind::kExtension);
    r.node->path = std::move(path);
    r.node->child = child;
    return r;
  }

  // Mpt::Normalize on a dirty node: collapses a branch left with one entry
  // and merges an extension into a leaf or extension child.
  void Normalize(Ref& r) {
    Mem& n = *r.node;
    if (n.kind == Node::Kind::kExtension) {
      bool ok = Resolve(n.child);
      assert(ok && "dangling extension child");
      (void)ok;
      if (n.child.node->kind != Node::Kind::kBranch) {
        Absorb(r, n.path, n.child);
      }
      return;
    }
    if (n.kind != Node::Kind::kBranch) {
      return;
    }
    int live_children = 0;
    int live_index = -1;
    for (int i = 0; i < 16; ++i) {
      if (!n.children[i].empty()) {
        ++live_children;
        live_index = i;
      }
    }
    if (live_children >= 2 || (live_children == 1 && !n.value.empty())) {
      return;
    }
    if (live_children == 0) {
      // Only the value slot remains (or nothing): a leaf with an empty path.
      r = n.value.empty() ? Ref() : NewLeaf({}, std::move(n.value));
      return;
    }
    // Exactly one child and no value: merge the nibble into the child.
    Ref& only = n.children[live_index];
    bool ok = Resolve(only);
    assert(ok && "dangling branch child");
    (void)ok;
    const Nibbles nibble = {static_cast<uint8_t>(live_index)};
    if (only.node->kind == Node::Kind::kBranch) {
      r = NewExtension(nibble, only);
    } else {
      Absorb(r, nibble, only);
    }
  }

  // Replaces `r` with its leaf or extension `child`, whose path gains `prefix`.
  static void Absorb(Ref& r, const Nibbles& prefix, Ref child) {
    child.node->path.insert(child.node->path.begin(), prefix.begin(), prefix.end());
    MarkDirty(child);
    r = child;
  }

  Mpt* trie_;
  std::deque<Mem> arena_;  // stable addresses: Refs point into it
  Bytes blob_;             // every node the fold loads passes through this buffer
};

Hash Mpt::Update(const Hash& root, const std::vector<TrieWrite>& batch,
                 KvStore::StagedWrites* nodes) {
  BatchFold fold(this);
  BatchFold::Ref top;
  if (root != EmptyRoot()) {
    top.hash = root;
  }
  for (const auto& [key, value] : batch) {
    Nibbles nibbles = BytesToNibbles(key.data(), key.size());
    if (value.empty()) {
      fold.Remove(top, nibbles, 0);
    } else {
      fold.Insert(top, nibbles, 0, value);
    }
  }
  Hash new_root = fold.Commit(top, nodes);
  return IsEmptyRef(new_root) ? EmptyRoot() : new_root;
}

bool Mpt::Prove(const Hash& root, const Bytes& key, std::vector<Bytes>* proof) {
  proof->clear();
  if (root == EmptyRoot() || IsEmptyRef(root)) {
    return true;  // the empty trie proves absence with an empty proof
  }
  Nibbles nibbles = BytesToNibbles(key.data(), key.size());
  Hash ref = root;
  size_t depth = 0;
  Node node;
  while (true) {
    Bytes blob;
    if (!LoadNode(ref, &blob, &node)) {
      return false;
    }
    proof->push_back(std::move(blob));
    switch (node.kind) {
      case Node::Kind::kLeaf:
        return true;  // terminates (match or divergence both prove something)
      case Node::Kind::kExtension: {
        if (nibbles.size() - depth < node.path.size() ||
            CommonPrefixLen(nibbles, depth, node.path, 0) != node.path.size()) {
          return true;  // divergence proves absence
        }
        depth += node.path.size();
        ref = node.child;
        break;
      }
      case Node::Kind::kBranch: {
        if (depth == nibbles.size()) {
          return true;
        }
        const Hash& child = node.children[nibbles[depth]];
        if (IsEmptyRef(child)) {
          return true;  // empty child proves absence
        }
        ++depth;
        ref = child;
        break;
      }
    }
  }
}

bool Mpt::VerifyProof(const Hash& root, const Bytes& key, const std::vector<Bytes>& proof,
                      std::optional<Bytes>* value) {
  *value = std::nullopt;
  if (proof.empty()) {
    return root == EmptyRoot() || IsEmptyRef(root);  // valid only for the empty trie
  }
  Nibbles nibbles = BytesToNibbles(key.data(), key.size());
  Hash expected = root;
  size_t depth = 0;
  for (size_t i = 0; i < proof.size(); ++i) {
    if (!(Keccak256(proof[i]) == expected)) {
      return false;  // blob does not hash to the committed reference
    }
    Node node;
    if (!DecodeNodeBlob(proof[i], &node)) {
      return false;
    }
    bool is_last = (i + 1 == proof.size());
    switch (node.kind) {
      case Node::Kind::kLeaf: {
        if (!is_last) {
          return false;
        }
        if (nibbles.size() - depth == node.path.size() &&
            CommonPrefixLen(nibbles, depth, node.path, 0) == node.path.size()) {
          *value = node.value;
        }
        return true;  // a divergent leaf proves absence
      }
      case Node::Kind::kExtension: {
        if (nibbles.size() - depth < node.path.size() ||
            CommonPrefixLen(nibbles, depth, node.path, 0) != node.path.size()) {
          return is_last;  // divergence proves absence, but must terminate
        }
        depth += node.path.size();
        expected = node.child;
        if (is_last) {
          return false;  // proof stops before the promised child
        }
        break;
      }
      case Node::Kind::kBranch: {
        if (depth == nibbles.size()) {
          if (!is_last) {
            return false;
          }
          if (!node.value.empty()) {
            *value = node.value;
          }
          return true;
        }
        const Hash& child = node.children[nibbles[depth]];
        if (IsEmptyRef(child)) {
          return is_last;  // empty slot proves absence
        }
        ++depth;
        expected = child;
        if (is_last) {
          return false;
        }
        break;
      }
    }
  }
  return false;
}

}  // namespace frn
