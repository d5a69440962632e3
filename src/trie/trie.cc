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
  uint8_t flag = is_leaf ? 2 : 0;
  if (path.size() % 2 == 1) {
    out.push_back(static_cast<uint8_t>(((flag | 1) << 4) | path[0]));
    for (size_t i = 1; i < path.size(); i += 2) {
      out.push_back(static_cast<uint8_t>((path[i] << 4) | path[i + 1]));
    }
  } else {
    out.push_back(static_cast<uint8_t>(flag << 4));
    for (size_t i = 0; i < path.size(); i += 2) {
      out.push_back(static_cast<uint8_t>((path[i] << 4) | path[i + 1]));
    }
  }
  return out;
}

Nibbles HexPrefixDecode(const Bytes& encoded, bool* is_leaf) {
  Nibbles out;
  if (encoded.empty()) {
    *is_leaf = false;
    return out;
  }
  uint8_t flag = encoded[0] >> 4;
  *is_leaf = (flag & 2) != 0;
  if (flag & 1) {
    out.push_back(encoded[0] & 0xF);
  }
  for (size_t i = 1; i < encoded.size(); ++i) {
    out.push_back(encoded[i] >> 4);
    out.push_back(encoded[i] & 0xF);
  }
  return out;
}

Hash Mpt::EmptyRoot() {
  static const Hash kRoot = [] {
    Bytes empty = RlpEncoder::EncodeBytes(Bytes{});
    return Keccak256(empty);
  }();
  return kRoot;
}

bool Mpt::LoadNode(const Hash& ref, Node* out) {
  auto blob = store_->Get(ref);
  if (!blob) {
    return false;
  }
  return DecodeNodeBlob(*blob, out);
}

bool Mpt::DecodeNodeBlob(const Bytes& blob, Node* out) {
  RlpDecoder::Item item;
  if (!RlpDecoder::Decode(blob, &item) || !item.is_list) {
    return false;
  }
  if (item.children.size() == 2) {
    bool is_leaf = false;
    out->path = HexPrefixDecode(item.children[0].payload, &is_leaf);
    if (is_leaf) {
      out->kind = Node::Kind::kLeaf;
      out->value = item.children[1].payload;
    } else {
      out->kind = Node::Kind::kExtension;
      std::array<uint8_t, 32> h{};
      if (item.children[1].payload.size() == 32) {
        std::copy(item.children[1].payload.begin(), item.children[1].payload.end(), h.begin());
      }
      out->child = Hash(h);
    }
    return true;
  }
  if (item.children.size() == 17) {
    out->kind = Node::Kind::kBranch;
    for (int i = 0; i < 16; ++i) {
      std::array<uint8_t, 32> h{};
      if (item.children[i].payload.size() == 32) {
        std::copy(item.children[i].payload.begin(), item.children[i].payload.end(), h.begin());
      }
      out->children[i] = Hash(h);
    }
    out->value = item.children[16].payload;
    return true;
  }
  return false;
}

Bytes Mpt::EncodeNode(const Node& node) {
  std::vector<Bytes> items;
  switch (node.kind) {
    case Node::Kind::kLeaf:
      items.push_back(RlpEncoder::EncodeBytes(HexPrefixEncode(node.path, true)));
      items.push_back(RlpEncoder::EncodeBytes(node.value));
      break;
    case Node::Kind::kExtension: {
      items.push_back(RlpEncoder::EncodeBytes(HexPrefixEncode(node.path, false)));
      const auto& b = node.child.bytes();
      items.push_back(RlpEncoder::EncodeBytes(b.data(), b.size()));
      break;
    }
    case Node::Kind::kBranch:
      for (int i = 0; i < 16; ++i) {
        if (IsEmptyRef(node.children[i])) {
          items.push_back(RlpEncoder::EncodeBytes(Bytes{}));
        } else {
          const auto& b = node.children[i].bytes();
          items.push_back(RlpEncoder::EncodeBytes(b.data(), b.size()));
        }
      }
      items.push_back(RlpEncoder::EncodeBytes(node.value));
      break;
  }
  return RlpEncoder::EncodeList(items);
}

Hash Mpt::StoreNode(const Node& node) {
  Bytes encoded = EncodeNode(node);
  Hash ref = Keccak256(encoded);
  store_->Put(ref, std::move(encoded));
  return ref;
}

std::optional<Bytes> Mpt::Get(const Hash& root, const Bytes& key) {
  if (root == EmptyRoot() || IsEmptyRef(root)) {
    return std::nullopt;
  }
  Nibbles nibbles = BytesToNibbles(key.data(), key.size());
  return GetAt(root, nibbles, 0);
}

std::optional<Bytes> Mpt::GetAt(const Hash& ref, const Nibbles& key, size_t depth) {
  Node node;
  if (!LoadNode(ref, &node)) {
    return std::nullopt;
  }
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      if (key.size() - depth == node.path.size() &&
          CommonPrefixLen(key, depth, node.path, 0) == node.path.size()) {
        return node.value;
      }
      return std::nullopt;
    }
    case Node::Kind::kExtension: {
      if (key.size() - depth < node.path.size() ||
          CommonPrefixLen(key, depth, node.path, 0) != node.path.size()) {
        return std::nullopt;
      }
      return GetAt(node.child, key, depth + node.path.size());
    }
    case Node::Kind::kBranch: {
      if (depth == key.size()) {
        if (node.value.empty()) {
          return std::nullopt;
        }
        return node.value;
      }
      const Hash& child = node.children[key[depth]];
      if (IsEmptyRef(child)) {
        return std::nullopt;
      }
      return GetAt(child, key, depth + 1);
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
  bool ok = LoadNode(ref, &node);
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
  if (!LoadNode(ref, &node)) {
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
    bool ok = LoadNode(node.children[live_index], &child);
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
    bool ok = LoadNode(node.child, &child);
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
    Node node;
    node.kind = m.kind;
    node.path = std::move(m.path);
    node.value = std::move(m.value);
    if (m.kind == Node::Kind::kExtension) {
      node.child = Commit(m.child, nodes);
    } else if (m.kind == Node::Kind::kBranch) {
      for (int i = 0; i < 16; ++i) {
        node.children[i] = Commit(m.children[i], nodes);
      }
    }
    Bytes encoded = EncodeNode(node);
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
    if (!trie_->LoadNode(r.hash, &stored)) {
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

std::optional<Bytes> Mpt::Prefetch(const Hash& root, const Bytes& key) {
  // A plain Get already heats every node on the path via KvStore::Get.
  return Get(root, key);
}

bool Mpt::Prove(const Hash& root, const Bytes& key, std::vector<Bytes>* proof) {
  proof->clear();
  if (root == EmptyRoot() || IsEmptyRef(root)) {
    return true;  // the empty trie proves absence with an empty proof
  }
  Nibbles nibbles = BytesToNibbles(key.data(), key.size());
  Hash ref = root;
  size_t depth = 0;
  while (true) {
    auto blob = store_->Get(ref);
    if (!blob) {
      return false;
    }
    proof->push_back(*blob);
    Node node;
    if (!DecodeNodeBlob(*blob, &node)) {
      return false;
    }
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
