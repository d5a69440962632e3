// Hexary Merkle-Patricia trie over a content-addressed KvStore, following the
// Yellow Paper's node structure (leaf / extension / branch) and hex-prefix
// path encoding. The trie is persistent: every mutation returns a new root
// hash and old roots remain readable, which gives the state snapshots that
// speculative pre-execution runs against for free.
#ifndef SRC_TRIE_TRIE_H_
#define SRC_TRIE_TRIE_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/trie/kv_store.h"

namespace frn {

// A nibble path (each element 0..15).
using Nibbles = std::vector<uint8_t>;

// Converts a byte key to its nibble expansion.
Nibbles BytesToNibbles(const uint8_t* data, size_t len);

// Hex-prefix encoding of a nibble path (Yellow Paper appendix C).
Bytes HexPrefixEncode(const Nibbles& path, bool is_leaf);
// Inverse of HexPrefixEncode: sets *path and *is_leaf. False unless the
// encoding is canonical: non-empty, a flag nibble of at most 3, and a zero
// pad nibble when the path is even.
bool HexPrefixDecode(const uint8_t* data, size_t len, Nibbles* path, bool* is_leaf);

// One key's new value in a batched Mpt::Update; an empty value deletes.
using TrieWrite = std::pair<Bytes, Bytes>;

class Mpt {
 public:
  explicit Mpt(KvStore* store) : store_(store) {}

  // The canonical root hash of the empty trie (keccak of RLP empty string).
  static Hash EmptyRoot();

  // Reads the value at `key` under `root`; nullopt when absent.
  std::optional<Bytes> Get(const Hash& root, const Bytes& key);
  // Writes `value` at `key`; empty value deletes. Returns the new root.
  Hash Put(const Hash& root, const Bytes& key, const Bytes& value);
  // Applies a whole batch of writes, in order, and returns the root that the
  // same chain of Puts reaches. Each stored node is loaded and decoded at
  // most once; each node the batch changed is encoded and hashed once,
  // children first, and appended to `*nodes` rather than stored: the caller
  // applies them (KvStore::ApplyStaged). Only nodes of the new trie are
  // appended, so every appended blob is reachable from the new root.
  Hash Update(const Hash& root, const std::vector<TrieWrite>& batch,
              KvStore::StagedWrites* nodes);
  // Walks the path for `key` so that all touched nodes become hot in the
  // store (the prefetcher's mechanism); returns the value if present.
  std::optional<Bytes> Prefetch(const Hash& root, const Bytes& key);

  // Produces a Merkle proof for `key` under `root`: the ordered node blobs
  // from the root down to the terminating node. The proof demonstrates either
  // the presence of the returned value or the key's absence. Returns false if
  // the root is unknown to the store.
  bool Prove(const Hash& root, const Bytes& key, std::vector<Bytes>* proof);

  // Verifies a proof against a bare root hash without any store access.
  // On success sets *value to the proven value (nullopt proves absence).
  static bool VerifyProof(const Hash& root, const Bytes& key,
                          const std::vector<Bytes>& proof, std::optional<Bytes>* value);

  // Decodes a node blob and encodes the node again (nullopt when the blob
  // does not decode): the node codec's round trip, for tests.
  static std::optional<Bytes> ReencodeNodeForTest(const Bytes& blob);

  KvStore* store() { return store_; }

 private:
  // Decoded node representation.
  struct Node {
    enum class Kind { kLeaf, kExtension, kBranch } kind = Kind::kLeaf;
    Nibbles path;                    // leaf/extension only
    Bytes value;                     // leaf and branch value slot
    Hash child;                      // extension child
    std::array<Hash, 16> children{};  // branch children (zero hash = empty)
  };

  // Update's in-memory tree of decoded nodes (trie.cc).
  class BatchFold;

  // Decodes a serialized node blob in place, straight into `*out` (whose
  // buffers are reused). False unless the blob is exactly what EncodeNode
  // writes for some node, so a blob that decodes re-encodes to itself:
  // canonical RLP, one list of 2 or 17 string items, a canonical hex-prefix
  // path, and child references of exactly 32 bytes that are not the zero
  // hash (an empty branch slot is the empty string).
  static bool DecodeNodeBlob(const Bytes& blob, Node* out);
  // Serializes a node into one buffer: RLP of its items, every child
  // referenced by hash. `node` is a Node or a BatchFold node; `hash_of` maps
  // one of its child references to the child's hash.
  template <typename N, typename HashOf>
  static Bytes EncodeNode(const N& node, HashOf hash_of);
  // Loads the node stored under `ref` into `*blob` and decodes it; false if
  // absent or malformed.
  bool LoadNode(const Hash& ref, Bytes* blob, Node* out);
  // Encodes + stores a node, returning its hash reference.
  Hash StoreNode(const Node& node);

  // Returns the new ref for the subtree rooted at `ref` after inserting.
  Hash PutAt(const Hash& ref, const Nibbles& key, size_t depth, const Bytes& value);
  // Returns the new ref after deleting; zero hash means subtree became empty.
  Hash DeleteAt(const Hash& ref, const Nibbles& key, size_t depth);
  // Collapses single-child branches / chained extensions after deletion.
  Hash Normalize(const Node& node);

  KvStore* store_;
};

}  // namespace frn

#endif  // SRC_TRIE_TRIE_H_
