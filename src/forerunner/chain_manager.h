// The chain/state lifecycle manager (paper Fig. 3, consensus-to-execution
// boundary): a block history over StateDb roots supporting multi-depth
// reorgs. The manager keeps a bounded undo window (root, header, nonce map,
// pinned snapshot handle, and the undone block's orphaned transactions) and
// can walk the head back up to `max_reorg_depth` blocks, handing the orphans
// back for mempool re-injection. Every state view reads through the node's
// versioned store; the undo record's pinned handle keeps the parent version
// acquirable, so a rollback is a handle swap — never a diff replay.
//
// Threading: owned by the node's coordinator thread; speculation workers read
// through their own pinned snapshot handles and never touch this object.
#ifndef SRC_FORERUNNER_CHAIN_MANAGER_H_
#define SRC_FORERUNNER_CHAIN_MANAGER_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/dice/block.h"
#include "src/forerunner/spec_manager.h"
#include "src/state/commit_pool.h"
#include "src/state/statedb.h"
#include "src/state/versioned_state.h"

namespace frn {

struct ChainManagerOptions {
  // How many committed blocks can be undone. The window only bounds how much
  // undo history is retained: a single rollback behaves identically at any
  // depth >= 1, so the default deepens the pre-decomposition single-depth
  // support without changing its behaviour. It is also the node's versioned
  // store retention: versions above the folded base kept acquirable.
  size_t max_reorg_depth = 4;
  // Worker threads for StateDb::Commit's parallel storage-subtrie folds.
  // 1 (the default) runs the folds inline on the coordinator in the exact
  // serial operation order; any count produces bit-identical roots.
  size_t commit_workers = 1;
  // Modeled lanes for the optimistic intra-block parallel executor
  // (src/forerunner/parallel_exec.h). 1 (the default) executes the block's
  // transactions bit-for-bit serially on the coordinator; any count >1 runs
  // them optimistically with conflict detection and produces identical
  // commit roots — the serial-default guarantee mirrors commit_workers.
  size_t block_workers = 1;
};

// A transaction orphaned by a rollback: what the mempool and speculation
// manager need to re-admit it.
struct OrphanedTx {
  Transaction tx;
  double heard_at = 0;
  bool heard = false;           // was resident in the mempool when included
  RetiredSpeculation spec;      // parked speculation (retain_across_reorg only)
};

class ChainManager {
 public:
  // Every committed block publishes a new version in `versioned` (borrowed,
  // non-null), every state view pins its root's version, and rollbacks
  // re-acquire the parent version by handle.
  ChainManager(Mpt* trie, VersionedState* versioned, const ChainManagerOptions& options);

  // Installs the genesis root as the head (block number 0) and opens the
  // execution state view.
  void SetGenesis(const Hash& root);

  StateDb* state() { return state_.get(); }
  const Hash& head_root() const { return head_root_; }
  const BlockContext& head() const { return head_; }
  std::unordered_map<Address, uint64_t, AddressHasher>& chain_nonces() {
    return chain_nonces_;
  }
  const std::unordered_map<Address, uint64_t, AddressHasher>& chain_nonces() const {
    return chain_nonces_;
  }

  // Snapshot the pre-block state into a pending undo record. Called at the
  // top of block execution, before any transaction mutates the nonce map.
  void BeginBlock(const Block& block, double first_seen);
  // Commits the execution state and returns the authenticated post-state
  // root; the only chain work inside the measured commit span.
  Hash CommitState();
  // Moves the head (off the measured path): reopens the state view,
  // finalizes the pending undo record, and prunes the undo window to
  // max_reorg_depth.
  void AdvanceHead(const BlockContext& header, const Hash& root);
  // Attaches an orphan candidate to the just-advanced block's undo record.
  void AttachOrphan(OrphanedTx&& orphan);

  bool CanRollback() const { return !undo_.empty(); }
  size_t reorg_window() const { return undo_.size(); }
  size_t max_reorg_depth() const { return options_.max_reorg_depth; }
  size_t commit_workers() const { return commit_pool_.workers(); }
  uint64_t rollbacks() const { return rollbacks_; }
  // Whether the live state view reads through a pinned snapshot handle (false
  // only if the store's retention missed the head root).
  bool view_active() const { return state_ != nullptr && state_->view().valid(); }

  // Critical-path StateDb read attribution, accumulated across the per-block
  // state views this manager has opened (including the live one). This is the
  // per-node view the process-global metrics registry cannot give when
  // several nodes share a process.
  StateDbStats cumulative_state_stats() const;

  // Undoes the most recent block: head root/header/nonces return to the
  // parent, and the undone block's orphans are handed back for re-injection.
  // Call repeatedly for deeper reorgs (up to the retained window).
  std::vector<OrphanedTx> RollbackHead();

  // Fork choice: longest chain wins; equal-height ties go to the branch seen
  // first. (DiCE's scripted winner/rival resolution models the network
  // settling equal-height ties by accumulated weight instead, so its reorgs
  // are driven explicitly; this policy is what a live node would apply.)
  struct BranchTip {
    uint64_t height = 0;
    double first_seen = 0;
  };
  static bool ShouldAdopt(const BranchTip& current, const BranchTip& candidate);
  BranchTip head_tip() const { return BranchTip{head_.number, head_first_seen_}; }

 private:
  struct UndoRecord {
    Hash parent_root;
    BlockContext parent_header;
    std::unordered_map<Address, uint64_t, AddressHasher> parent_nonces;
    double parent_first_seen = 0;
    // Pin on the parent's version: while this record is inside the undo
    // window, the versioned store must be able to serve a rollback to it.
    SnapshotHandle parent_view;
    std::vector<OrphanedTx> orphans;
  };

  void ReopenState();

  ChainManagerOptions options_;
  Mpt* trie_;
  VersionedState* versioned_;
  // The pool outlives the per-block StateDb instances that borrow it.
  CommitPool commit_pool_;
  std::unique_ptr<StateDb> state_;
  StateDbStats retired_state_stats_;  // stats of already-replaced state views
  Hash head_root_;
  BlockContext head_;
  double head_first_seen_ = 0;
  std::unordered_map<Address, uint64_t, AddressHasher> chain_nonces_;

  UndoRecord pending_;
  double pending_first_seen_ = 0;
  std::deque<UndoRecord> undo_;  // oldest first; back() is the head's parent
  uint64_t rollbacks_ = 0;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_CHAIN_MANAGER_H_
