#include "src/forerunner/chain_manager.h"

namespace frn {

ChainManager::ChainManager(Mpt* trie, VersionedState* versioned,
                           const ChainManagerOptions& options)
    : options_(options), trie_(trie), versioned_(versioned), commit_pool_(options.commit_workers) {}

void ChainManager::ReopenState() {
  if (state_ != nullptr) {
    retired_state_stats_ += state_->stats();
  }
  state_ = std::make_unique<StateDb>(trie_, head_root_, versioned_, &commit_pool_);
}

void ChainManager::SetGenesis(const Hash& root) {
  head_root_ = root;
  head_ = BlockContext{};
  head_.number = 0;
  head_first_seen_ = 0;
  chain_nonces_.clear();
  undo_.clear();
  ReopenState();
}

StateDbStats ChainManager::cumulative_state_stats() const {
  StateDbStats stats = retired_state_stats_;
  if (state_ != nullptr) {
    stats += state_->stats();
  }
  return stats;
}

void ChainManager::BeginBlock(const Block& block, double first_seen) {
  (void)block;  // the undone block's content arrives later via AttachOrphan
  pending_.parent_root = head_root_;
  pending_.parent_header = head_;
  pending_.nonce_deltas.clear();
  pending_.parent_first_seen = head_first_seen_;
  pending_.parent_view = state_ != nullptr ? state_->view() : SnapshotHandle{};
  pending_.orphans.clear();
  pending_first_seen_ = first_seen;
}

void ChainManager::AdvanceNonce(const Transaction& tx, ExecStatus status) {
  if (status == ExecStatus::kBadNonce || status == ExecStatus::kInsufficientBalance) {
    return;
  }
  auto [it, first_seen] = chain_nonces_.try_emplace(tx.sender, 0);
  pending_.nonce_deltas.emplace_back(
      tx.sender, first_seen ? std::nullopt : std::optional<uint64_t>(it->second));
  it->second = tx.nonce + 1;
}

Hash ChainManager::CommitState() { return state_->Commit(); }

void ChainManager::AdvanceHead(const BlockContext& header, const Hash& root) {
  head_ = header;
  head_root_ = root;
  head_first_seen_ = pending_first_seen_;
  ReopenState();
  undo_.push_back(std::move(pending_));
  pending_ = UndoRecord{};
  while (undo_.size() > options_.max_reorg_depth) {
    undo_.pop_front();  // fell off the reorg window; bookkeeping (and the
                        // record's snapshot pin) is released
  }
}

void ChainManager::AttachOrphan(OrphanedTx&& orphan) {
  if (!undo_.empty()) {
    undo_.back().orphans.push_back(std::move(orphan));
  }
}

std::vector<OrphanedTx> ChainManager::RollbackHead() {
  if (undo_.empty()) {
    return {};
  }
  UndoRecord record = std::move(undo_.back());
  undo_.pop_back();
  head_root_ = record.parent_root;
  head_ = record.parent_header;
  head_first_seen_ = record.parent_first_seen;
  // Newest delta first, so a sender advanced twice ends at its pre-block
  // nonce, and one the block first saw leaves the map again.
  for (auto it = record.nonce_deltas.rbegin(); it != record.nonce_deltas.rend(); ++it) {
    if (it->second.has_value()) {
      chain_nonces_[it->first] = *it->second;
    } else {
      chain_nonces_.erase(it->first);
    }
  }
  // The rollback is a handle swap: record.parent_view has kept the parent
  // version pinned for the whole window, so ReopenState's
  // AcquireAt(parent_root) below is guaranteed to hit; the record (and its
  // pin) is released when this function returns. No diff replay happens.
  ReopenState();
  ++rollbacks_;
  return std::move(record.orphans);
}

bool ChainManager::ShouldAdopt(const BranchTip& current, const BranchTip& candidate) {
  if (candidate.height != current.height) {
    return candidate.height > current.height;
  }
  return candidate.first_seen < current.first_seen;
}

}  // namespace frn
