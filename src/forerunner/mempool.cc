#include "src/forerunner/mempool.h"

#include <algorithm>

namespace frn {

void Mempool::Insert(const Transaction& tx, double heard_at) {
  by_sender_[tx.sender].emplace(tx.nonce, tx.id);
  entries_.push_back(PendingTx{tx, heard_at});
  heard_.emplace(tx.id, heard_at);
}

void Mempool::Remove(uint64_t tx_id) {
  auto pos = std::find_if(entries_.begin(), entries_.end(),
                          [&](const PendingTx& p) { return p.tx.id == tx_id; });
  if (pos == entries_.end()) {
    return;
  }
  auto queue = by_sender_.find(pos->tx.sender);
  if (queue != by_sender_.end()) {
    queue->second.erase(pos->tx.nonce);
    if (queue->second.empty()) {
      by_sender_.erase(queue);
    }
  }
  heard_.erase(tx_id);
  entries_.erase(pos);
}

void Mempool::EnforceCapacity(std::vector<uint64_t>* evicted) {
  while (options_.capacity > 0 && entries_.size() > options_.capacity) {
    const PendingTx* worst = nullptr;
    for (const PendingTx& p : entries_) {
      if (worst == nullptr || p.tx.gas_price < worst->tx.gas_price ||
          (p.tx.gas_price == worst->tx.gas_price && p.tx.id > worst->tx.id)) {
        worst = &p;
      }
    }
    // The cheapest entry names the sender; drop that sender's highest-nonce
    // tail so the remaining queue stays nonce-contiguous.
    uint64_t victim_id = by_sender_.at(worst->tx.sender).rbegin()->second;
    evicted->push_back(victim_id);
    ++evictions_;
    Remove(victim_id);
  }
}

Mempool::AddResult Mempool::Add(const Transaction& tx, double heard_at) {
  AddResult result;
  if (heard_.contains(tx.id)) {
    result.outcome = AddOutcome::kDuplicate;
    ++duplicates_;
    return result;
  }
  auto sender_queue = by_sender_.find(tx.sender);
  auto slot = (sender_queue != by_sender_.end()) ? sender_queue->second.find(tx.nonce)
                                                 : std::map<uint64_t, uint64_t>::iterator{};
  bool occupied = sender_queue != by_sender_.end() && slot != sender_queue->second.end();
  if (occupied) {
    uint64_t resident_id = slot->second;
    auto resident = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const PendingTx& p) { return p.tx.id == resident_id; });
    // Integer-exact fee-bump check: new * 100 >= old * (100 + bump).
    U256 offered = tx.gas_price * U256(100);
    U256 required = resident->tx.gas_price * U256(100 + kReplaceFeeBumpPct);
    if (offered < required) {
      result.outcome = AddOutcome::kUnderpriced;
      ++underpriced_;
      return result;
    }
    // Replace in place, keeping the arrival position of the displaced tx.
    result.outcome = AddOutcome::kReplaced;
    result.replaced_id = resident_id;
    heard_.erase(resident_id);
    *resident = PendingTx{tx, heard_at};
    slot->second = tx.id;
    heard_.emplace(tx.id, heard_at);
    ++replacements_;
    ++heard_count_;
  } else {
    Insert(tx, heard_at);
    ++heard_count_;
  }
  max_size_seen_ = std::max(max_size_seen_, entries_.size());
  EnforceCapacity(&result.evicted_ids);
  for (uint64_t id : result.evicted_ids) {
    if (id == tx.id) {
      result.outcome = AddOutcome::kEvicted;  // lost the capacity fight on entry
    }
  }
  return result;
}

Mempool::AddResult Mempool::Reinsert(const Transaction& tx, double heard_at) {
  AddResult result;
  if (heard_.contains(tx.id)) {
    result.outcome = AddOutcome::kDuplicate;
    return result;
  }
  auto sender_queue = by_sender_.find(tx.sender);
  if (sender_queue != by_sender_.end() && sender_queue->second.contains(tx.nonce)) {
    // The slot was re-filled (e.g. by a replacement heard during the fork
    // window); the resident wins — orphans never displace live traffic.
    result.outcome = AddOutcome::kDuplicate;
    return result;
  }
  Insert(tx, heard_at);
  ++reinserted_;
  max_size_seen_ = std::max(max_size_seen_, entries_.size());
  EnforceCapacity(&result.evicted_ids);
  for (uint64_t id : result.evicted_ids) {
    if (id == tx.id) {
      result.outcome = AddOutcome::kEvicted;
    }
  }
  return result;
}

bool Mempool::Retire(uint64_t tx_id, double* heard_at_out) {
  auto it = heard_.find(tx_id);
  if (it == heard_.end()) {
    return false;
  }
  if (heard_at_out != nullptr) {
    *heard_at_out = it->second;
  }
  Remove(tx_id);
  ++retired_;
  return true;
}

MempoolStats Mempool::stats() const {
  MempoolStats s;
  s.size = entries_.size();
  s.max_size_seen = max_size_seen_;
  s.heard = heard_count_;
  s.duplicates = duplicates_;
  s.replacements = replacements_;
  s.underpriced = underpriced_;
  s.evictions = evictions_;
  s.reinserted = reinserted_;
  s.retired = retired_;
  return s;
}

}  // namespace frn
