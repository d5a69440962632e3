#include "src/forerunner/predictor.h"

#include <algorithm>

namespace frn {

std::vector<size_t> PackNonceChains(
    const std::vector<const Transaction*>& candidates,
    const std::unordered_map<Address, uint64_t, AddressHasher>& chain_nonces,
    uint64_t gas_budget, size_t max_txs) {
  std::vector<bool> taken(candidates.size(), false);
  // Next nonces of the senders packed so far; every other sender's comes from
  // the chain.
  std::unordered_map<Address, uint64_t, AddressHasher> packed_nonces;
  std::vector<size_t> packed;
  uint64_t gas_used = 0;
  bool progress = true;
  while (progress && packed.size() < max_txs) {
    progress = false;
    for (size_t i = 0; i < candidates.size() && packed.size() < max_txs; ++i) {
      const Transaction& tx = *candidates[i];
      if (taken[i] || gas_used + tx.gas_limit > gas_budget) {
        continue;
      }
      uint64_t expected = 0;
      if (auto it = packed_nonces.find(tx.sender); it != packed_nonces.end()) {
        expected = it->second;
      } else if (auto chain_it = chain_nonces.find(tx.sender); chain_it != chain_nonces.end()) {
        expected = chain_it->second;
      }
      if (tx.nonce != expected) {
        continue;
      }
      taken[i] = true;
      packed.push_back(i);
      packed_nonces[tx.sender] = expected + 1;
      gas_used += tx.gas_limit;
      progress = true;
    }
  }
  return packed;
}

namespace {

// Recall over precision: predict this percentage of a block's capacity.
constexpr uint64_t kCapacityPercent = 250;
// Upper bound on transactions speculated per prediction round.
constexpr size_t kMaxPredictedTxs = 512;

// Selects a nonce-valid, gas-price-ordered prefix of the pool, mimicking how
// miners pack blocks (higher fee first, per-sender nonce chains respected).
std::vector<const PendingTx*> SimulatePacking(
    const MempoolView& pool,
    const std::unordered_map<Address, uint64_t, AddressHasher>& chain_nonces,
    uint64_t gas_budget, size_t max_txs) {
  std::vector<const PendingTx*> sorted;
  sorted.reserve(pool.size());
  for (const PendingTx& p : pool) {
    sorted.push_back(&p);
  }
  std::sort(sorted.begin(), sorted.end(), [](const PendingTx* a, const PendingTx* b) {
    if (!(a->tx.gas_price == b->tx.gas_price)) {
      return b->tx.gas_price < a->tx.gas_price;  // higher price first
    }
    return a->tx.id < b->tx.id;
  });
  std::vector<const Transaction*> candidates;
  candidates.reserve(sorted.size());
  for (const PendingTx* p : sorted) {
    candidates.push_back(&p->tx);
  }
  std::vector<const PendingTx*> packed;
  for (size_t i : PackNonceChains(candidates, chain_nonces, gas_budget, max_txs)) {
    packed.push_back(sorted[i]);
  }
  return packed;
}

}  // namespace

std::vector<TxPrediction> MultiFuturePredictor::PredictNextBlock(
    const MempoolView& pool, const BlockContext& head,
    const std::unordered_map<Address, uint64_t, AddressHasher>& chain_nonces,
    uint64_t block_gas_limit, Rng* rng) const {
  uint64_t budget = block_gas_limit * kCapacityPercent / 100;
  std::vector<const PendingTx*> predicted =
      SimulatePacking(pool, chain_nonces, budget, kMaxPredictedTxs);

  // Dependency grouping: transactions sharing a sender or a receiver may
  // interfere; the ordered list that matters for a transaction's context is
  // the list within its own group (paper §4.4).
  auto group_key = [](const Transaction& tx) { return tx.to; };

  // Header variants: two timestamps (one and two intervals out) and up to two
  // candidate coinbases.
  uint64_t dt = static_cast<uint64_t>(options_.mean_block_interval + 0.5);
  std::vector<BlockContext> headers;
  for (int step = 1; step <= 2; ++step) {
    BlockContext h = head;
    h.number = head.number + 1;  // the predictor targets the next block
    h.timestamp = head.timestamp + dt * static_cast<uint64_t>(step);
    if (!options_.miners.empty()) {
      size_t miner_index = (step - 1) % options_.miners.size();
      h.coinbase = options_.miners[miner_index].first;
    }
    headers.push_back(h);
  }

  std::vector<TxPrediction> out;
  out.reserve(predicted.size());
  for (size_t i = 0; i < predicted.size(); ++i) {
    const Transaction& tx = predicted[i]->tx;
    TxPrediction prediction;
    prediction.tx = tx;

    // Same-group transactions packed ahead of this one (miner order).
    std::vector<Transaction> ahead;
    for (size_t j = 0; j < i; ++j) {
      const Transaction& other = predicted[j]->tx;
      if (group_key(other) == group_key(tx) || other.sender == tx.sender) {
        ahead.push_back(other);
      }
    }

    // Ordering variants: the realities most likely to occur are prefixes of
    // the miner order — the transaction lands at position k within its group.
    // Sweep k from "all interferers ahead" down to "none ahead" (same-sender
    // lower nonces always stay ahead), pairing each with a header variant.
    std::vector<std::vector<Transaction>> orderings;
    orderings.push_back(ahead);
    for (size_t cut = ahead.size(); cut-- > 0 && orderings.size() < 6;) {
      std::vector<Transaction> prefix;
      for (size_t k = 0; k < ahead.size(); ++k) {
        if (k < cut || (ahead[k].sender == tx.sender && ahead[k].nonce < tx.nonce)) {
          prefix.push_back(ahead[k]);
        }
      }
      auto same_ids = [](const std::vector<Transaction>& a, const std::vector<Transaction>& b) {
        if (a.size() != b.size()) {
          return false;
        }
        for (size_t k = 0; k < a.size(); ++k) {
          if (a[k].id != b[k].id) {
            return false;
          }
        }
        return true;
      };
      if (!same_ids(prefix, orderings.back())) {
        orderings.push_back(std::move(prefix));
      }
    }
    for (const BlockContext& header : headers) {
      for (const auto& ordering : orderings) {
        if (prediction.futures.size() >= options_.max_futures_per_tx) {
          break;
        }
        FutureContext fc;
        fc.header = header;
        fc.predecessors = ordering;
        prediction.futures.push_back(std::move(fc));
      }
    }
    // Exposure of inherent non-determinism: a randomly sampled sub-ordering.
    if (prediction.futures.size() < options_.max_futures_per_tx && ahead.size() > 1) {
      FutureContext sampled;
      sampled.header = headers[rng->NextBounded(headers.size())];
      for (const Transaction& other : ahead) {
        if (other.sender == tx.sender && other.nonce < tx.nonce) {
          sampled.predecessors.push_back(other);
        } else if (rng->Chance(0.5)) {
          sampled.predecessors.push_back(other);
        }
      }
      prediction.futures.push_back(std::move(sampled));
    }
    out.push_back(std::move(prediction));
  }
  return out;
}

}  // namespace frn
