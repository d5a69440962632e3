// The multi-future predictor (paper §4.4): a next-block predictor that
// simulates miner packing behaviour to pick the transactions likely to be
// included soon, and a context constructor that builds several probable
// future contexts per transaction — varying the ordering of inter-dependent
// transactions and the predicted block-header fields, the two causes of
// context variation identified in §4.2.
#ifndef SRC_FORERUNNER_PREDICTOR_H_
#define SRC_FORERUNNER_PREDICTOR_H_

#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/forerunner/mempool.h"
#include "src/forerunner/speculator.h"

namespace frn {

struct PredictorOptions {
  // How many future contexts to construct per transaction.
  size_t max_futures_per_tx = 8;
  // Candidate miners (coinbase, weight); the top two are used as header
  // variants. Empty => a single unknown-coinbase future.
  std::vector<std::pair<Address, double>> miners;
  double mean_block_interval = 13.0;
};

struct TxPrediction {
  Transaction tx;
  std::vector<FutureContext> futures;
};

class MultiFuturePredictor {
 public:
  explicit MultiFuturePredictor(const PredictorOptions& options) : options_(options) {}

  // Predicts the content of the next block from the pending pool and builds
  // future contexts for every predicted transaction. `chain_nonces` maps a
  // sender to its next on-chain nonce (for nonce-chain validity).
  std::vector<TxPrediction> PredictNextBlock(
      const MempoolView& pool, const BlockContext& head,
      const std::unordered_map<Address, uint64_t, AddressHasher>& chain_nonces,
      uint64_t block_gas_limit, Rng* rng) const;

 private:
  PredictorOptions options_;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_PREDICTOR_H_
