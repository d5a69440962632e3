// The DiCE (Dissemination-Consensus-Execution) network emulator. It stands in
// for the live Ethereum network of the paper's evaluation: transactions are
// broadcast and heard with per-peer gossip delays, miners with weighted hash
// power pack blocks from their own views (gas-price priority, per-miner tie
// breaking, local timestamps), a weighted random miner wins each
// exponentially-distributed consensus round, and every participating node
// executes the resulting chain. This reproduces the three §4.2 causes of
// many-future contexts: unpredictable arrivals of inter-dependent
// transactions, per-miner packing/ordering differences, and per-miner header
// fields.
#ifndef SRC_DICE_SIMULATOR_H_
#define SRC_DICE_SIMULATOR_H_

#include <string>
#include <vector>

#include "src/forerunner/node.h"

namespace frn {

struct TimedTx {
  Transaction tx;
  double sent_at = 0;
};

struct MinerModel {
  Address coinbase;
  double weight = 1.0;           // relative hash power
  double delay_mu = -1.0;        // lognormal gossip delay parameters
  double delay_sigma = 0.6;
  int timestamp_skew = 0;        // local clock offset in seconds
  uint64_t tie_salt = 0;         // same-price ordering randomization
};

struct DiceOptions {
  double mean_block_interval = 13.0;
  uint64_t block_gas_limit = 10'000'000;  // mildly binding: a backlog forms
  uint64_t base_timestamp = 1'700'000'000;
  size_t n_miners = 6;
  // Observer (our nodes') gossip delay distribution.
  double observer_delay_mu = -0.5;
  double observer_delay_sigma = 0.8;
  // Fraction of transactions the observer never hears before inclusion (sent
  // privately to miners or propagated away from our peers).
  double observer_unheard_rate = 0.05;
  // Miner gossip delay distribution.
  double miner_delay_mu = -0.8;
  double miner_delay_sigma = 0.6;
  // Margin a miner needs between hearing a tx and including it.
  double packing_margin = 0.5;
  // Off-critical-path pipeline period.
  double pipeline_period = 0.25;
  // Probability that a consensus round produces a temporary fork: a second
  // miner's competing block is executed first, then replaced by the winner
  // (the paper observes 8.4% of mined blocks end up on temporary forks).
  double fork_rate = 0.08;
  // How long the losing branch stays our head before the winning branch
  // arrives and triggers the reorg (off-path time to re-speculate).
  double fork_resolution_delay = 6.0;
  // Maximum length of a temporary fork branch: each fork event extends the
  // losing branch by 1..max_fork_depth blocks before the reorg unwinds them
  // all. Must not exceed the nodes' chain.max_reorg_depth. The default of 1
  // reproduces the single-block forks of earlier versions exactly (no extra
  // RNG draws).
  size_t max_fork_depth = 1;
  uint64_t seed = 0xD1CE;
};

// Everything measured about one node over a run.
struct NodeRunStats {
  ExecStrategy strategy = ExecStrategy::kBaseline;
  std::vector<TxExecRecord> records;  // in chain order
  double total_exec_seconds = 0;
  // Speculation CPU cost (serial sum over futures), the CPU wall (per round:
  // max over workers), which is what the speculation phase costs when idle
  // cores absorb the fan-out, and the stopwatch wall of the batches.
  double speculation_seconds = 0;
  double speculation_wall_seconds = 0;
  double speculation_measured_wall_seconds = 0;
  size_t spec_workers = 1;
  std::vector<SpecWorkerStats> spec_worker_stats;
  double speculated_exec_seconds = 0;
  uint64_t futures_speculated = 0;
  uint64_t synthesis_failures = 0;
  std::vector<SynthesisStats> synthesis_stats;
  std::vector<ApStats> ap_stats;
  std::vector<Node::SpecSummary> executed_speculations;
  MempoolStats mempool;
  SpecCacheStats spec_cache;
  // Critical-path state-read attribution (per node — the process-global
  // registry mixes nodes) and the versioned store's structural counters.
  StateDbStats chain_state;
  VersionedStateStats versioned;
  bool state_view_active = false;
};

struct SimReport {
  std::string scenario;
  uint64_t blocks = 0;       // main-chain blocks
  uint64_t fork_blocks = 0;  // temporary-fork blocks executed then reorged away
  uint64_t max_fork_depth_seen = 0;  // deepest losing branch actually built
  uint64_t txs_packed = 0;   // main-chain transactions
  uint64_t txs_sent = 0;
  std::vector<double> heard_delays;     // per heard tx: execution - heard time
  uint64_t heard_count = 0;             // txs heard before execution
  bool roots_consistent = true;         // all nodes agreed on every state root
  std::vector<NodeRunStats> nodes;
  std::vector<Block> chain;             // the produced chain (headers + txs)
  std::vector<double> block_times;      // arrival time of each chain block
  // Observer heard time per transaction id (absent => never heard).
  std::vector<std::pair<uint64_t, double>> observer_heard;
};

class DiceSimulator {
 public:
  DiceSimulator(const DiceOptions& options, std::vector<TimedTx> traffic);

  // Runs the emulation, feeding identical traffic and identical blocks to
  // every node. Node 0 is conventionally the baseline.
  SimReport Run(const std::vector<Node*>& nodes, const std::string& scenario_name);

  const std::vector<MinerModel>& miners() const { return miners_; }

 private:
  struct HeardEvent {
    double time;
    size_t tx_index;
  };

  std::vector<Transaction> PackBlock(const MinerModel& miner, double now,
                                     const std::vector<double>& miner_heard,
                                     const std::vector<bool>& included,
                                     const std::unordered_map<Address, uint64_t,
                                                              AddressHasher>& chain_nonces);

  DiceOptions options_;
  std::vector<TimedTx> traffic_;
  std::vector<MinerModel> miners_;
  Rng rng_;
};

// Copies what `node` accumulated over a run into `stats`: everything except
// the per-transaction records and block seconds, which the run loop collects
// block by block. DiceSimulator::Run and ReplayRecording both call it once
// per node after the last block.
void FillNodeRunStats(const Node& node, NodeRunStats* stats);

// Candidate miner list (coinbase, weight) for predictor configuration.
std::vector<std::pair<Address, double>> MinerCandidates(const std::vector<MinerModel>& miners);

}  // namespace frn

#endif  // SRC_DICE_SIMULATOR_H_
