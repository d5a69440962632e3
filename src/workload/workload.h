// Synthetic Ethereum-like traffic. Substitutes for the live mainnet traffic
// of the paper's datasets (Table 1): a deterministic genesis world (users,
// tokens, AMM pairs, price feeds, registries, lotteries, a hashing contract)
// plus Poisson transaction arrivals with a configurable mix, contention
// profile and gas-price clustering (common prices make same-price ordering
// ties frequent, one of the paper's sources of non-determinism).
#ifndef SRC_WORKLOAD_WORKLOAD_H_
#define SRC_WORKLOAD_WORKLOAD_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/dice/simulator.h"

namespace frn {

struct ScenarioConfig {
  std::string name = "L1";
  uint64_t seed = 1;
  double duration = 240;    // seconds of traffic
  double tx_rate = 4.0;     // average transactions per second
  size_t n_users = 400;

  // Transaction mix weights (normalized internally, together with the
  // contract-creation, NFT, auction and multisig weights of workload.cc).
  double w_eth_transfer = 0.20;
  double w_token_transfer = 0.34;
  double w_oracle = 0.14;
  double w_swap = 0.14;
  double w_registry = 0.10;
  double w_lottery = 0.04;
  double w_hasher = 0.04;

  // Probability that a contract-directed tx goes to the hottest instance.
  double contention = 0.6;

  // Store latency model (cold trie-node read cost: SSD page + RLP decode +
  // key-value lookup, per §4.4's prefetcher motivation).
  std::chrono::nanoseconds cold_read_latency{10000};

  DiceOptions dice;
};

// Named dataset configurations mirroring Table 1's L1 and R1-R5. An unknown
// name prints a message and aborts, so command-line front ends check
// IsScenarioName first.
ScenarioConfig ScenarioByName(const std::string& name);
std::vector<std::string> AllScenarioNames();
bool IsScenarioName(const std::string& name);

// The node options every scenario run starts from: `strategy` over the
// scenario's store latency, with the predictor told the DiCE miners and the
// mean block interval. Callers set anything else on the result.
NodeOptions ScenarioNodeOptions(const ScenarioConfig& config, ExecStrategy strategy,
                                const std::vector<MinerModel>& miners);

class Workload {
 public:
  explicit Workload(const ScenarioConfig& config);

  // Deterministically populates the genesis world state (same function object
  // handed to every node so all nodes agree on the genesis root).
  void InitGenesis(StateDb* state) const;

  // Generates the timed transaction stream.
  std::vector<TimedTx> GenerateTraffic();

  // Addresses of the deployed contract instances.
  Address user(size_t i) const { return Address::FromId(1000 + i); }
  Address token(size_t i) const { return Address::FromId(2000 + i); }
  Address pair(size_t i) const { return Address::FromId(3000 + i); }
  Address feed(size_t i) const { return Address::FromId(4000 + i); }
  Address registry(size_t i) const { return Address::FromId(5000 + i); }
  Address lottery(size_t i) const { return Address::FromId(6000 + i); }
  Address hasher() const { return Address::FromId(7000); }
  // Upgradeable token proxy delegating to token(0)'s code.
  Address token_proxy() const { return Address::FromId(8000); }
  Address nft() const { return Address::FromId(8100); }
  Address auction_house() const { return Address::FromId(8200); }
  Address multisig() const { return Address::FromId(8300); }

  const ScenarioConfig& config() const { return config_; }

 private:
  size_t PickContract(size_t count, Rng* rng) const;

  ScenarioConfig config_;
};

}  // namespace frn

#endif  // SRC_WORKLOAD_WORKLOAD_H_
