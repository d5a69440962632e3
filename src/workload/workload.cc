#include "src/workload/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/contracts/extra_contracts.h"
#include "src/crypto/keccak.h"

namespace frn {

namespace {

// Allowance slot for allowance[owner][spender] in the Token layout.
U256 AllowanceSlot(const Address& owner, const Address& spender) {
  U256 inner = Keccak256TwoWords(owner.ToU256(), U256(1)).ToU256();
  return Keccak256TwoWords(spender.ToU256(), inner).ToU256();
}

// Gas prices cluster on a few common values (paper §4.2 footnote: senders take
// pricing advice from the same tools, making ties frequent).
const uint64_t kGasPriceLevels[] = {10'000'000'000ULL, 20'000'000'000ULL, 50'000'000'000ULL,
                                    100'000'000'000ULL};

// Contract instances of the genesis world, per family.
constexpr size_t kTokens = 4;
constexpr size_t kPairs = 2;
constexpr size_t kFeeds = 2;
constexpr size_t kRegistries = 2;
constexpr size_t kLotteries = 1;
constexpr size_t kOracleObservers = 12;  // distinct submitters per feed
// Probability that a token transfer routes through the upgradeable proxy
// (DELEGATECALL).
constexpr double kProxyShare = 0.25;
// Mix weights no scenario varies: contract creation, NFT, auction, multisig.
constexpr double kWeightCreate = 0.01;
constexpr double kWeightNft = 0.03;
constexpr double kWeightAuction = 0.03;
constexpr double kWeightMultisig = 0.03;

}  // namespace

ScenarioConfig ScenarioByName(const std::string& name) {
  ScenarioConfig cfg;
  cfg.name = name;
  if (name == "L1") {
    cfg.seed = 0x11;
  } else if (name == "R1") {
    // Same traffic profile as L1, independently recorded (different peer
    // connectivity => different seed and observer delays).
    cfg.seed = 0x21;
    cfg.dice.observer_delay_mu = -0.3;
  } else if (name == "R2") {
    // DeFi-heavy period: more swaps and oracle updates, higher contention.
    cfg.seed = 0x22;
    cfg.w_token_transfer = 0.24;
    cfg.w_swap = 0.22;
    cfg.w_oracle = 0.20;
    cfg.w_eth_transfer = 0.14;
    cfg.contention = 0.8;
  } else if (name == "R3") {
    // Quiet period: simpler transfer-dominated traffic, low contention.
    cfg.seed = 0x23;
    cfg.w_eth_transfer = 0.38;
    cfg.w_token_transfer = 0.38;
    cfg.w_swap = 0.06;
    cfg.w_oracle = 0.08;
    cfg.contention = 0.3;
  } else if (name == "R4") {
    // Compute-heavy period with more complex transactions.
    cfg.seed = 0x24;
    cfg.w_hasher = 0.12;
    cfg.w_swap = 0.18;
    cfg.w_eth_transfer = 0.14;
    cfg.tx_rate = 3.0;
  } else if (name == "R5") {
    // Bursty, high-rate period.
    cfg.seed = 0x25;
    cfg.tx_rate = 6.0;
    cfg.contention = 0.7;
    cfg.dice.mean_block_interval = 15.0;
  } else if (name != "L1") {
    std::fprintf(stderr, "ScenarioByName: unknown scenario '%s'\n", name.c_str());
    std::abort();
  }
  cfg.dice.seed = cfg.seed * 0x9E3779B97F4A7C15ULL + 0xD1CE;
  return cfg;
}

std::vector<std::string> AllScenarioNames() { return {"L1", "R1", "R2", "R3", "R4", "R5"}; }

bool IsScenarioName(const std::string& name) {
  const std::vector<std::string> names = AllScenarioNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

NodeOptions ScenarioNodeOptions(const ScenarioConfig& config, ExecStrategy strategy,
                                const std::vector<MinerModel>& miners) {
  NodeOptions options;
  options.strategy = strategy;
  options.store.cold_read_latency = config.cold_read_latency;
  options.predictor.miners = MinerCandidates(miners);
  options.predictor.mean_block_interval = config.dice.mean_block_interval;
  // The undo window must reach past DiCE's deepest losing branch.
  options.chain.max_reorg_depth =
      std::max(options.chain.max_reorg_depth, config.dice.max_fork_depth);
  return options;
}

Workload::Workload(const ScenarioConfig& config) : config_(config) {}

size_t Workload::PickContract(size_t count, Rng* rng) const {
  if (count <= 1 || rng->Chance(config_.contention)) {
    return 0;  // the hot instance
  }
  return rng->NextBounded(count);
}

void Workload::InitGenesis(StateDb* state) const {
  const U256 user_funds = U256::Exp(U256(10), U256(21));   // 1000 ETH
  const U256 token_funds = U256::Exp(U256(10), U256(12));  // ample token balance
  const U256 reserve = U256::Exp(U256(10), U256(9));

  for (size_t u = 0; u < config_.n_users; ++u) {
    state->AddBalance(user(u), user_funds);
  }
  for (size_t t = 0; t < kTokens; ++t) {
    Address token_addr = token(t);
    state->SetCode(token_addr, Token::Code());
    U256 total;
    for (size_t u = 0; u < config_.n_users; ++u) {
      state->SetStorage(token_addr, Token::BalanceSlot(user(u)), token_funds);
      total = total + token_funds;
    }
    state->SetStorage(token_addr, U256(2), total);
  }
  for (size_t p = 0; p < kPairs; ++p) {
    Address pair_addr = pair(p);
    Address token0 = token((2 * p) % kTokens);
    Address token1 = token((2 * p + 1) % kTokens);
    AmmPair::Deploy(state, pair_addr, token0, token1);
    state->SetStorage(pair_addr, U256(2), reserve);
    state->SetStorage(pair_addr, U256(3), reserve);
    state->SetStorage(token0, Token::BalanceSlot(pair_addr), reserve);
    state->SetStorage(token1, Token::BalanceSlot(pair_addr), reserve);
    // Every user pre-approves the pair on both tokens.
    for (size_t u = 0; u < config_.n_users; ++u) {
      state->SetStorage(token0, AllowanceSlot(user(u), pair_addr), ~U256());
      state->SetStorage(token1, AllowanceSlot(user(u), pair_addr), ~U256());
    }
  }
  for (size_t f = 0; f < kFeeds; ++f) {
    state->SetCode(feed(f), PriceFeed::Code());
    // Active round predating the traffic: the first submission of each round
    // takes the new-round branch, later ones aggregate.
    state->SetStorage(feed(f), U256(0),
                      U256((kDiceBaseTimestamp / 300 - 2) * 300));
  }
  for (size_t r = 0; r < kRegistries; ++r) {
    state->SetCode(registry(r), Registry::Code());
  }
  for (size_t l = 0; l < kLotteries; ++l) {
    state->SetCode(lottery(l), Lottery::Code());
  }
  state->SetCode(hasher(), Hasher::Code());
  Hasher::SeedState(state, hasher());
  // The proxied token: balances live in the proxy's storage.
  Proxy::Deploy(state, token_proxy(), token(0));
  for (size_t u = 0; u < config_.n_users; ++u) {
    state->SetStorage(token_proxy(), Token::BalanceSlot(user(u)), token_funds);
  }
  // NFT collection, a long-running auction, and a 2-of-3 multisig treasury.
  state->SetCode(nft(), Nft::Code());
  Auction::Deploy(state, auction_house(), user(0), /*end_block=*/1'000'000);
  Multisig::Deploy(state, multisig(), user(0), user(1), user(2));
  state->AddBalance(multisig(), U256::Exp(U256(10), U256(18)));
}

std::vector<TimedTx> Workload::GenerateTraffic() {
  Rng rng(config_.seed);
  std::vector<TimedTx> out;
  std::vector<uint64_t> nonces(config_.n_users, 0);
  uint64_t next_id = 1;

  const double weights[] = {config_.w_eth_transfer, config_.w_token_transfer,
                            config_.w_oracle,       config_.w_swap,
                            config_.w_registry,     config_.w_lottery,
                            kWeightCreate,          config_.w_hasher,
                            kWeightNft,             kWeightAuction,
                            kWeightMultisig};
  // State carried across generated transactions for dependent calls.
  uint64_t nft_minted = 0;
  uint64_t proposals_made = 0;
  uint64_t auction_highest = 0;
  double weight_sum = 0;
  for (double w : weights) {
    weight_sum += w;
  }

  double t = 0;
  while (true) {
    t += rng.NextExponential(1.0 / config_.tx_rate);
    if (t >= config_.duration) {
      break;
    }
    size_t sender_index = rng.NextBounded(config_.n_users);
    Transaction tx;
    tx.id = next_id++;
    tx.gas_price = U256(kGasPriceLevels[rng.NextBounded(std::size(kGasPriceLevels))]);

    double pick = rng.NextDouble() * weight_sum;
    int kind = 0;
    for (int k = 0; k < 11; ++k) {
      pick -= weights[k];
      if (pick <= 0) {
        kind = k;
        break;
      }
    }
    switch (kind) {
      case 0: {  // plain ETH transfer
        tx.to = user(rng.NextBounded(config_.n_users));
        tx.value = U256(1 + rng.NextBounded(1'000'000));
        tx.gas_limit = 30'000;
        break;
      }
      case 1: {  // ERC-20 transfer (a share routes through the DELEGATECALL proxy)
        tx.to = rng.Chance(kProxyShare) ? token_proxy()
                                                : token(PickContract(kTokens, &rng));
        // A large share of transfers deposit into a few hot addresses
        // (exchange deposit wallets), creating write-write contention that
        // defeats exact-context prediction but not CD-Equiv.
        Address recipient = rng.Chance(0.4)
                                ? user(rng.NextBounded(3))
                                : user(rng.NextBounded(config_.n_users));
        tx.data = EncodeCall(Token::kTransfer,
                             {recipient.ToU256(), U256(1 + rng.NextBounded(10'000))});
        tx.gas_limit = 150'000;
        break;
      }
      case 2: {  // oracle price submission (interdependent within a round)
        size_t f = PickContract(kFeeds, &rng);
        tx.to = feed(f);
        // The round the submitter expects the tx to land in (~15s ahead).
        uint64_t expected_ts =
            kDiceBaseTimestamp + static_cast<uint64_t>(t) + 15;
        U256 round((expected_ts / 300) * 300);
        U256 price(1950 + rng.NextBounded(100));
        // Observers form a small committee per feed.
        size_t observer = rng.NextBounded(kOracleObservers);
        sender_index = (f * kOracleObservers + observer) % config_.n_users;
        tx.data = PriceFeed::SubmitCall(round, price);
        tx.gas_limit = 200'000;
        break;
      }
      case 3: {  // AMM swap
        tx.to = pair(PickContract(kPairs, &rng));
        tx.data = EncodeCall(AmmPair::kSwap, {U256(100 + rng.NextBounded(50'000)),
                                              U256(rng.NextBounded(2))});
        tx.gas_limit = 700'000;
        break;
      }
      case 4: {  // registry write
        tx.to = registry(PickContract(kRegistries, &rng));
        tx.data = EncodeCall(Registry::kSet,
                             {U256(rng.NextBounded(5'000)), U256(rng.NextU64())});
        tx.gas_limit = 120'000;
        break;
      }
      case 5: {  // lottery: mostly enters, occasional draws
        tx.to = lottery(PickContract(kLotteries, &rng));
        if (rng.Chance(0.9)) {
          tx.data = EncodeCall(Lottery::kEnter, {});
          tx.value = U256(Lottery::kTicketWei);
        } else {
          tx.data = EncodeCall(Lottery::kDraw, {});
        }
        tx.gas_limit = 250'000;
        break;
      }
      case 6: {  // contract-creation transaction (deploys a fresh registry)
        tx.to = Address();  // zero address => create
        tx.data = MakeInitCode(Registry::Code());
        tx.gas_limit = 400'000;
        break;
      }
      case 8: {  // NFT: mint or transfer an owned-with-luck token
        tx.to = nft();
        if (nft_minted == 0 || rng.Chance(0.6)) {
          tx.data = EncodeCall(Nft::kMint, {user(rng.NextBounded(config_.n_users)).ToU256()});
          ++nft_minted;
        } else {
          // Transfers race with ownership changes: many revert, which is
          // realistic NFT-drop behaviour and still must be reproduced exactly.
          tx.data = EncodeCall(Nft::kTransfer,
                               {user(rng.NextBounded(config_.n_users)).ToU256(),
                                U256(rng.NextBounded(nft_minted))});
        }
        tx.gas_limit = 200'000;
        break;
      }
      case 9: {  // auction bid (monotonically escalating so most bids land)
        tx.to = auction_house();
        auction_highest += 1'000 + rng.NextBounded(5'000);
        tx.data = EncodeCall(Auction::kBid, {});
        tx.value = U256(auction_highest);
        tx.gas_limit = 250'000;
        break;
      }
      case 10: {  // multisig: proposals and racing confirmations
        tx.to = multisig();
        size_t owner = rng.NextBounded(3);
        sender_index = owner;  // owners are users 0..2
        if (proposals_made == 0 || rng.Chance(0.4)) {
          tx.data = EncodeCall(Multisig::kPropose,
                               {user(rng.NextBounded(config_.n_users)).ToU256(),
                                U256(1 + rng.NextBounded(10'000))});
          ++proposals_made;
        } else {
          tx.data = EncodeCall(Multisig::kConfirm,
                               {U256(rng.NextBounded(proposals_made))});
        }
        tx.gas_limit = 300'000;
        break;
      }
      default: {  // compute-heavy hashing, log-normal iteration count
        tx.to = hasher();
        // Heavy-tailed complexity: most runs are cheap, a few approach the
        // block gas limit (the >1M-gas whales of Figure 13). Half the runs
        // mix storage into every round, so their APs must re-read state.
        bool stateful = rng.Chance(0.5);
        uint64_t iters =
            static_cast<uint64_t>(std::min(2500.0, 20.0 * rng.NextLogNormal(1.0, 1.4)));
        iters = std::max<uint64_t>(iters, 5);
        tx.data = EncodeCall(stateful ? Hasher::kRunStateful : Hasher::kRun,
                             {U256(iters), U256(rng.NextU64())});
        tx.gas_limit = 150'000 + iters * (stateful ? 1100 : 200);
        break;
      }
    }
    tx.sender = user(sender_index);
    tx.nonce = nonces[sender_index]++;
    out.push_back(TimedTx{std::move(tx), t});
  }
  return out;
}

}  // namespace frn
