#include "src/dice/simulator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace frn {

namespace {

// Gossip delays (lognormal) the observer's mean does not set.
constexpr double kObserverDelaySigma = 0.8;
constexpr double kMinerDelayMu = -0.8;
constexpr double kMinerDelaySigma = 0.6;
// Fraction of transactions the observer never hears before inclusion (sent
// privately to miners or propagated away from our peers).
constexpr double kObserverUnheardRate = 0.05;
// Margin a miner needs between hearing a tx and including it.
constexpr double kPackingMargin = 0.5;

uint64_t TieHash(uint64_t salt, uint64_t tx_id) {
  uint64_t x = salt ^ (tx_id * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  return x;
}

}  // namespace

void FillNodeRunStats(const Node& node, NodeRunStats* stats) {
  stats->strategy = node.strategy();
  stats->speculation_seconds = node.total_speculation_seconds();
  stats->speculation_wall_seconds = node.total_speculation_wall_seconds();
  stats->speculation_measured_wall_seconds = node.speculation_measured_wall_seconds();
  stats->spec_workers = node.spec_workers();
  stats->spec_worker_stats = node.spec_worker_stats();
  stats->speculated_exec_seconds = node.total_speculated_exec_seconds();
  stats->futures_speculated = node.futures_speculated();
  stats->synthesis_failures = node.synthesis_failures();
  stats->synthesis_stats = node.synthesis_stats();
  stats->ap_stats = node.ap_stats();
  stats->executed_speculations = node.executed_speculations();
  stats->mempool = node.mempool_stats();
  stats->spec_cache = node.spec_cache_stats();
  stats->chain_state = node.chain_state_stats();
  stats->versioned = node.versioned_stats();
  stats->state_view_active = node.view_active();
}

void ExecuteOnEveryNode(const std::vector<Node*>& nodes, const Block& block, double now,
                        bool on_fork, SimReport* report) {
  Hash first_root;
  for (size_t n = 0; n < nodes.size(); ++n) {
    BlockExecReport exec = nodes[n]->ExecuteBlock(block, now);
    if (n == 0) {
      first_root = exec.state_root;
    } else if (!(exec.state_root == first_root)) {
      report->roots_consistent = false;
    }
    NodeRunStats& stats = report->nodes[n];
    for (TxExecRecord& r : exec.txs) {
      r.on_fork = on_fork;
      stats.records.push_back(r);
    }
    if (!on_fork) {
      stats.total_exec_seconds += exec.total_seconds;
    }
  }
  if (on_fork) {
    return;
  }
  if (!nodes.empty()) {
    report->roots.push_back(first_root);
  }
  report->chain.push_back(block);
  report->block_times.push_back(now);
  ++report->blocks;
  report->txs_packed += block.txs.size();
}

std::vector<std::pair<Address, double>> MinerCandidates(
    const std::vector<MinerModel>& miners) {
  std::vector<std::pair<Address, double>> out;
  out.reserve(miners.size());
  for (const MinerModel& m : miners) {
    out.emplace_back(m.coinbase, m.weight);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

DiceSimulator::DiceSimulator(const DiceOptions& options, std::vector<TimedTx> traffic)
    : options_(options), traffic_(std::move(traffic)), rng_(options.seed) {
  traffic_index_.reserve(traffic_.size());
  for (size_t i = 0; i < traffic_.size(); ++i) {
    traffic_index_.emplace(traffic_[i].tx.id, i);
  }
  // Miner population with a skewed hash-power distribution (no miner
  // dominates, mirroring §4.2's probabilistic miner selection).
  for (size_t i = 0; i < kDiceMiners; ++i) {
    MinerModel m;
    m.coinbase = Address::FromId(0xA11CE000 + i);
    m.weight = 1.0 / static_cast<double>(1 + i);  // Zipf-ish
    m.delay_mu = kMinerDelayMu;
    m.delay_sigma = kMinerDelaySigma;
    m.timestamp_skew = static_cast<int>(rng_.NextBounded(7)) - 3;
    m.tie_salt = rng_.NextU64();
    miners_.push_back(m);
  }
}

std::vector<Transaction> DiceSimulator::PackBlock(
    const MinerModel& miner, double now, const std::vector<double>& miner_heard,
    const std::vector<bool>& included,
    const std::unordered_map<Address, uint64_t, AddressHasher>& chain_nonces) {
  // Candidate set: heard with enough margin and not yet on the chain.
  std::vector<const Transaction*> candidates;
  for (size_t i = 0; i < traffic_.size(); ++i) {
    if (!included[i] && miner_heard[i] + kPackingMargin <= now) {
      candidates.push_back(&traffic_[i].tx);
    }
  }
  // Price-priority order with per-miner random tie breaking (paper §4.2:
  // same-price transactions are ordered randomly by the official client).
  std::sort(candidates.begin(), candidates.end(),
            [&](const Transaction* ta, const Transaction* tb) {
              if (!(ta->gas_price == tb->gas_price)) {
                return tb->gas_price < ta->gas_price;
              }
              return TieHash(miner.tie_salt, ta->id) < TieHash(miner.tie_salt, tb->id);
            });
  // Fill the block respecting per-sender nonce chains.
  std::vector<Transaction> packed;
  for (size_t pos : PackNonceChains(candidates, chain_nonces, kDiceBlockGasLimit, SIZE_MAX)) {
    packed.push_back(*candidates[pos]);
  }
  return packed;
}

SimReport DiceSimulator::Run(const std::vector<Node*>& nodes,
                             const std::string& scenario_name) {
  static Counter* rounds = MetricsRegistry::Global().GetCounter("dice.rounds");
  static Counter* forks = MetricsRegistry::Global().GetCounter("dice.forks");
  static Counter* pipeline_runs = MetricsRegistry::Global().GetCounter("dice.pipeline_runs");
  static SecondsCounter* round_wall =
      MetricsRegistry::Global().GetSeconds("dice.round_wall_seconds");
  static SecondsCounter* pipeline_wall =
      MetricsRegistry::Global().GetSeconds("dice.pipeline_wall_seconds");
  static ExpHistogram* heard_delay =
      MetricsRegistry::Global().GetHistogram("dice.heard_delay_seconds");
  TraceCollector* collector = &TraceCollector::Global();

  SimReport report;
  report.scenario = scenario_name;
  report.txs_sent = traffic_.size();
  report.nodes.resize(nodes.size());

  // Sample dissemination delays.
  std::vector<double> observer_heard(traffic_.size());
  std::vector<std::vector<double>> miner_heard(miners_.size(),
                                               std::vector<double>(traffic_.size()));
  for (size_t i = 0; i < traffic_.size(); ++i) {
    // Only modest transactions go unheard (private relays and thin gossip
    // paths); heavyweight transactions propagate widely, which is why the
    // paper's time-weighted heard rate exceeds the unweighted one.
    if (traffic_[i].tx.gas_limit < 400'000 && rng_.Chance(kObserverUnheardRate)) {
      observer_heard[i] = 1e18;  // effectively never heard
    } else {
      observer_heard[i] =
          traffic_[i].sent_at +
          rng_.NextLogNormal(options_.observer_delay_mu, kObserverDelaySigma);
    }
    for (size_t m = 0; m < miners_.size(); ++m) {
      miner_heard[m][i] =
          traffic_[i].sent_at +
          rng_.NextLogNormal(miners_[m].delay_mu, miners_[m].delay_sigma);
    }
  }

  // Traffic ends when the last transaction was sent; run a little longer so
  // stragglers get packed.
  double horizon = 0;
  for (const TimedTx& t : traffic_) {
    horizon = std::max(horizon, t.sent_at);
  }
  horizon += 4 * options_.mean_block_interval;

  std::vector<bool> included(traffic_.size(), false);
  std::unordered_map<Address, uint64_t, AddressHasher> chain_nonces;
  double total_weight = 0;
  for (const MinerModel& m : miners_) {
    total_weight += m.weight;
  }

  // Chronological event loop: heard events interleaved with block events; the
  // speculation pipeline runs whenever off-critical-path time accumulates.
  std::vector<size_t> heard_order(traffic_.size());
  for (size_t i = 0; i < traffic_.size(); ++i) {
    heard_order[i] = i;
  }
  std::sort(heard_order.begin(), heard_order.end(),
            [&](size_t a, size_t b) { return observer_heard[a] < observer_heard[b]; });

  size_t next_heard = 0;
  double now = 0;
  double next_block_time = rng_.NextExponential(options_.mean_block_interval);
  double last_pipeline = 0;
  uint64_t block_number = 0;
  uint64_t last_block_ts = kDiceBaseTimestamp;

  auto deliver_heard_until = [&](double t) {
    while (next_heard < heard_order.size() && observer_heard[heard_order[next_heard]] <= t) {
      size_t idx = heard_order[next_heard];
      for (Node* node : nodes) {
        node->OnHeard(traffic_[idx].tx, observer_heard[idx]);
      }
      ++next_heard;
    }
  };

  while (now < horizon) {
    // Run the off-critical-path pipeline periodically between blocks.
    double next_pipeline = last_pipeline + kDicePipelinePeriod;
    double next_event = std::min(next_block_time, next_pipeline);
    if (next_event > horizon) {
      break;
    }
    deliver_heard_until(next_event);
    now = next_event;
    if (next_pipeline <= next_block_time) {
      TraceSpan pipeline_span(collector, "dice", "dice.pipeline", pipeline_wall);
      pipeline_span.AddArg(TraceArg::F64("sim_time", now));
      for (Node* node : nodes) {
        node->RunSpeculationPipeline(now);
      }
      pipeline_runs->Add();
      last_pipeline = now;
      continue;
    }

    // ---- Consensus: a weighted random miner wins this round ----
    double pick = rng_.NextDouble() * total_weight;
    size_t winner = 0;
    for (size_t m = 0; m < miners_.size(); ++m) {
      pick -= miners_[m].weight;
      if (pick <= 0) {
        winner = m;
        break;
      }
    }
    const MinerModel& miner = miners_[winner];
    std::vector<Transaction> txs =
        PackBlock(miner, now, miner_heard[winner], included, chain_nonces);
    next_block_time = now + rng_.NextExponential(options_.mean_block_interval);
    if (txs.empty()) {
      continue;
    }

    // Temporary fork: a competing branch from another miner reaches us first,
    // gets executed block by block, and is reorged away when the winner
    // arrives. At max_fork_depth == 1 this draws exactly the RNG sequence of
    // the single-block fork flow (no depth draw); deeper settings let the
    // rival extend its losing branch before the resolution.
    if (miners_.size() > 1 && rng_.Chance(options_.fork_rate)) {
      size_t rival = (winner + 1 + rng_.NextBounded(miners_.size() - 1)) % miners_.size();
      const MinerModel& rival_miner = miners_[rival];
      size_t target_depth =
          options_.max_fork_depth <= 1
              ? 1
              : 1 + static_cast<size_t>(rng_.NextBounded(options_.max_fork_depth));
      // The rival packs against its own view of the chain; its inclusions and
      // nonce advances stay local to the losing branch so the winner can still
      // claim the same transactions.
      std::vector<bool> rival_included = included;
      auto rival_nonces = chain_nonces;
      uint64_t rival_ts = last_block_ts;
      size_t executed_depth = 0;
      for (size_t d = 0; d < target_depth; ++d) {
        std::vector<Transaction> rival_txs =
            PackBlock(rival_miner, now, miner_heard[rival], rival_included, rival_nonces);
        if (rival_txs.empty()) {
          break;
        }
        Block fork_block;
        fork_block.header.number = block_number + 1 + d;
        fork_block.header.timestamp =
            std::max(kDiceBaseTimestamp + static_cast<uint64_t>(now) +
                         static_cast<uint64_t>(rival_miner.timestamp_skew + 3) - 3,
                     rival_ts + 1);
        rival_ts = fork_block.header.timestamp;
        fork_block.header.coinbase = rival_miner.coinbase;
        fork_block.header.gas_limit = kDiceBlockGasLimit;
        fork_block.txs = std::move(rival_txs);
        for (const Transaction& tx : fork_block.txs) {
          rival_nonces[tx.sender] = tx.nonce + 1;
          rival_included[traffic_index_.at(tx.id)] = true;
        }
        ExecuteOnEveryNode(nodes, fork_block, now, /*on_fork=*/true, &report);
        ++report.fork_blocks;
        ++executed_depth;
      }
      if (executed_depth > 0) {
        report.max_fork_depth_seen =
            std::max(report.max_fork_depth_seen, static_cast<uint64_t>(executed_depth));
        forks->Add();
        EmitInstant(collector, "dice", "dice.fork",
                    {TraceArg::U64("block", block_number + 1), TraceArg::F64("sim_time", now)});
        // A node whose undo window is shorter than the branch would stop
        // unwinding part-way and execute the winner on the losing branch.
        for (size_t n = 0; n < nodes.size(); ++n) {
          if (nodes[n]->reorg_window() < executed_depth) {
            std::fprintf(stderr,
                         "DiceSimulator: node %zu has a %zu-block undo window, too short for a "
                         "%zu-block fork branch\n",
                         n, nodes[n]->reorg_window(), executed_depth);
            std::abort();
          }
        }
        // The losing branch stays our head while the winner's branch
        // propagates; the orphaned transactions re-enter the pool on reorg
        // and the speculation pipeline gets to re-process them.
        for (size_t d = 0; d < executed_depth; ++d) {
          for (Node* node : nodes) {
            node->RollbackHead();
          }
        }
        double winner_time = now + options_.fork_resolution_delay;
        for (double t = now + kDicePipelinePeriod; t < winner_time; t += kDicePipelinePeriod) {
          deliver_heard_until(t);
          for (Node* node : nodes) {
            node->RunSpeculationPipeline(t);
          }
        }
        deliver_heard_until(winner_time);
        now = winner_time;
        next_block_time = std::max(next_block_time, now + 1.0);
      }
    }

    Block block;
    ++block_number;
    block.header.number = block_number;
    uint64_t ts = kDiceBaseTimestamp + static_cast<uint64_t>(now) +
                  static_cast<uint64_t>(miner.timestamp_skew + 3) - 3;
    block.header.timestamp = std::max(ts, last_block_ts + 1);
    last_block_ts = block.header.timestamp;
    block.header.coinbase = miner.coinbase;
    block.header.gas_limit = kDiceBlockGasLimit;
    block.txs = std::move(txs);

    for (const Transaction& tx : block.txs) {
      chain_nonces[tx.sender] = tx.nonce + 1;
      const size_t i = traffic_index_.at(tx.id);
      included[i] = true;
      if (observer_heard[i] <= now) {
        ++report.heard_count;
        report.heard_delays.push_back(now - observer_heard[i]);
        heard_delay->Record(now - observer_heard[i]);
      }
    }

    // ---- Execution phase on every node ----
    {
      TraceSpan round_span(collector, "dice", "dice.round", round_wall);
      round_span.AddArg(TraceArg::U64("block", block_number));
      round_span.AddArg(TraceArg::U64("txs", block.txs.size()));
      round_span.AddArg(TraceArg::F64("sim_time", now));
      ExecuteOnEveryNode(nodes, block, now, /*on_fork=*/false, &report);
      rounds->Add();
    }

    // Post-block speculation for the next block's predictions.
    for (Node* node : nodes) {
      node->RunSpeculationPipeline(now);
    }
    last_pipeline = now;
  }

  for (size_t i = 0; i < traffic_.size(); ++i) {
    if (observer_heard[i] < 1e17) {
      report.observer_heard.emplace_back(traffic_[i].tx.id, observer_heard[i]);
    }
  }
  for (size_t n = 0; n < nodes.size(); ++n) {
    FillNodeRunStats(*nodes[n], &report.nodes[n]);
  }
  return report;
}

}  // namespace frn
