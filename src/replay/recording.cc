#include "src/replay/recording.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace frn {

namespace {

std::string EncodeTx(const Transaction& tx) {
  std::ostringstream out;
  out << tx.id << ' ' << tx.sender.ToHex() << ' ' << tx.to.ToHex() << ' ' << tx.value.ToHex()
      << ' ' << tx.gas_limit << ' ' << tx.gas_price.ToHex() << ' ' << tx.nonce << ' '
      << BytesToHex(tx.data);
  return out.str();
}

bool DecodeTx(std::istringstream& in, Transaction* tx) {
  std::string sender;
  std::string to;
  std::string value;
  std::string gas_price;
  std::string data;
  if (!(in >> tx->id >> sender >> to >> value >> tx->gas_limit >> gas_price >> tx->nonce >>
        data)) {
    return false;
  }
  tx->sender = Address::FromHex(sender);
  tx->to = Address::FromHex(to);
  tx->value = U256::FromHex(value);
  tx->gas_price = U256::FromHex(gas_price);
  tx->data = HexToBytes(data);
  return true;
}

}  // namespace

Recording CaptureRecording(const SimReport& report, const std::vector<TimedTx>& traffic) {
  Recording recording;
  recording.scenario = report.scenario;
  std::unordered_map<uint64_t, const Transaction*> by_id;
  for (const TimedTx& t : traffic) {
    by_id.emplace(t.tx.id, &t.tx);
  }
  std::unordered_set<uint64_t> heard_ids;
  for (const auto& [id, at] : report.observer_heard) {
    auto it = by_id.find(id);
    if (it != by_id.end()) {
      recording.heard.push_back(Recording::HeardTx{*it->second, at});
    }
    heard_ids.insert(id);
  }
  std::sort(recording.heard.begin(), recording.heard.end(),
            [](const auto& a, const auto& b) { return a.heard_at < b.heard_at; });
  for (const Block& block : report.chain) {
    for (const Transaction& tx : block.txs) {
      if (!heard_ids.contains(tx.id)) {
        recording.unheard.push_back(tx);
      }
    }
  }
  recording.blocks = report.chain;
  recording.block_times = report.block_times;
  return recording;
}

std::string SerializeRecording(const Recording& recording) {
  std::ostringstream out;
  out.precision(9);
  out << "FORERUNNER-RECORDING v1 " << recording.scenario << "\n";
  out << "HEARD " << recording.heard.size() << "\n";
  for (const auto& h : recording.heard) {
    out << std::fixed << h.heard_at << ' ' << EncodeTx(h.tx) << "\n";
  }
  out << "UNHEARD " << recording.unheard.size() << "\n";
  for (const auto& tx : recording.unheard) {
    out << EncodeTx(tx) << "\n";
  }
  out << "BLOCKS " << recording.blocks.size() << "\n";
  for (size_t b = 0; b < recording.blocks.size(); ++b) {
    const Block& block = recording.blocks[b];
    out << std::fixed << recording.block_times[b] << ' ' << block.header.number << ' '
        << block.header.timestamp << ' ' << block.header.coinbase.ToHex() << ' '
        << block.header.gas_limit << ' ' << block.header.difficulty.ToHex() << ' '
        << block.header.chain_id << ' ' << block.header.chain_seed << ' ' << block.txs.size();
    for (const Transaction& tx : block.txs) {
      out << ' ' << tx.id;
    }
    out << "\n";
  }
  return out.str();
}

bool DeserializeRecording(const std::string& text, Recording* out) {
  std::istringstream in(text);
  std::string magic;
  std::string version;
  if (!(in >> magic >> version >> out->scenario) || magic != "FORERUNNER-RECORDING" ||
      version != "v1") {
    return false;
  }
  std::string section;
  size_t count = 0;
  if (!(in >> section >> count) || section != "HEARD") {
    return false;
  }
  std::string line;
  std::getline(in, line);
  std::unordered_map<uint64_t, Transaction> by_id;
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return false;
    }
    std::istringstream ls(line);
    Recording::HeardTx h;
    if (!(ls >> h.heard_at) || !DecodeTx(ls, &h.tx)) {
      return false;
    }
    by_id.emplace(h.tx.id, h.tx);
    out->heard.push_back(std::move(h));
  }
  if (!(in >> section >> count) || section != "UNHEARD") {
    return false;
  }
  std::getline(in, line);
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return false;
    }
    std::istringstream ls(line);
    Transaction tx;
    if (!DecodeTx(ls, &tx)) {
      return false;
    }
    by_id.emplace(tx.id, tx);
    out->unheard.push_back(std::move(tx));
  }
  if (!(in >> section >> count) || section != "BLOCKS") {
    return false;
  }
  std::getline(in, line);
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return false;
    }
    std::istringstream ls(line);
    double at;
    Block block;
    std::string coinbase;
    std::string difficulty;
    size_t n_txs = 0;
    if (!(ls >> at >> block.header.number >> block.header.timestamp >> coinbase >>
          block.header.gas_limit >> difficulty >> block.header.chain_id >>
          block.header.chain_seed >> n_txs)) {
      return false;
    }
    block.header.coinbase = Address::FromHex(coinbase);
    block.header.difficulty = U256::FromHex(difficulty);
    for (size_t t = 0; t < n_txs; ++t) {
      uint64_t id = 0;
      if (!(ls >> id)) {
        return false;
      }
      auto it = by_id.find(id);
      if (it == by_id.end()) {
        return false;  // block references an unknown transaction
      }
      block.txs.push_back(it->second);
    }
    out->blocks.push_back(std::move(block));
    out->block_times.push_back(at);
  }
  return true;
}

bool WriteRecording(const Recording& recording, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << SerializeRecording(recording);
  return static_cast<bool>(out);
}

bool ReadRecording(const std::string& path, Recording* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return DeserializeRecording(buffer.str(), out);
}

SimReport ReplayRecording(const Recording& recording, const std::vector<Node*>& nodes) {
  SimReport report;
  report.scenario = recording.scenario;
  report.nodes.resize(nodes.size());
  std::unordered_map<uint64_t, double> heard_at;
  heard_at.reserve(recording.heard.size());
  for (const Recording::HeardTx& h : recording.heard) {
    heard_at.emplace(h.tx.id, h.heard_at);
  }

  size_t next_heard = 0;
  auto deliver_heard_until = [&](double t) {
    while (next_heard < recording.heard.size() &&
           recording.heard[next_heard].heard_at <= t) {
      for (Node* node : nodes) {
        node->OnHeard(recording.heard[next_heard].tx, recording.heard[next_heard].heard_at);
      }
      ++next_heard;
    }
  };

  double last_pipeline = 0;
  for (size_t b = 0; b < recording.blocks.size(); ++b) {
    double block_time = recording.block_times[b];
    // Pipeline ticks between blocks, at the recorded cadence.
    for (double t = last_pipeline + kDicePipelinePeriod; t < block_time;
         t += kDicePipelinePeriod) {
      deliver_heard_until(t);
      for (Node* node : nodes) {
        node->RunSpeculationPipeline(t);
      }
    }
    deliver_heard_until(block_time);

    const Block& block = recording.blocks[b];
    ExecuteOnEveryNode(nodes, block, block_time, /*on_fork=*/false, &report);
    // Heard delay, as the live run counts it: execution time minus the
    // recorded heard time, once per transaction heard before its block.
    for (const Transaction& tx : block.txs) {
      auto it = heard_at.find(tx.id);
      if (it != heard_at.end() && it->second <= block_time) {
        ++report.heard_count;
        report.heard_delays.push_back(block_time - it->second);
      }
    }
    for (Node* node : nodes) {
      node->RunSpeculationPipeline(block_time);
    }
    last_pipeline = block_time;
  }

  for (size_t n = 0; n < nodes.size(); ++n) {
    FillNodeRunStats(*nodes[n], &report.nodes[n]);
  }
  return report;
}

std::vector<Hash> ReplayTrieOnly(const std::function<void(StateDb*)>& genesis,
                                 const std::vector<Block>& blocks) {
  KvStore::Options options;
  options.cold_read_latency = std::chrono::nanoseconds(0);
  KvStore store(options);
  Mpt trie(&store);
  StateDb genesis_state(&trie, Mpt::EmptyRoot());
  genesis(&genesis_state);
  Hash root = genesis_state.Commit();
  std::vector<Hash> roots;
  roots.reserve(blocks.size());
  for (const Block& block : blocks) {
    StateDb state(&trie, root);
    for (const Transaction& tx : block.txs) {
      Accelerator::Execute(&state, block.header, tx, nullptr, ExecStrategy::kBaseline);
    }
    root = state.Commit();
    roots.push_back(root);
  }
  return roots;
}

}  // namespace frn
