// The recorder/emulator infrastructure of the paper's §5.1: a live run's
// traffic (pending transactions with the precise times our node heard them)
// and the consensus output (blocks with their arrival times) are captured
// into a Recording, which can be serialized to a file and later replayed
// faithfully against fresh nodes — the paper's R-datasets methodology, used
// to evaluate new versions of Forerunner on historical traffic and to
// validate the emulator against the live run (L1 vs R1).
#ifndef SRC_REPLAY_RECORDING_H_
#define SRC_REPLAY_RECORDING_H_

#include <functional>
#include <string>
#include <vector>

#include "src/dice/simulator.h"

namespace frn {

struct Recording {
  std::string scenario;
  // Pending transactions in the order heard, with their heard times.
  struct HeardTx {
    Transaction tx;
    double heard_at = 0;
  };
  std::vector<HeardTx> heard;
  // Transactions that were packed without ever being heard by the observer.
  std::vector<Transaction> unheard;
  // The chain, in order, with block arrival times.
  std::vector<Block> blocks;
  std::vector<double> block_times;
};

// Captures a Recording from a finished live run.
Recording CaptureRecording(const SimReport& report, const std::vector<TimedTx>& traffic);

// Text serialization (deterministic, diffable). Returns false on I/O error.
bool WriteRecording(const Recording& recording, const std::string& path);
bool ReadRecording(const std::string& path, Recording* out);

// In-memory (de)serialization used by the file functions and tests.
std::string SerializeRecording(const Recording& recording);
bool DeserializeRecording(const std::string& text, Recording* out);

// Replays a recording against the given nodes: heard events and blocks are
// delivered at their recorded times, with speculation pipeline ticks every
// kDicePipelinePeriod between them, exactly like the live DiceSimulator
// drives its nodes.
SimReport ReplayRecording(const Recording& recording, const std::vector<Node*>& nodes);

// Trie-only reference execution, the oracle the store-backed nodes are
// checked against: per block, a store-less StateDb opened at the previous
// root runs every transaction through the baseline strategy and commits, so
// every read walks the trie. `genesis` populates the empty state exactly as
// a Node's genesis callback does. Returns each block's post-state root.
std::vector<Hash> ReplayTrieOnly(const std::function<void(StateDb*)>& genesis,
                                 const std::vector<Block>& blocks);

}  // namespace frn

#endif  // SRC_REPLAY_RECORDING_H_
