// The Accelerated Program (paper §4.3): a guarded, specialized, memoized
// program synthesized from one or more pre-execution traces.
//
//   - Guard nodes check the CD-Equiv constraint sets and case-branch across
//     the futures merged into the AP. An unmatched guard value is a
//     constraint violation, which aborts with nothing to roll back.
//   - Shortcut nodes implement memoization: if the registers feeding a
//     compute segment hold the same values seen during some pre-execution,
//     the segment is skipped and its remembered outputs are committed.
//   - Instruction nodes evaluate S-EVM computes/reads; effect instructions
//     (the write set) are always scheduled after the last guard, making AP
//     execution rollback-free.
//   - Done nodes carry the trace-constant transaction outcome.
//
// Merging two APs walks both graphs in lockstep: identical prefixes unify,
// guards with different asserted values become case branches, and shortcut
// memo entries accumulate. Executing a merged AP of N futures costs O(path),
// independent of N.
#ifndef SRC_CORE_AP_H_
#define SRC_CORE_AP_H_

#include <optional>
#include <vector>

#include "src/core/linear_ir.h"

namespace frn {

struct ApOptions {
  bool enable_shortcuts = true;
};

struct MemoEntry {
  std::vector<U256> in_values;
  std::vector<std::pair<RegId, U256>> outputs;
};

struct ApNode {
  enum class Kind : uint8_t { kInstr, kGuard, kShortcut, kDone };
  Kind kind = Kind::kDone;

  SInstr instr;  // kInstr

  // kGuard: value of `guard_arg` selects the branch; no match => violation.
  Operand guard_arg;
  std::vector<std::pair<U256, uint32_t>> branches;

  // kShortcut: if the `inputs` registers match a memo entry, commit its
  // outputs and jump to skip_to; otherwise fall through to `next`.
  std::vector<RegId> inputs;
  std::vector<MemoEntry> entries;
  uint32_t skip_to = 0;
  uint32_t skip_count = 0;  // instruction nodes bypassed when an entry hits

  uint32_t next = 0;  // kInstr/kShortcut fall-through

  // kDone: trace-constant outcome.
  ExecStatus status = ExecStatus::kSuccess;
  uint64_t gas_used = 0;
  std::vector<Operand> return_words;
};

// Outcome of running an AP on the critical path.
struct ApRunResult {
  bool satisfied = false;      // false => constraint violation, caller falls back
  bool perfect = false;        // every shortcut taken and every read matched memo
  ExecResult result;           // valid when satisfied
  size_t instrs_executed = 0;  // instruction nodes actually evaluated
  size_t instrs_skipped = 0;   // instruction nodes bypassed via shortcuts
};

// Execution statistics of one AP structure.
struct ApStats {
  size_t paths = 0;             // distinct fast paths merged in
  size_t nodes = 0;
  size_t guard_nodes = 0;
  size_t shortcut_nodes = 0;
  size_t instr_nodes = 0;
  size_t memo_entries = 0;
  size_t constraint_instrs = 0;  // instructions feeding guards (first path)
  size_t fast_path_instrs = 0;   // remaining instructions (first path)
};

class Ap {
 public:
  Ap() = default;

  // Builds a single-path AP from a finalized LinearIr: dead-code elimination,
  // rollback-free partitioning (constraint section before effects), then
  // shortcut synthesis. Updates ir.stats (dead_eliminated, final sizes).
  static Ap Build(LinearIr&& ir, const ApOptions& options = ApOptions());

  // Merges `other` into this AP. Returns false when the programs disagree
  // somewhere other than a guard (which cannot happen for traces of the same
  // transaction built by this pipeline, but is handled defensively).
  bool MergeWith(const Ap& other);

  // Runs the AP against the actual context. Applies effects to `state` only
  // along satisfied paths (all effects sit behind the last guard).
  ApRunResult Execute(WorldState* state, const BlockContext& block) const;

  const ApStats& stats() const { return stats_; }
  // Synthesis accounting of the (first) path, completed by Build's DCE and
  // partitioning passes (Figure 15).
  const SynthesisStats& synthesis_stats() const { return synthesis_stats_; }
  RegId n_regs() const { return n_regs_; }
  bool empty() const { return nodes_.empty(); }
  const std::vector<ApNode>& nodes() const { return nodes_; }

  // Debug rendering of the node graph.
  std::string Render() const;

 private:
  uint32_t MergeChain(const Ap& other, uint32_t my_idx, uint32_t other_idx,
                      std::vector<std::vector<int64_t>>* memo, bool* failed);
  uint32_t CopyChain(const Ap& other, uint32_t other_idx,
                     std::vector<int64_t>* copy_map);
  void RecountStats();

  std::vector<ApNode> nodes_;
  uint32_t entry_ = 0;
  RegId n_regs_ = 0;
  ApStats stats_;
  SynthesisStats synthesis_stats_;
};

}  // namespace frn

#endif  // SRC_CORE_AP_H_
