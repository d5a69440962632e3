// The linear S-EVM program produced by translating one execution trace, plus
// the synthesis statistics that back Figure 15. A LinearIr is single-path:
// guards assert the CD-Equiv constraints of the trace it came from, effects
// carry the write set, and the tail metadata reproduces the transaction's
// externally visible result.
#ifndef SRC_CORE_LINEAR_IR_H_
#define SRC_CORE_LINEAR_IR_H_

#include <vector>

#include "src/core/sevm.h"

namespace frn {

// Storage and account locations a pre-execution touched; drives the
// prefetcher regardless of whether AP synthesis succeeded.
struct ReadSet {
  std::vector<Address> accounts;
  std::vector<std::pair<Address, U256>> storage_keys;
};

// Per-stage instruction accounting for the Figure 15 code-reduction chart.
// All counts are in instructions; percentages are computed by the bench.
struct SynthesisStats {
  size_t evm_trace_len = 0;          // instructions in the EVM trace
  size_t decomposition_added = 0;    // extra S-EVM instrs from complex decomposition
  size_t stack_eliminated = 0;       // PUSH/DUP/SWAP/POP
  size_t memory_eliminated = 0;      // MLOAD/MSTORE/MSTORE8/MSIZE
  size_t control_eliminated = 0;     // JUMP/JUMPI/JUMPDEST/PC/STOP/RETURN/REVERT/CALL
  size_t state_eliminated = 0;       // redundant SLOAD/SSTOREs promoted away
  size_t constant_folded = 0;        // computes folded at build time
  size_t cse_eliminated = 0;         // duplicate computes unified
  size_t dead_eliminated = 0;        // removed by dead-code elimination
  size_t guards_inserted = 0;        // control + data guard instructions
  size_t constraint_instrs_added = 0;  // non-guard instrs added purely for constraints
  size_t final_total = 0;            // instructions in the finished path
  size_t final_fast_path = 0;        // ... of which belong to the fast path

  bool operator==(const SynthesisStats&) const = default;
};

struct LinearIr {
  std::vector<SInstr> instrs;
  RegId n_regs = 0;

  // The trace-constant transaction outcome.
  ExecStatus status = ExecStatus::kSuccess;
  uint64_t gas_used = 0;
  // Return data as 32-byte word operands (empty => empty return data).
  std::vector<Operand> return_words;

  ReadSet read_set;
  SynthesisStats stats;

  // Traced concrete value of every register (used by memoization to record
  // the remembered inputs/outputs of each shortcut segment).
  std::vector<U256> traced_values;
};

}  // namespace frn

#endif  // SRC_CORE_LINEAR_IR_H_
