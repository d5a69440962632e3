#include "src/forerunner/speculator.h"

#include <algorithm>

#include "src/evm/evm.h"

namespace frn {

namespace {

// Perfect-match candidates kept per transaction (the newest ones).
constexpr size_t kMaxRecords = 4;

// Extracts the perfect-match record from a finalized LinearIr: every context
// read with its traced arguments/value, and the concrete write set.
FutureRecord ExtractRecord(const LinearIr& ir, const ExecResult& result) {
  FutureRecord record;
  auto resolve = [&](const Operand& o) {
    return o.is_const ? o.value : ir.traced_values[o.reg];
  };
  for (const SInstr& instr : ir.instrs) {
    if (IsContextRead(instr.op)) {
      ObservedRead read;
      read.op = instr.op;
      for (const Operand& a : instr.args) {
        read.args.push_back(resolve(a));
      }
      read.value = ir.traced_values[instr.dest];
      record.reads.push_back(std::move(read));
    } else if (instr.op == SOp::kSstore) {
      record.storage_writes.emplace_back(Address::FromU256(resolve(instr.args[0])),
                                         resolve(instr.args[1]), resolve(instr.args[2]));
    } else if (instr.op == SOp::kTransfer) {
      record.transfers.push_back({Address::FromU256(resolve(instr.args[0])),
                                  Address::FromU256(resolve(instr.args[1])),
                                  resolve(instr.args[2])});
    }
  }
  record.result = result;
  return record;
}

void MergeReadSet(ReadSet* into, const ReadSet& from) {
  for (const Address& a : from.accounts) {
    if (std::find(into->accounts.begin(), into->accounts.end(), a) == into->accounts.end()) {
      into->accounts.push_back(a);
    }
  }
  for (const auto& key : from.storage_keys) {
    if (std::find(into->storage_keys.begin(), into->storage_keys.end(), key) ==
        into->storage_keys.end()) {
      into->storage_keys.push_back(key);
    }
  }
}

}  // namespace

bool Speculator::SpeculateFuture(const Hash& root, const Transaction& tx,
                                 const FutureContext& future, TxSpeculation* spec) const {
  Stopwatch total;
  spec->tx_id = tx.id;
  ++spec->futures;

  // Scratch view of the chain state: journaled writes are never committed.
  // Retained roots pin a snapshot handle answering reads O(1) (workers only
  // read the store; an unretained root harmlessly reads the trie).
  StateDb scratch(trie_, root, versioned_);

  // Replay the predicted predecessors to construct the speculated context.
  {
    Evm evm(&scratch, future.header);
    for (const Transaction& pred : future.predecessors) {
      evm.ExecuteTransaction(pred);
    }
  }

  // Traced pre-execution of the target transaction.
  Stopwatch exec_watch;
  TraceBuilder builder(tx, &scratch);
  Evm evm(&scratch, future.header);
  ExecResult speculated = evm.ExecuteTransaction(tx, &builder);
  spec->plain_exec_seconds += exec_watch.ElapsedSeconds();

  MergeReadSet(&spec->read_set, builder.read_set());

  LinearIr ir;
  bool synthesized = builder.Finalize(speculated, &ir);
  if (synthesized) {
    if (spec->records.size() >= kMaxRecords) {
      spec->records.erase(spec->records.begin());  // keep the newest records
    }
    spec->records.push_back(ExtractRecord(ir, speculated));
    Ap ap = Ap::Build(std::move(ir), options_.ap);
    spec->last_stats = ap.synthesis_stats();
    if (!spec->has_ap) {
      spec->ap = std::move(ap);
      spec->has_ap = true;
    } else if (!spec->ap.MergeWith(ap)) {
      ++spec->merge_failures;  // defensive: keep the existing AP
    }
  }
  spec->synthesis_seconds += total.ElapsedSeconds();
  return synthesized;
}

}  // namespace frn
