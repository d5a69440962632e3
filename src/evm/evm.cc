#include "src/evm/evm.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/keccak.h"
#include "src/rlp/rlp.h"

namespace frn {

namespace {

// Hard cap on addressable memory per frame; offsets beyond this fail the
// frame as out-of-gas (the quadratic cost would exceed any real gas limit).
constexpr uint64_t kMaxMemoryBytes = 16u << 20;

uint64_t MemWordCost(uint64_t words) {
  return GasSchedule::kMemoryWord * words + words * words / GasSchedule::kQuadCoeffDiv;
}

class EvmMemory {
 public:
  // Expands memory to cover [offset, offset+size) and returns the expansion
  // gas, or UINT64_MAX when the range is unaddressable.
  uint64_t ExpandFor(const U256& offset, const U256& size) {
    if (size.IsZero()) {
      return 0;
    }
    if (!offset.FitsUint64() || !size.FitsUint64()) {
      return UINT64_MAX;
    }
    uint64_t off = offset.AsUint64();
    uint64_t len = size.AsUint64();
    if (off > kMaxMemoryBytes || len > kMaxMemoryBytes || off + len > kMaxMemoryBytes) {
      return UINT64_MAX;
    }
    uint64_t end_words = (off + len + 31) / 32;
    uint64_t cur_words = data_.size() / 32;
    if (end_words <= cur_words) {
      return 0;
    }
    uint64_t cost = MemWordCost(end_words) - MemWordCost(cur_words);
    data_.resize(end_words * 32, 0);
    return cost;
  }

  U256 LoadWord(uint64_t offset) const {
    return U256::FromBigEndian(data_.data() + offset, 32);
  }

  void StoreWord(uint64_t offset, const U256& value) {
    auto be = value.ToBigEndian();
    std::copy(be.begin(), be.end(), data_.begin() + static_cast<ptrdiff_t>(offset));
  }

  void StoreByte(uint64_t offset, uint8_t value) { data_[offset] = value; }

  Bytes Slice(uint64_t offset, uint64_t size) const {
    Bytes out(size, 0);
    if (size > 0) {
      std::copy(data_.begin() + static_cast<ptrdiff_t>(offset),
                data_.begin() + static_cast<ptrdiff_t>(offset + size), out.begin());
    }
    return out;
  }

  void Write(uint64_t offset, const uint8_t* src, uint64_t size) {
    std::copy(src, src + size, data_.begin() + static_cast<ptrdiff_t>(offset));
  }

  size_t size() const { return data_.size(); }

 private:
  Bytes data_;
};

// Valid JUMPDEST positions: code positions not inside PUSH immediates.
std::vector<bool> ComputeJumpDests(const Bytes& code) {
  std::vector<bool> valid(code.size(), false);
  for (size_t i = 0; i < code.size(); ++i) {
    uint8_t op = code[i];
    if (op == static_cast<uint8_t>(Opcode::kJumpdest)) {
      valid[i] = true;
    }
    if (IsPush(op)) {
      i += static_cast<size_t>(PushSize(op));
    }
  }
  return valid;
}

}  // namespace

uint64_t Transaction::IntrinsicGas() const {
  uint64_t gas = GasSchedule::kTxBase;
  for (uint8_t b : data) {
    gas += (b == 0) ? GasSchedule::kTxDataZeroByte : GasSchedule::kTxDataNonZeroByte;
  }
  return gas;
}

const char* ExecStatusName(ExecStatus status) {
  switch (status) {
    case ExecStatus::kSuccess:
      return "success";
    case ExecStatus::kReverted:
      return "reverted";
    case ExecStatus::kOutOfGas:
      return "out-of-gas";
    case ExecStatus::kInvalidInstruction:
      return "invalid-instruction";
    case ExecStatus::kBadNonce:
      return "bad-nonce";
    case ExecStatus::kInsufficientBalance:
      return "insufficient-balance";
  }
  return "unknown";
}

Address Evm::CreateAddress(const Address& creator, uint64_t nonce) {
  const auto& sender = creator.bytes();
  const size_t payload =
      RlpEncoder::StringSize(sender.data(), sender.size()) + RlpEncoder::UintSize(nonce);
  Bytes rlp;
  rlp.reserve(RlpEncoder::HeaderSize(payload) + payload);
  RlpEncoder::AppendListHeader(&rlp, payload);
  RlpEncoder::AppendString(&rlp, sender.data(), sender.size());
  RlpEncoder::AppendUint(&rlp, nonce);
  Hash h = Keccak256(rlp);
  std::array<uint8_t, 20> out;
  std::copy(h.bytes().begin() + 12, h.bytes().end(), out.begin());
  return Address(out);
}

Hash Evm::BlockHash(uint64_t chain_seed, uint64_t number) {
  uint8_t buf[16];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<uint8_t>(chain_seed >> (8 * i));
    buf[8 + i] = static_cast<uint8_t>(number >> (8 * i));
  }
  return Keccak256(buf, sizeof buf);
}

ExecResult Evm::ExecuteTransaction(const Transaction& tx, Tracer* tracer) {
  ExecResult result;
  if (state_->GetNonce(tx.sender) != tx.nonce) {
    result.status = ExecStatus::kBadNonce;
    return result;
  }
  U256 gas_cost = U256(tx.gas_limit) * tx.gas_price;
  if (state_->GetBalance(tx.sender) < gas_cost + tx.value) {
    result.status = ExecStatus::kInsufficientBalance;
    return result;
  }
  uint64_t intrinsic = tx.IntrinsicGas();
  if (intrinsic > tx.gas_limit) {
    result.status = ExecStatus::kOutOfGas;
    result.gas_used = tx.gas_limit;
    return result;
  }
  // Buy gas, bump nonce.
  state_->SubBalance(tx.sender, gas_cost);
  state_->SetNonce(tx.sender, tx.nonce + 1);

  std::vector<LogEntry> logs;
  CallOutcome outcome;
  if (tx.to.IsZero()) {
    // Contract-creation transaction: tx.data is the init code and the new
    // account address is derived from (sender, nonce). The receipt-style
    // return data is the 20-byte deployed address.
    Address new_addr = CreateAddress(tx.sender, tx.nonce);
    outcome = Create(tx.sender, new_addr, tx.value, tx.data, tx.gas_limit - intrinsic, 0,
                     false, tx.sender, tx.gas_price, &logs, tracer);
    if (outcome.success) {
      outcome.output.assign(new_addr.bytes().begin(), new_addr.bytes().end());
    }
  } else {
    CallParams params;
    params.caller = tx.sender;
    params.to = tx.to;
    params.code_addr = tx.to;
    params.value = tx.value;
    params.data = &tx.data;
    params.gas = tx.gas_limit - intrinsic;
    params.depth = 0;
    params.origin = tx.sender;
    params.gas_price = tx.gas_price;
    outcome = Call(params, &logs, tracer);
  }

  uint64_t gas_used = tx.gas_limit - outcome.gas_left;
  result.gas_used = gas_used;
  result.return_data = std::move(outcome.output);
  if (outcome.success) {
    result.status = ExecStatus::kSuccess;
    result.logs = std::move(logs);
  } else {
    result.status = outcome.out_of_gas ? ExecStatus::kOutOfGas : ExecStatus::kReverted;
  }
  // Refund unused gas and pay the miner.
  state_->AddBalance(tx.sender, U256(outcome.gas_left) * tx.gas_price);
  state_->AddBalance(block_.coinbase, U256(gas_used) * tx.gas_price);
  return result;
}

Evm::CallOutcome Evm::Call(const CallParams& params, std::vector<LogEntry>* logs,
                           Tracer* tracer) {
  CallOutcome outcome;
  outcome.gas_left = params.gas;
  if (params.depth > static_cast<int>(GasSchedule::kCallStipendDepth)) {
    outcome.success = false;
    return outcome;
  }
  int snapshot = state_->Snapshot();
  size_t log_mark = logs->size();
  if (params.transfer_value && !params.value.IsZero()) {
    if (!state_->SubBalance(params.caller, params.value)) {
      outcome.success = false;
      return outcome;
    }
    state_->AddBalance(params.to, params.value);
  }
  Bytes code = state_->GetCode(params.code_addr);
  if (code.empty()) {
    outcome.success = true;  // plain transfer
    return outcome;
  }
  outcome = Interpret(params, code, logs, tracer);
  if (!outcome.success) {
    state_->RevertToSnapshot(snapshot);
    logs->resize(log_mark);
  }
  return outcome;
}

Evm::CallOutcome Evm::Create(const Address& creator, const Address& new_addr,
                             const U256& value, const Bytes& init, uint64_t gas, int depth,
                             bool is_static, const Address& origin, const U256& gas_price,
                             std::vector<LogEntry>* logs, Tracer* tracer) {
  CallOutcome outcome;
  outcome.gas_left = gas;
  if (is_static || depth > static_cast<int>(GasSchedule::kCallStipendDepth)) {
    outcome.success = false;
    return outcome;
  }
  int snapshot = state_->Snapshot();
  size_t log_mark = logs->size();
  if (!value.IsZero()) {
    if (!state_->SubBalance(creator, value)) {
      outcome.success = false;
      return outcome;
    }
    state_->AddBalance(new_addr, value);
  }
  state_->CreateAccount(new_addr);
  Bytes empty_calldata;
  CallParams params;
  params.caller = creator;
  params.to = new_addr;
  params.code_addr = new_addr;
  params.value = value;
  params.data = &empty_calldata;
  params.gas = gas;
  params.depth = depth;
  params.origin = origin;
  params.gas_price = gas_price;
  outcome = Interpret(params, init, logs, tracer);
  if (outcome.success) {
    // Code-deposit charge: 200 gas per byte of runtime code.
    uint64_t deposit = 200 * static_cast<uint64_t>(outcome.output.size());
    if (outcome.gas_left < deposit) {
      outcome.success = false;
      outcome.out_of_gas = true;
      outcome.gas_left = 0;
    } else {
      outcome.gas_left -= deposit;
      state_->SetCode(new_addr, outcome.output);
    }
  }
  if (!outcome.success) {
    state_->RevertToSnapshot(snapshot);
    logs->resize(log_mark);
  }
  return outcome;
}

Evm::CallOutcome Evm::Interpret(const CallParams& params, const Bytes& code,
                                std::vector<LogEntry>* logs, Tracer* tracer) {
  CallOutcome outcome;
  uint64_t gas = params.gas;
  std::vector<U256> stack;
  stack.reserve(64);
  EvmMemory memory;
  Bytes return_data_buffer;  // last callee's return data
  std::vector<bool> jumpdests = ComputeJumpDests(code);
  const Bytes& calldata = *params.data;

  auto fail_oog = [&]() {
    outcome.success = false;
    outcome.out_of_gas = true;
    outcome.gas_left = 0;
    return outcome;
  };
  auto fail_invalid = [&]() {
    outcome.success = false;
    outcome.out_of_gas = false;
    outcome.gas_left = 0;
    return outcome;
  };

  auto emit = [&](Opcode op, uint32_t pc, std::vector<U256> inputs, std::vector<U256> outputs,
                  Bytes aux = {}) {
    if (tracer != nullptr) {
      TraceStep step;
      step.op = op;
      step.pc = pc;
      step.depth = static_cast<uint16_t>(params.depth);
      step.code_address = params.to;
      step.inputs = std::move(inputs);
      step.outputs = std::move(outputs);
      step.aux = std::move(aux);
      tracer->OnStep(step);
    }
  };

  size_t pc = 0;
  while (pc < code.size()) {
    uint8_t opcode_byte = code[pc];
    const OpcodeInfo& info = GetOpcodeInfo(opcode_byte);
    if (!info.defined) {
      return fail_invalid();
    }
    Opcode op = static_cast<Opcode>(opcode_byte);
    if (stack.size() < static_cast<size_t>(info.pops)) {
      return fail_invalid();
    }
    if (stack.size() - info.pops + info.pushes > 1024) {
      return fail_invalid();
    }
    if (gas < info.base_gas) {
      return fail_oog();
    }
    gas -= info.base_gas;

    auto pop = [&]() {
      U256 v = stack.back();
      stack.pop_back();
      return v;
    };
    auto push = [&](const U256& v) { stack.push_back(v); };
    // Charges dynamic gas; returns false on OOG.
    auto charge = [&](uint64_t amount) {
      if (amount == UINT64_MAX || gas < amount) {
        return false;
      }
      gas -= amount;
      return true;
    };
    auto copy_gas = [&](const U256& size) -> uint64_t {
      if (!size.FitsUint64() || size.AsUint64() > kMaxMemoryBytes) {
        return UINT64_MAX;
      }
      return GasSchedule::kCopyWord * ((size.AsUint64() + 31) / 32);
    };

    uint32_t cur_pc = static_cast<uint32_t>(pc);
    size_t next_pc = pc + 1;

    switch (op) {
      case Opcode::kStop:
        emit(op, cur_pc, {}, {});
        outcome.success = true;
        outcome.gas_left = gas;
        return outcome;

      // ---- Binary arithmetic / comparison / bitwise ----
      case Opcode::kAdd:
      case Opcode::kMul:
      case Opcode::kSub:
      case Opcode::kDiv:
      case Opcode::kSdiv:
      case Opcode::kMod:
      case Opcode::kSmod:
      case Opcode::kExp:
      case Opcode::kSignextend:
      case Opcode::kLt:
      case Opcode::kGt:
      case Opcode::kSlt:
      case Opcode::kSgt:
      case Opcode::kEq:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kByte:
      case Opcode::kShl:
      case Opcode::kShr:
      case Opcode::kSar: {
        U256 a = pop();
        U256 b = pop();
        U256 r;
        switch (op) {
          case Opcode::kAdd: r = a + b; break;
          case Opcode::kMul: r = a * b; break;
          case Opcode::kSub: r = a - b; break;
          case Opcode::kDiv: r = a / b; break;
          case Opcode::kSdiv: r = U256::Sdiv(a, b); break;
          case Opcode::kMod: r = a % b; break;
          case Opcode::kSmod: r = U256::Smod(a, b); break;
          case Opcode::kExp: r = U256::Exp(a, b); break;
          case Opcode::kSignextend: r = U256::SignExtend(a, b); break;
          case Opcode::kLt: r = (a < b) ? U256(1) : U256(); break;
          case Opcode::kGt: r = (a > b) ? U256(1) : U256(); break;
          case Opcode::kSlt: r = U256::Slt(a, b) ? U256(1) : U256(); break;
          case Opcode::kSgt: r = U256::Slt(b, a) ? U256(1) : U256(); break;
          case Opcode::kEq: r = (a == b) ? U256(1) : U256(); break;
          case Opcode::kAnd: r = a & b; break;
          case Opcode::kOr: r = a | b; break;
          case Opcode::kXor: r = a ^ b; break;
          case Opcode::kByte: r = U256::ByteAt(a, b); break;
          case Opcode::kShl: r = b << static_cast<unsigned>(
                                     a.FitsUint64() && a.AsUint64() < 256 ? a.AsUint64() : 256);
            break;
          case Opcode::kShr: r = b >> static_cast<unsigned>(
                                     a.FitsUint64() && a.AsUint64() < 256 ? a.AsUint64() : 256);
            break;
          case Opcode::kSar: r = U256::Sar(a, b); break;
          default: break;
        }
        push(r);
        emit(op, cur_pc, {a, b}, {r});
        break;
      }

      case Opcode::kAddmod:
      case Opcode::kMulmod: {
        U256 a = pop();
        U256 b = pop();
        U256 m = pop();
        U256 r = (op == Opcode::kAddmod) ? U256::AddMod(a, b, m) : U256::MulMod(a, b, m);
        push(r);
        emit(op, cur_pc, {a, b, m}, {r});
        break;
      }

      case Opcode::kIszero:
      case Opcode::kNot: {
        U256 a = pop();
        U256 r = (op == Opcode::kIszero) ? (a.IsZero() ? U256(1) : U256()) : ~a;
        push(r);
        emit(op, cur_pc, {a}, {r});
        break;
      }

      case Opcode::kSha3: {
        U256 offset = pop();
        U256 size = pop();
        uint64_t expand = memory.ExpandFor(offset, size);
        if (!charge(expand)) {
          return fail_oog();
        }
        if (!size.FitsUint64() ||
            !charge(GasSchedule::kSha3Word * ((size.AsUint64() + 31) / 32))) {
          return fail_oog();
        }
        Bytes preimage = memory.Slice(offset.AsUint64(), size.AsUint64());
        U256 r = Keccak256(preimage).ToU256();
        push(r);
        emit(op, cur_pc, {offset, size}, {r}, std::move(preimage));
        break;
      }

      // ---- Environment ----
      case Opcode::kAddress: {
        U256 r = params.to.ToU256();
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kBalance: {
        U256 a = pop();
        U256 r = state_->GetBalance(Address::FromU256(a));
        push(r);
        emit(op, cur_pc, {a}, {r});
        break;
      }
      case Opcode::kSelfbalance: {
        U256 r = state_->GetBalance(params.to);
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kOrigin: {
        U256 r = params.origin.ToU256();
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kCaller: {
        U256 r = params.caller.ToU256();
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kCallvalue: {
        push(params.value);
        emit(op, cur_pc, {}, {params.value});
        break;
      }
      case Opcode::kCalldataload: {
        U256 offset = pop();
        U256 r;
        if (offset.FitsUint64() && offset.AsUint64() < calldata.size()) {
          uint8_t word[32] = {0};
          uint64_t off = offset.AsUint64();
          uint64_t n = std::min<uint64_t>(32, calldata.size() - off);
          std::copy(calldata.begin() + static_cast<ptrdiff_t>(off),
                    calldata.begin() + static_cast<ptrdiff_t>(off + n), word);
          r = U256::FromBigEndian(word, 32);
        }
        push(r);
        emit(op, cur_pc, {offset}, {r});
        break;
      }
      case Opcode::kCalldatasize: {
        U256 r(static_cast<uint64_t>(calldata.size()));
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kCalldatacopy:
      case Opcode::kCodecopy:
      case Opcode::kReturndatacopy: {
        U256 dest = pop();
        U256 src_off = pop();
        U256 size = pop();
        uint64_t expand = memory.ExpandFor(dest, size);
        if (!charge(expand) || !charge(copy_gas(size))) {
          return fail_oog();
        }
        const Bytes* source = &calldata;
        if (op == Opcode::kCodecopy) {
          source = &code;
        } else if (op == Opcode::kReturndatacopy) {
          source = &return_data_buffer;
          // RETURNDATACOPY out of bounds is a hard failure per EIP-211.
          if (!src_off.FitsUint64() || !size.FitsUint64() ||
              src_off.AsUint64() + size.AsUint64() > return_data_buffer.size()) {
            return fail_invalid();
          }
        }
        Bytes payload;
        if (!size.IsZero()) {
          uint64_t n = size.AsUint64();
          payload.assign(n, 0);
          if (src_off.FitsUint64() && src_off.AsUint64() < source->size()) {
            uint64_t off = src_off.AsUint64();
            uint64_t copy_n = std::min<uint64_t>(n, source->size() - off);
            std::copy(source->begin() + static_cast<ptrdiff_t>(off),
                      source->begin() + static_cast<ptrdiff_t>(off + copy_n), payload.begin());
          }
          memory.Write(dest.AsUint64(), payload.data(), n);
        }
        emit(op, cur_pc, {dest, src_off, size}, {}, std::move(payload));
        break;
      }
      case Opcode::kCodesize: {
        U256 r(static_cast<uint64_t>(code.size()));
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kGasprice: {
        push(params.gas_price);
        emit(op, cur_pc, {}, {params.gas_price});
        break;
      }
      case Opcode::kReturndatasize: {
        U256 r(static_cast<uint64_t>(return_data_buffer.size()));
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kExtcodesize: {
        U256 a = pop();
        U256 r(static_cast<uint64_t>(state_->GetCode(Address::FromU256(a)).size()));
        push(r);
        emit(op, cur_pc, {a}, {r});
        break;
      }
      case Opcode::kExtcodehash: {
        U256 a = pop();
        U256 r = state_->GetCodeHash(Address::FromU256(a)).ToU256();
        push(r);
        emit(op, cur_pc, {a}, {r});
        break;
      }
      case Opcode::kExtcodecopy: {
        U256 addr_word = pop();
        U256 dest = pop();
        U256 src_off = pop();
        U256 size = pop();
        uint64_t expand = memory.ExpandFor(dest, size);
        if (!charge(expand) || !charge(copy_gas(size))) {
          return fail_oog();
        }
        Bytes ext_code = state_->GetCode(Address::FromU256(addr_word));
        Bytes payload;
        if (!size.IsZero()) {
          uint64_t n = size.AsUint64();
          payload.assign(n, 0);
          if (src_off.FitsUint64() && src_off.AsUint64() < ext_code.size()) {
            uint64_t off = src_off.AsUint64();
            uint64_t copy_n = std::min<uint64_t>(n, ext_code.size() - off);
            std::copy(ext_code.begin() + static_cast<ptrdiff_t>(off),
                      ext_code.begin() + static_cast<ptrdiff_t>(off + copy_n),
                      payload.begin());
          }
          memory.Write(dest.AsUint64(), payload.data(), n);
        }
        emit(op, cur_pc, {addr_word, dest, src_off, size}, {}, std::move(payload));
        break;
      }

      case Opcode::kCreate: {
        if (params.is_static) {
          return fail_invalid();
        }
        U256 value = pop();
        U256 offset = pop();
        U256 size = pop();
        if (!charge(memory.ExpandFor(offset, size))) {
          return fail_oog();
        }
        Bytes init = size.IsZero() ? Bytes{} : memory.Slice(offset.AsUint64(), size.AsUint64());
        uint64_t nonce = state_->GetNonce(params.to);
        state_->SetNonce(params.to, nonce + 1);
        Address new_addr = CreateAddress(params.to, nonce);
        uint64_t callee_gas = gas - gas / 64;
        if (tracer != nullptr) {
          TraceStep step;
          step.op = op;
          step.phase = TracePhase::kCallEnter;
          step.pc = cur_pc;
          step.depth = static_cast<uint16_t>(params.depth);
          step.code_address = params.to;
          step.inputs = {value, offset, size};
          step.aux = init;
          tracer->OnStep(step);
        }
        CallOutcome sub = Create(params.to, new_addr, value, init, callee_gas,
                                 params.depth + 1, params.is_static, params.origin,
                                 params.gas_price, logs, tracer);
        gas -= callee_gas - sub.gas_left;
        return_data_buffer.clear();  // CREATE leaves no return data on success
        U256 result = sub.success ? new_addr.ToU256() : U256();
        push(result);
        if (tracer != nullptr) {
          TraceStep step;
          step.op = op;
          step.phase = TracePhase::kCallExit;
          step.pc = cur_pc;
          step.depth = static_cast<uint16_t>(params.depth);
          step.code_address = params.to;
          step.outputs = {result};
          tracer->OnStep(step);
        }
        break;
      }

      // ---- Block information ----
      case Opcode::kBlockhash: {
        U256 n = pop();
        U256 r;
        if (n.FitsUint64() && n.AsUint64() < block_.number &&
            n.AsUint64() + 256 >= block_.number) {
          r = BlockHash(block_.chain_seed, n.AsUint64()).ToU256();
        }
        push(r);
        emit(op, cur_pc, {n}, {r});
        break;
      }
      case Opcode::kCoinbase: {
        U256 r = block_.coinbase.ToU256();
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kTimestamp: {
        U256 r(block_.timestamp);
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kNumber: {
        U256 r(block_.number);
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kDifficulty: {
        push(block_.difficulty);
        emit(op, cur_pc, {}, {block_.difficulty});
        break;
      }
      case Opcode::kGaslimit: {
        U256 r(block_.gas_limit);
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kChainid: {
        U256 r(block_.chain_id);
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }

      // ---- Stack / memory / storage / flow ----
      case Opcode::kPop: {
        U256 a = pop();
        emit(op, cur_pc, {a}, {});
        break;
      }
      case Opcode::kMload: {
        U256 offset = pop();
        if (!charge(memory.ExpandFor(offset, U256(32)))) {
          return fail_oog();
        }
        U256 r = memory.LoadWord(offset.AsUint64());
        push(r);
        emit(op, cur_pc, {offset}, {r});
        break;
      }
      case Opcode::kMstore: {
        U256 offset = pop();
        U256 value = pop();
        if (!charge(memory.ExpandFor(offset, U256(32)))) {
          return fail_oog();
        }
        memory.StoreWord(offset.AsUint64(), value);
        emit(op, cur_pc, {offset, value}, {});
        break;
      }
      case Opcode::kMstore8: {
        U256 offset = pop();
        U256 value = pop();
        if (!charge(memory.ExpandFor(offset, U256(1)))) {
          return fail_oog();
        }
        memory.StoreByte(offset.AsUint64(), static_cast<uint8_t>(value.AsUint64()));
        emit(op, cur_pc, {offset, value}, {});
        break;
      }
      case Opcode::kSload: {
        U256 key = pop();
        U256 r = state_->GetStorage(params.to, key);
        push(r);
        emit(op, cur_pc, {key}, {r});
        break;
      }
      case Opcode::kSstore: {
        if (params.is_static) {
          return fail_invalid();
        }
        U256 key = pop();
        U256 value = pop();
        state_->SetStorage(params.to, key, value);
        emit(op, cur_pc, {key, value}, {});
        break;
      }
      case Opcode::kJump: {
        U256 target = pop();
        emit(op, cur_pc, {target}, {});
        if (!target.FitsUint64() || target.AsUint64() >= code.size() ||
            !jumpdests[target.AsUint64()]) {
          return fail_invalid();
        }
        next_pc = target.AsUint64();
        break;
      }
      case Opcode::kJumpi: {
        U256 target = pop();
        U256 cond = pop();
        emit(op, cur_pc, {target, cond}, {});
        if (!cond.IsZero()) {
          if (!target.FitsUint64() || target.AsUint64() >= code.size() ||
              !jumpdests[target.AsUint64()]) {
            return fail_invalid();
          }
          next_pc = target.AsUint64();
        }
        break;
      }
      case Opcode::kPc: {
        U256 r(static_cast<uint64_t>(pc));
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kMsize: {
        U256 r(static_cast<uint64_t>(memory.size()));
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kGas: {
        U256 r(gas);
        push(r);
        emit(op, cur_pc, {}, {r});
        break;
      }
      case Opcode::kJumpdest:
        emit(op, cur_pc, {}, {});
        break;

      case Opcode::kLog0:
      case Opcode::kLog1:
      case Opcode::kLog2:
      case Opcode::kLog3:
      case Opcode::kLog4: {
        if (params.is_static) {
          return fail_invalid();
        }
        U256 offset = pop();
        U256 size = pop();
        int topic_count = LogTopics(opcode_byte);
        std::vector<U256> inputs = {offset, size};
        LogEntry entry;
        entry.address = params.to;
        for (int i = 0; i < topic_count; ++i) {
          U256 t = pop();
          entry.topics.push_back(t);
          inputs.push_back(t);
        }
        uint64_t expand = memory.ExpandFor(offset, size);
        if (!charge(expand)) {
          return fail_oog();
        }
        if (!size.FitsUint64() ||
            !charge(GasSchedule::kLogTopic * topic_count +
                    GasSchedule::kLogByte * size.AsUint64())) {
          return fail_oog();
        }
        entry.data = memory.Slice(offset.AsUint64(), size.AsUint64());
        Bytes aux = entry.data;
        logs->push_back(std::move(entry));
        emit(op, cur_pc, std::move(inputs), {}, std::move(aux));
        break;
      }

      case Opcode::kCall:
      case Opcode::kStaticcall:
      case Opcode::kDelegatecall: {
        bool is_static_call = (op == Opcode::kStaticcall);
        bool is_delegate = (op == Opcode::kDelegatecall);
        U256 gas_arg = pop();
        U256 to_word = pop();
        U256 value = (op == Opcode::kCall) ? pop() : U256();
        U256 in_off = pop();
        U256 in_size = pop();
        U256 out_off = pop();
        U256 out_size = pop();
        if (params.is_static && !value.IsZero()) {
          return fail_invalid();
        }
        uint64_t expand_in = memory.ExpandFor(in_off, in_size);
        if (!charge(expand_in)) {
          return fail_oog();
        }
        uint64_t expand_out = memory.ExpandFor(out_off, out_size);
        if (!charge(expand_out)) {
          return fail_oog();
        }
        Bytes input = in_size.IsZero()
                          ? Bytes{}
                          : memory.Slice(in_off.AsUint64(), in_size.AsUint64());
        // 63/64 rule: the callee gets at most all-but-1/64 of remaining gas.
        uint64_t max_forward = gas - gas / 64;
        uint64_t callee_gas =
            gas_arg.FitsUint64() ? std::min(gas_arg.AsUint64(), max_forward) : max_forward;

        std::vector<U256> call_inputs;
        if (op == Opcode::kCall) {
          call_inputs = {gas_arg, to_word, value, in_off, in_size, out_off, out_size};
        } else {
          call_inputs = {gas_arg, to_word, in_off, in_size, out_off, out_size};
        }
        if (tracer != nullptr) {
          TraceStep step;
          step.op = op;
          step.phase = TracePhase::kCallEnter;
          step.pc = cur_pc;
          step.depth = static_cast<uint16_t>(params.depth);
          step.code_address = params.to;
          step.inputs = call_inputs;
          step.aux = input;
          tracer->OnStep(step);
        }

        CallParams sub;
        if (is_delegate) {
          // DELEGATECALL: run the target's code in the current contract's
          // storage context, preserving caller and value.
          sub.caller = params.caller;
          sub.to = params.to;
          sub.code_addr = Address::FromU256(to_word);
          sub.value = params.value;
          sub.transfer_value = false;
        } else {
          sub.caller = params.to;
          sub.to = Address::FromU256(to_word);
          sub.code_addr = sub.to;
          sub.value = value;
        }
        sub.data = &input;
        sub.gas = callee_gas;
        sub.depth = params.depth + 1;
        sub.is_static = params.is_static || is_static_call;
        sub.origin = params.origin;
        sub.gas_price = params.gas_price;
        CallOutcome sub_outcome = Call(sub, logs, tracer);

        gas -= callee_gas - sub_outcome.gas_left;
        return_data_buffer = sub_outcome.output;
        Bytes written;
        if (!out_size.IsZero()) {
          uint64_t n = std::min<uint64_t>(out_size.AsUint64(), sub_outcome.output.size());
          if (n > 0) {
            memory.Write(out_off.AsUint64(), sub_outcome.output.data(), n);
            written.assign(sub_outcome.output.begin(),
                           sub_outcome.output.begin() + static_cast<ptrdiff_t>(n));
          }
        }
        U256 success = sub_outcome.success ? U256(1) : U256();
        push(success);
        if (tracer != nullptr) {
          TraceStep step;
          step.op = op;
          step.phase = TracePhase::kCallExit;
          step.pc = cur_pc;
          step.depth = static_cast<uint16_t>(params.depth);
          step.code_address = params.to;
          step.outputs = {success};
          step.aux = std::move(written);
          tracer->OnStep(step);
        }
        break;
      }

      case Opcode::kReturn:
      case Opcode::kRevert: {
        U256 offset = pop();
        U256 size = pop();
        if (!charge(memory.ExpandFor(offset, size))) {
          return fail_oog();
        }
        Bytes data = size.IsZero() ? Bytes{} : memory.Slice(offset.AsUint64(), size.AsUint64());
        emit(op, cur_pc, {offset, size}, {}, data);
        outcome.success = (op == Opcode::kReturn);
        outcome.gas_left = gas;
        outcome.output = std::move(data);
        return outcome;
      }

      case Opcode::kInvalid:
        return fail_invalid();

      default: {
        if (IsPush(opcode_byte)) {
          int n = PushSize(opcode_byte);
          uint8_t buf[32] = {0};
          for (int i = 0; i < n && pc + 1 + i < code.size(); ++i) {
            buf[i] = code[pc + 1 + i];
          }
          U256 r = U256::FromBigEndian(buf, static_cast<size_t>(n));
          push(r);
          emit(op, cur_pc, {}, {r});
          next_pc = pc + 1 + static_cast<size_t>(n);
          break;
        }
        if (IsDup(opcode_byte)) {
          int n = DupIndex(opcode_byte);
          U256 r = stack[stack.size() - static_cast<size_t>(n)];
          push(r);
          emit(op, cur_pc, {}, {r});
          break;
        }
        if (IsSwap(opcode_byte)) {
          int n = SwapIndex(opcode_byte);
          std::swap(stack[stack.size() - 1], stack[stack.size() - 1 - static_cast<size_t>(n)]);
          emit(op, cur_pc, {}, {});
          break;
        }
        return fail_invalid();
      }
    }
    pc = next_pc;
  }
  // Ran off the end of the code: implicit STOP.
  outcome.success = true;
  outcome.gas_left = gas;
  return outcome;
}

}  // namespace frn
