#include "src/core/ap.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>

namespace frn {

namespace {

bool IsExpensive(SOp op) {
  switch (op) {
    case SOp::kKeccak:
    case SOp::kExp:
    case SOp::kDiv:
    case SOp::kSdiv:
    case SOp::kMod:
    case SOp::kSmod:
    case SOp::kAddMod:
    case SOp::kMulMod:
      return true;
    default:
      return false;
  }
}

// ---- Dead code elimination + rollback-free partitioning ----
// Returns the optimized instruction order: constraint section (everything
// guards transitively depend on, guards interleaved in original order)
// followed by the fast path (remaining computes/reads, then effects last by
// construction). Fills stats.dead_eliminated / final_total / final_fast_path.
std::vector<SInstr> OptimizeLinear(LinearIr* ir, size_t* constraint_len) {
  const std::vector<SInstr>& in = ir->instrs;
  size_t n_regs = ir->n_regs;
  std::vector<bool> live(n_regs, false);
  auto mark_args = [&](const SInstr& instr, std::vector<bool>* set) {
    for (const Operand& a : instr.args) {
      if (!a.is_const) {
        (*set)[a.reg] = true;
      }
    }
  };
  for (const SInstr& instr : in) {
    if (instr.op == SOp::kGuard || IsEffect(instr.op)) {
      mark_args(instr, &live);
    }
  }
  for (const Operand& w : ir->return_words) {
    if (!w.is_const) {
      live[w.reg] = true;
    }
  }
  // Backward liveness propagation and dead-instruction marking.
  std::vector<bool> keep(in.size(), false);
  for (size_t i = in.size(); i-- > 0;) {
    const SInstr& instr = in[i];
    if (instr.op == SOp::kGuard || IsEffect(instr.op)) {
      keep[i] = true;
      continue;  // args already marked
    }
    if (instr.dest != kNoReg && live[instr.dest]) {
      keep[i] = true;
      mark_args(instr, &live);
    }
  }
  // Guard dependency closure (what must run before constraint checking).
  std::vector<bool> for_guard(n_regs, false);
  for (const SInstr& instr : in) {
    if (instr.op == SOp::kGuard) {
      mark_args(instr, &for_guard);
    }
  }
  for (size_t i = in.size(); i-- > 0;) {
    const SInstr& instr = in[i];
    if (keep[i] && instr.dest != kNoReg && for_guard[instr.dest]) {
      mark_args(instr, &for_guard);
    }
  }

  std::vector<SInstr> out;
  out.reserve(in.size());
  size_t dead = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    if (!keep[i]) {
      ++dead;
      continue;
    }
    const SInstr& instr = in[i];
    bool constraint_side =
        instr.op == SOp::kGuard || (instr.dest != kNoReg && for_guard[instr.dest]);
    if (constraint_side) {
      out.push_back(instr);
    }
  }
  *constraint_len = out.size();
  for (size_t i = 0; i < in.size(); ++i) {
    if (!keep[i]) {
      continue;
    }
    const SInstr& instr = in[i];
    bool constraint_side =
        instr.op == SOp::kGuard || (instr.dest != kNoReg && for_guard[instr.dest]);
    if (!constraint_side) {
      out.push_back(instr);
    }
  }
  ir->stats.dead_eliminated += dead;
  ir->stats.final_total = out.size();
  ir->stats.final_fast_path = out.size() - *constraint_len;
  return out;
}

uint64_t PairKey(uint32_t a, uint32_t b) { return (static_cast<uint64_t>(a) << 32) | b; }

bool DoneEqual(const ApNode& a, const ApNode& b) {
  return a.status == b.status && a.gas_used == b.gas_used && a.return_words == b.return_words;
}

// Shortcut eligibility: a compute run qualifies when it has at most this many
// external inputs ...
constexpr size_t kMaxShortcutInputs = 4;
// ... and at least this many instructions (expensive instructions such as
// KECCAK/EXP/DIV always qualify).
constexpr size_t kMinShortcutLen = 2;
// Maximal compute runs are split into sub-runs of at most this many external
// inputs — the paper's nested-shortcut refinement: a segment depending on
// fewer read-set registers is more likely to be skippable.
constexpr size_t kMaxSubrunInputs = 2;

}  // namespace

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

Ap Ap::Build(LinearIr&& ir, const ApOptions& options) {
  Ap ap;
  ap.n_regs_ = ir.n_regs;
  size_t constraint_len = 0;
  std::vector<SInstr> ordered = OptimizeLinear(&ir, &constraint_len);

  // Which registers are referenced after each position (for shortcut outputs).
  // last_use[r] = last index in `ordered` whose args reference r (or SIZE_MAX
  // if referenced by the return words).
  std::vector<size_t> last_use(ir.n_regs, 0);
  std::vector<bool> used_ever(ir.n_regs, false);
  for (size_t i = 0; i < ordered.size(); ++i) {
    for (const Operand& a : ordered[i].args) {
      if (!a.is_const) {
        last_use[a.reg] = i;
        used_ever[a.reg] = true;
      }
    }
  }
  for (const Operand& w : ir.return_words) {
    if (!w.is_const) {
      last_use[w.reg] = SIZE_MAX;
      used_ever[w.reg] = true;
    }
  }

  // Lay out nodes, inserting shortcut nodes ahead of eligible compute runs.
  auto is_run_member = [&](const SInstr& instr) {
    return IsPureCompute(instr.op) && instr.dest != kNoReg;
  };
  size_t i = 0;
  while (i < ordered.size()) {
    if (!options.enable_shortcuts || !is_run_member(ordered[i])) {
      ApNode node;
      node.kind = ordered[i].op == SOp::kGuard ? ApNode::Kind::kGuard : ApNode::Kind::kInstr;
      if (node.kind == ApNode::Kind::kGuard) {
        node.guard_arg = ordered[i].args[0];
        node.branches.emplace_back(ordered[i].expected,
                                   static_cast<uint32_t>(ap.nodes_.size() + 1));
      } else {
        node.instr = ordered[i];
        node.next = static_cast<uint32_t>(ap.nodes_.size() + 1);
      }
      ap.nodes_.push_back(std::move(node));
      ++i;
      continue;
    }
    // Find the maximal compute run starting at i, then split it into sub-runs
    // of at most kMaxSubrunInputs external inputs each (the paper's
    // nested-shortcut refinement: a sub-segment depending on fewer read-set
    // registers can still be skipped when the enclosing segment cannot).
    size_t j = i;
    while (j < ordered.size() && is_run_member(ordered[j])) {
      ++j;
    }
    size_t k = i;
    while (k < j) {
      // Grow the sub-run until adding the next instruction would exceed the
      // input bound.
      std::vector<RegId> inputs;
      std::vector<bool> internal(ir.n_regs, false);
      bool expensive = false;
      size_t end = k;
      while (end < j) {
        std::vector<RegId> fresh;
        for (const Operand& a : ordered[end].args) {
          if (!a.is_const && !internal[a.reg] &&
              std::find(inputs.begin(), inputs.end(), a.reg) == inputs.end() &&
              std::find(fresh.begin(), fresh.end(), a.reg) == fresh.end()) {
            fresh.push_back(a.reg);
          }
        }
        if (end > k && inputs.size() + fresh.size() > kMaxSubrunInputs) {
          break;
        }
        inputs.insert(inputs.end(), fresh.begin(), fresh.end());
        internal[ordered[end].dest] = true;
        expensive = expensive || IsExpensive(ordered[end].op);
        ++end;
      }
      // Eligible when the inputs-compared-per-instruction-skipped ratio pays
      // off: long runs, expensive instructions, or few-input short runs.
      bool eligible = !inputs.empty() && inputs.size() <= kMaxShortcutInputs &&
                      (end - k >= kMinShortcutLen || expensive ||
                       inputs.size() <= end - k);
      size_t shortcut_slot = SIZE_MAX;
      if (eligible) {
        shortcut_slot = ap.nodes_.size();
        ap.nodes_.emplace_back();  // filled in below once skip_to is known
      }
      for (size_t p = k; p < end; ++p) {
        ApNode node;
        node.kind = ApNode::Kind::kInstr;
        node.instr = ordered[p];
        node.next = static_cast<uint32_t>(ap.nodes_.size() + 1);
        ap.nodes_.push_back(std::move(node));
      }
      if (eligible) {
        ApNode& sc = ap.nodes_[shortcut_slot];
        sc.kind = ApNode::Kind::kShortcut;
        sc.inputs = inputs;
        sc.next = static_cast<uint32_t>(shortcut_slot + 1);
        sc.skip_to = static_cast<uint32_t>(ap.nodes_.size());
        sc.skip_count = static_cast<uint32_t>(end - k);
        MemoEntry entry;
        for (RegId r : inputs) {
          entry.in_values.push_back(ir.traced_values[r]);
        }
        for (size_t p = k; p < end; ++p) {
          RegId dest = ordered[p].dest;
          if (used_ever[dest] && (last_use[dest] == SIZE_MAX || last_use[dest] >= end)) {
            entry.outputs.emplace_back(dest, ir.traced_values[dest]);
          }
        }
        sc.entries.push_back(std::move(entry));
      }
      k = end;
    }
    i = j;
  }

  ApNode done;
  done.kind = ApNode::Kind::kDone;
  done.status = ir.status;
  done.gas_used = ir.gas_used;
  done.return_words = ir.return_words;
  ap.nodes_.push_back(std::move(done));
  ap.entry_ = 0;
  ap.stats_.constraint_instrs = constraint_len;
  ap.stats_.fast_path_instrs = ir.stats.final_fast_path;
  ap.synthesis_stats_ = ir.stats;
  ap.RecountStats();
  return ap;
}

void Ap::RecountStats() {
  stats_.nodes = nodes_.size();
  stats_.guard_nodes = 0;
  stats_.shortcut_nodes = 0;
  stats_.instr_nodes = 0;
  stats_.memo_entries = 0;
  stats_.paths = 0;
  for (const ApNode& node : nodes_) {
    switch (node.kind) {
      case ApNode::Kind::kGuard:
        ++stats_.guard_nodes;
        break;
      case ApNode::Kind::kShortcut:
        ++stats_.shortcut_nodes;
        stats_.memo_entries += node.entries.size();
        break;
      case ApNode::Kind::kInstr:
        ++stats_.instr_nodes;
        break;
      case ApNode::Kind::kDone:
        ++stats_.paths;
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

namespace {

// Copies the chain rooted at src[idx] into dst, preserving internal sharing.
uint32_t CopyChainInto(std::vector<ApNode>* dst, const Ap& src_ap, uint32_t idx,
                       std::unordered_map<uint32_t, uint32_t>* copy_map) {
  if (auto it = copy_map->find(idx); it != copy_map->end()) {
    return it->second;
  }
  uint32_t my_idx = static_cast<uint32_t>(dst->size());
  dst->push_back(src_ap.nodes()[idx]);
  copy_map->emplace(idx, my_idx);
  ApNode& node = (*dst)[my_idx];
  switch (node.kind) {
    case ApNode::Kind::kInstr:
      (*dst)[my_idx].next = CopyChainInto(dst, src_ap, node.next, copy_map);
      break;
    case ApNode::Kind::kGuard: {
      auto branches = node.branches;
      for (auto& [value, target] : branches) {
        target = CopyChainInto(dst, src_ap, target, copy_map);
      }
      (*dst)[my_idx].branches = std::move(branches);
      break;
    }
    case ApNode::Kind::kShortcut: {
      uint32_t next = CopyChainInto(dst, src_ap, node.next, copy_map);
      uint32_t skip = CopyChainInto(dst, src_ap, (*dst)[my_idx].skip_to, copy_map);
      (*dst)[my_idx].next = next;
      (*dst)[my_idx].skip_to = skip;
      break;
    }
    case ApNode::Kind::kDone:
      break;
  }
  return my_idx;
}

struct MergeCtx {
  std::vector<ApNode> out;
  std::unordered_map<uint64_t, uint32_t> memo;
  std::unordered_map<uint32_t, uint32_t> copy_a;
  std::unordered_map<uint32_t, uint32_t> copy_b;
  bool failed = false;
};

uint32_t MergeNodes(MergeCtx* ctx, const Ap& a, uint32_t ai, const Ap& b, uint32_t bi) {
  if (ctx->failed) {
    return 0;
  }
  uint64_t key = PairKey(ai, bi);
  if (auto it = ctx->memo.find(key); it != ctx->memo.end()) {
    return it->second;
  }
  const ApNode& na = a.nodes()[ai];
  const ApNode& nb = b.nodes()[bi];
  if (na.kind != nb.kind) {
    ctx->failed = true;
    return 0;
  }
  uint32_t my_idx = static_cast<uint32_t>(ctx->out.size());
  ctx->out.push_back(na);
  ctx->memo.emplace(key, my_idx);
  switch (na.kind) {
    case ApNode::Kind::kInstr: {
      if (!na.instr.SameShape(nb.instr)) {
        ctx->failed = true;
        return 0;
      }
      uint32_t next = MergeNodes(ctx, a, na.next, b, nb.next);
      ctx->out[my_idx].next = next;
      break;
    }
    case ApNode::Kind::kGuard: {
      if (!(na.guard_arg == nb.guard_arg)) {
        ctx->failed = true;
        return 0;
      }
      std::vector<std::pair<U256, uint32_t>> branches;
      for (const auto& [va, ta] : na.branches) {
        const uint32_t* tb = nullptr;
        for (const auto& [vb, t] : nb.branches) {
          if (vb == va) {
            tb = &t;
            break;
          }
        }
        uint32_t target = (tb != nullptr) ? MergeNodes(ctx, a, ta, b, *tb)
                                          : CopyChainInto(&ctx->out, a, ta, &ctx->copy_a);
        branches.emplace_back(va, target);
      }
      for (const auto& [vb, tb] : nb.branches) {
        bool in_a = false;
        for (const auto& [va, ta] : na.branches) {
          if (va == vb) {
            in_a = true;
            break;
          }
        }
        if (!in_a) {
          branches.emplace_back(vb, CopyChainInto(&ctx->out, b, tb, &ctx->copy_b));
        }
      }
      ctx->out[my_idx].branches = std::move(branches);
      break;
    }
    case ApNode::Kind::kShortcut: {
      if (na.inputs != nb.inputs) {
        ctx->failed = true;
        return 0;
      }
      std::vector<MemoEntry> entries = na.entries;
      for (const MemoEntry& eb : nb.entries) {
        auto match = std::find_if(entries.begin(), entries.end(), [&](const MemoEntry& e) {
          return e.in_values == eb.in_values;
        });
        if (match == entries.end()) {
          entries.push_back(eb);
        } else {
          // Same inputs => same deterministic outputs; keep the union of the
          // recorded (possibly differently-live) output registers.
          for (const auto& out : eb.outputs) {
            auto has = std::find_if(match->outputs.begin(), match->outputs.end(),
                                    [&](const auto& o) { return o.first == out.first; });
            if (has == match->outputs.end()) {
              match->outputs.push_back(out);
            }
          }
        }
      }
      uint32_t next = MergeNodes(ctx, a, na.next, b, nb.next);
      uint32_t skip = MergeNodes(ctx, a, na.skip_to, b, nb.skip_to);
      ctx->out[my_idx].entries = std::move(entries);
      ctx->out[my_idx].next = next;
      ctx->out[my_idx].skip_to = skip;
      break;
    }
    case ApNode::Kind::kDone: {
      if (!DoneEqual(na, nb)) {
        ctx->failed = true;
        return 0;
      }
      break;
    }
  }
  return my_idx;
}

}  // namespace

bool Ap::MergeWith(const Ap& other) {
  if (nodes_.empty()) {
    *this = other;
    return true;
  }
  if (other.nodes_.empty()) {
    return true;
  }
  MergeCtx ctx;
  uint32_t entry = MergeNodes(&ctx, *this, entry_, other, other.entry_);
  if (ctx.failed) {
    return false;
  }
  nodes_ = std::move(ctx.out);
  entry_ = entry;
  n_regs_ = std::max(n_regs_, other.n_regs_);
  size_t constraint_instrs = stats_.constraint_instrs;
  size_t fast_instrs = stats_.fast_path_instrs;
  RecountStats();
  stats_.constraint_instrs = constraint_instrs;  // first-path accounting
  stats_.fast_path_instrs = fast_instrs;
  return true;
}

// ---------------------------------------------------------------------------
// Execute
// ---------------------------------------------------------------------------

ApRunResult Ap::Execute(WorldState* state, const BlockContext& block) const {
  ApRunResult run;
  if (nodes_.empty()) {
    return run;
  }
  std::vector<U256> regs(n_regs_);
  auto resolve = [&](const Operand& o) -> const U256& {
    return o.is_const ? o.value : regs[o.reg];
  };
  bool all_shortcuts_hit = true;
  std::vector<LogEntry> logs;
  uint32_t idx = entry_;
  std::vector<U256> arg_values;
  while (true) {
    const ApNode& node = nodes_[idx];
    switch (node.kind) {
      case ApNode::Kind::kInstr: {
        const SInstr& instr = node.instr;
        arg_values.clear();
        for (const Operand& a : instr.args) {
          arg_values.push_back(resolve(a));
        }
        if (IsPureCompute(instr.op)) {
          regs[instr.dest] = EvalPure(instr.op, arg_values);
        } else if (IsContextRead(instr.op)) {
          regs[instr.dest] = EvalRead(instr.op, arg_values, state, block);
        } else {
          // Effect: all guards have already passed (rollback-free layout).
          switch (instr.op) {
            case SOp::kSstore:
              state->SetStorage(Address::FromU256(arg_values[0]), arg_values[1],
                                arg_values[2]);
              break;
            case SOp::kTransfer: {
              bool ok = state->SubBalance(Address::FromU256(arg_values[0]), arg_values[2]);
              assert(ok && "transfer guarded by constraint set");
              (void)ok;
              state->AddBalance(Address::FromU256(arg_values[1]), arg_values[2]);
              break;
            }
            case SOp::kLog: {
              LogEntry entry;
              entry.address = Address::FromU256(arg_values[0]);
              for (int t = 0; t < node.instr.n_topics; ++t) {
                entry.topics.push_back(arg_values[1 + t]);
              }
              for (size_t w = 1 + node.instr.n_topics; w < arg_values.size(); ++w) {
                auto be = arg_values[w].ToBigEndian();
                entry.data.insert(entry.data.end(), be.begin(), be.end());
              }
              logs.push_back(std::move(entry));
              break;
            }
            default:
              assert(false && "unknown effect");
          }
        }
        ++run.instrs_executed;
        idx = node.next;
        break;
      }
      case ApNode::Kind::kGuard: {
        const U256& value = resolve(node.guard_arg);
        uint32_t next = UINT32_MAX;
        for (const auto& [expected, target] : node.branches) {
          if (expected == value) {
            next = target;
            break;
          }
        }
        if (next == UINT32_MAX) {
          run.satisfied = false;  // constraint violation; nothing to roll back
          return run;
        }
        idx = next;
        break;
      }
      case ApNode::Kind::kShortcut: {
        const MemoEntry* hit = nullptr;
        for (const MemoEntry& entry : node.entries) {
          bool match = true;
          for (size_t k = 0; k < node.inputs.size(); ++k) {
            if (!(regs[node.inputs[k]] == entry.in_values[k])) {
              match = false;
              break;
            }
          }
          if (match) {
            hit = &entry;
            break;
          }
        }
        if (hit != nullptr) {
          for (const auto& [reg, value] : hit->outputs) {
            regs[reg] = value;
          }
          run.instrs_skipped += node.skip_count;
          idx = node.skip_to;
        } else {
          all_shortcuts_hit = false;
          idx = node.next;
        }
        break;
      }
      case ApNode::Kind::kDone: {
        run.satisfied = true;
        run.perfect = all_shortcuts_hit;
        run.result.status = node.status;
        run.result.gas_used = node.gas_used;
        for (const Operand& w : node.return_words) {
          auto be = resolve(w).ToBigEndian();
          run.result.return_data.insert(run.result.return_data.end(), be.begin(), be.end());
        }
        if (node.status == ExecStatus::kSuccess) {
          run.result.logs = std::move(logs);
        }
        return run;
      }
    }
  }
}

std::string Ap::Render() const {
  std::ostringstream out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const ApNode& node = nodes_[i];
    out << "n" << i << ": ";
    switch (node.kind) {
      case ApNode::Kind::kInstr:
        out << RenderInstr(node.instr) << " -> n" << node.next;
        break;
      case ApNode::Kind::kGuard: {
        out << "GUARD(";
        if (node.guard_arg.is_const) {
          out << node.guard_arg.value.ToHex();
        } else {
          out << "v" << node.guard_arg.reg;
        }
        out << ") {";
        for (const auto& [value, target] : node.branches) {
          out << " " << value.ToHex() << "->n" << target;
        }
        out << " else VIOLATION }";
        break;
      }
      case ApNode::Kind::kShortcut: {
        out << "SHORTCUT[";
        for (size_t k = 0; k < node.inputs.size(); ++k) {
          out << (k > 0 ? "," : "") << "v" << node.inputs[k];
        }
        out << "] " << node.entries.size() << " memo -> skip n" << node.skip_to
            << " else n" << node.next;
        break;
      }
      case ApNode::Kind::kDone:
        out << "DONE status=" << ExecStatusName(node.status) << " gas=" << node.gas_used;
        break;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace frn
