#include "src/forerunner/spec_manager.h"

#include <algorithm>

#include "src/obs/registry.h"

namespace frn {

std::vector<SpecJob> SpeculationManager::BuildJobs(
    const std::vector<TxPrediction>& predictions, const Hash& head_root,
    size_t futures_cap) {
  static Counter* root_skip_counter =
      MetricsRegistry::Global().GetCounter("spec.root_skips");
  std::vector<SpecJob> jobs;
  for (const TxPrediction& prediction : predictions) {
    // Re-speculate only when the head moved since the last speculation.
    auto it = entries_.find(prediction.tx.id);
    if (it != entries_.end() && it->second.root == head_root) {
      ++root_skips_;
      root_skip_counter->Add();
      continue;
    }
    Entry& entry = entries_[prediction.tx.id];
    entry.root = head_root;
    SpecJob job;
    job.root = head_root;
    job.tx = prediction.tx;
    size_t futures = std::min(prediction.futures.size(), futures_cap);
    job.futures.assign(prediction.futures.begin(),
                       prediction.futures.begin() + futures);
    job.spec = entry.spec;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void SpeculationManager::MergeResults(std::vector<SpecJobResult>* results,
                                      double sim_time, double time_scale,
                                      const std::function<void(const ReadSet&)>& prefetch) {
  for (SpecJobResult& result : *results) {
    Entry& entry = entries_[result.spec.tx_id];
    TxSpeculation& spec = entry.spec;
    bool speculated_before = spec.futures > 0;
    double prev_exec = spec.plain_exec_seconds;
    spec = std::move(result.spec);
    for (const SpecFutureOutcome& outcome : result.outcomes) {
      ++futures_speculated_;
      if (!outcome.synthesized) {
        ++synthesis_failures_;
      } else {
        synthesis_stats_.push_back(outcome.stats);
      }
    }
    if (spec.has_ap) {
      ap_stats_.push_back(spec.ap.stats());
    }
    // Charge this round's cost to simulated availability: the executing
    // thread's CPU time, its cold-read spins included, independent of how the
    // OS schedules the worker threads. An AP merged
    // in an earlier round stays usable, so availability never regresses.
    // Still a measurement: with time_scale > 0, AP readiness varies run to
    // run (at any worker count); scale = 0 makes outcomes exact.
    double round_cost = result.exec_seconds;
    double candidate = sim_time + round_cost * time_scale;
    spec.available_at =
        speculated_before ? std::min(spec.available_at, candidate) : candidate;
    total_speculation_seconds_ += round_cost;
    total_speculated_exec_seconds_ += spec.plain_exec_seconds - prev_exec;
    if (prefetch) {
      prefetch(spec.read_set);
    }
  }
  max_entries_seen_ = std::max(max_entries_seen_, entries_.size());
}

const TxSpeculation* SpeculationManager::Lookup(uint64_t tx_id, double sim_time) const {
  auto it = entries_.find(tx_id);
  if (it != entries_.end() && it->second.spec.available_at <= sim_time) {
    return &it->second.spec;
  }
  return nullptr;
}

void SpeculationManager::Retire(uint64_t tx_id) {
  auto it = entries_.find(tx_id);
  if (it == entries_.end()) {
    return;
  }
  SpecSummary summary;
  summary.tx_id = tx_id;
  summary.futures = it->second.spec.futures;
  if (it->second.spec.has_ap) {
    const ApStats& stats = it->second.spec.ap.stats();
    summary.paths = stats.paths;
    summary.shortcut_nodes = stats.shortcut_nodes;
    summary.memo_entries = stats.memo_entries;
    summary.instr_nodes = stats.instr_nodes;
  }
  executed_speculations_.push_back(summary);
  ++retired_;
  entries_.erase(it);
}

void SpeculationManager::Drop(uint64_t tx_id) {
  if (entries_.erase(tx_id) > 0) {
    ++dropped_;
  }
}

SpecCacheStats SpeculationManager::stats() const {
  SpecCacheStats s;
  s.entries = entries_.size();
  s.max_entries_seen = max_entries_seen_;
  s.retired = retired_;
  s.root_skips = root_skips_;
  s.dropped = dropped_;
  return s;
}

}  // namespace frn
