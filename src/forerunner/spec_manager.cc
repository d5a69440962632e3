#include "src/forerunner/spec_manager.h"

#include <algorithm>

#include "src/obs/registry.h"

namespace frn {

void SpeculationManager::MarkRoot(Entry* entry, const Hash& root) {
  entry->roots.push_back(root);
  size_t keep = std::max<size_t>(options_.roots_per_tx, 1);
  while (entry->roots.size() > keep) {
    entry->roots.erase(entry->roots.begin());
  }
}

std::vector<SpecJob> SpeculationManager::BuildJobs(
    const std::vector<TxPrediction>& predictions, const Hash& head_root,
    size_t futures_cap) {
  static Counter* root_skip_counter =
      MetricsRegistry::Global().GetCounter("spec.root_skips");
  static Counter* reorg_hit_counter =
      MetricsRegistry::Global().GetCounter("spec.reorg_hits");
  std::vector<SpecJob> jobs;
  for (const TxPrediction& prediction : predictions) {
    // Re-speculate only when no retained root covers the current head.
    auto it = entries_.find(prediction.tx.id);
    if (it != entries_.end()) {
      const std::vector<Hash>& roots = it->second.roots;
      bool covered = false;
      bool older_root = false;
      for (size_t r = 0; r < roots.size(); ++r) {
        if (roots[r] == head_root) {
          covered = true;
          older_root = r + 1 < roots.size();
          break;
        }
      }
      if (covered) {
        // A covered skip is a *use* of the entry: the retained speculation is
        // exactly what keeps head execution accelerated. Refresh its LRU, or
        // the cache's hottest entries — skipped every round because a root
        // still covers head — age out before cold entries speculated once.
        it->second.lru = ++lru_counter_;
        ++root_skips_;
        root_skip_counter->Add();
        if (older_root || it->second.restored) {
          // Only retained state (an older root, or a parked entry brought
          // back by a reorg) can produce this skip — the default
          // latest-root-only policy never reaches here after a head move.
          ++reorg_hits_;
          reorg_hit_counter->Add();
        }
        continue;
      }
    }
    Entry& entry = entries_[prediction.tx.id];
    MarkRoot(&entry, head_root);
    entry.restored = false;
    entry.lru = ++lru_counter_;
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
    entry.lru = ++lru_counter_;
    if (prefetch) {
      prefetch(spec.read_set);
    }
  }
  max_entries_seen_ = std::max(max_entries_seen_, entries_.size());
  static Gauge* occupancy = MetricsRegistry::Global().GetGauge("spec.cache_entries");
  occupancy->SetMax(static_cast<double>(entries_.size()));
  EnforceCapacity();
}

void SpeculationManager::EnforceCapacity() {
  static Counter* eviction_counter =
      MetricsRegistry::Global().GetCounter("spec.cache_evictions");
  while (options_.max_entries > 0 && entries_.size() > options_.max_entries) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.lru < victim->second.lru) {
        victim = it;
      }
    }
    entries_.erase(victim);
    ++evictions_;
    eviction_counter->Add();
  }
}

const TxSpeculation* SpeculationManager::Lookup(uint64_t tx_id, double sim_time) const {
  auto it = entries_.find(tx_id);
  if (it != entries_.end() && it->second.spec.available_at <= sim_time) {
    return &it->second.spec;
  }
  return nullptr;
}

RetiredSpeculation SpeculationManager::Retire(uint64_t tx_id) {
  RetiredSpeculation parked;
  auto it = entries_.find(tx_id);
  if (it == entries_.end()) {
    return parked;
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
  if (options_.retain_across_reorg) {
    parked.has = true;
    parked.spec = std::move(it->second.spec);
    parked.roots = std::move(it->second.roots);
  }
  entries_.erase(it);
  return parked;
}

void SpeculationManager::Restore(uint64_t tx_id, RetiredSpeculation&& parked) {
  if (!parked.has || entries_.contains(tx_id)) {
    return;
  }
  Entry entry;
  entry.spec = std::move(parked.spec);
  entry.roots = std::move(parked.roots);
  entry.restored = true;
  entry.lru = ++lru_counter_;
  entries_.emplace(tx_id, std::move(entry));
  ++restored_;
  max_entries_seen_ = std::max(max_entries_seen_, entries_.size());
  EnforceCapacity();
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
  s.evictions = evictions_;
  s.retired = retired_;
  s.restored = restored_;
  s.reorg_hits = reorg_hits_;
  s.root_skips = root_skips_;
  s.dropped = dropped_;
  return s;
}

}  // namespace frn
