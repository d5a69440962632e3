// Span-based lifecycle tracer. Spans record wall-clock intervals (mempool
// arrival -> prediction -> speculation -> constraint check -> commit, plus
// block- and network-level phases) into per-thread buffers and export as
// Chrome trace_event JSON (chrome://tracing / Perfetto loadable).
//
// Cost model, in line with the tentpole's near-zero-cost requirement:
//  - Disabled (the default): every span site is one relaxed atomic load and
//    a branch. No allocation, no clock read, no lock.
//  - Enabled: sampled spans read the steady clock twice and append one record
//    to a thread-local buffer under that buffer's (uncontended) mutex.
//
// Determinism: the tracer never touches the simulation RNG or the modeled
// clocks; per-tx sampling is a pure hash of the tx id, so the same scenario
// traces the same transactions at any worker count.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/sync.h"
#include "src/obs/json.h"
#include "src/obs/registry.h"

namespace frn {

// One argument attached to a trace event. A tiny tagged union keeps span
// emission allocation-light (strings only when a string arg is attached).
struct TraceArg {
  enum class Kind { kU64, kF64, kStr };

  static TraceArg U64(const char* key, uint64_t v) {
    TraceArg a;
    a.key = key;
    a.kind = Kind::kU64;
    a.u = v;
    return a;
  }
  static TraceArg F64(const char* key, double v) {
    TraceArg a;
    a.key = key;
    a.kind = Kind::kF64;
    a.f = v;
    return a;
  }
  static TraceArg Str(const char* key, std::string v) {
    TraceArg a;
    a.key = key;
    a.kind = Kind::kStr;
    a.s = std::move(v);
    return a;
  }

  const char* key = "";
  Kind kind = Kind::kU64;
  uint64_t u = 0;
  double f = 0;
  std::string s;
};

// A completed event, already resolved to trace_event fields. `ph` is 'X'
// (complete span, has dur_us) or 'i' (instant).
struct TraceEventRec {
  const char* name = "";
  const char* cat = "";
  char ph = 'X';
  double ts_us = 0;
  double dur_us = 0;
  uint64_t tid = 0;
  uint64_t id = 0;
  std::vector<TraceArg> args;
};

// Process-wide collector of trace events. Disabled by default; Enable()
// arms the runtime gate and (re)starts a fresh capture epoch.
class TraceCollector {
 public:
  struct Options {
    // Fraction of transactions whose per-tx spans are recorded, decided by a
    // deterministic hash of the tx id. Non-tx spans (block/round/dice) are
    // always recorded while enabled.
    double sample_rate = 1.0;
    // Per-thread cap; further events increment dropped_events() instead of
    // growing without bound.
    size_t max_events_per_thread = 1u << 20;
  };

  static TraceCollector& Global();

  // Arms tracing and clears any previously captured events.
  void Enable(Options options);
  void Enable() { Enable(Options()); }
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Deterministic per-tx sampling decision (stateless hash; no RNG).
  bool SampleTx(uint64_t tx_id) const;

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Microseconds since this capture epoch began.
  double NowUs() const;

  TraceCollector() : generation_(FreshGeneration()) {}

  void Emit(TraceEventRec event);
  // Drops all buffers. Like Enable(), must not race with in-flight Emit()
  // calls; callers quiesce workers (between SpecPool batches / runs) first.
  void Clear();

  size_t event_count() const;
  size_t dropped_events() const;

  // All captured events as a Chrome trace_event document, sorted by
  // timestamp, with thread_name metadata for each capture thread.
  JsonValue ToChromeJson() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    Mutex mu;
    uint64_t tid = 0;  // written once before publication, read-only after
    std::vector<TraceEventRec> events FRN_GUARDED_BY(mu);
    size_t dropped FRN_GUARDED_BY(mu) = 0;
  };

  static uint64_t FreshGeneration();
  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> generation_;
  // Deliberately unguarded: written only by Enable(), which per its contract
  // must not race in-flight Emit()/span sites (callers quiesce workers
  // first), and read on every hot span site — guarding them would put a lock
  // on the disabled fast path. TSan remains the checker for this contract.
  double sample_rate_ = 1.0;
  size_t max_events_per_thread_ = 1u << 20;
  // Capture epoch; NowUs() is the stopwatch reading (common/clock.h is the
  // repo's one home for raw std::chrono clock types).
  Stopwatch epoch_;

  mutable Mutex buffers_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ FRN_GUARDED_BY(buffers_mu_);
};

// RAII span. Construct before the timed region; the destructor stamps the
// duration and appends the event. When the collector is disabled or the span
// unsampled, construction is a single relaxed load and destruction a branch.
//
// `mirror` (optional) is a registry SecondsCounter that receives the same
// wall-clock reading the span duration is computed from, whether or not the
// span itself is recorded — this is what keeps the --stats-out aggregates and
// the per-phase trace sums reconciled by construction.
class TraceSpan {
 public:
  TraceSpan(TraceCollector* collector, const char* cat, const char* name,
            SecondsCounter* mirror = nullptr, bool sampled = true)
      : collector_(collector), mirror_(mirror) {
    if (collector_ != nullptr && collector_->enabled() && sampled) {
      event_.name = name;
      event_.cat = cat;
      event_.id = collector_->NextId();
      event_.ts_us = collector_->NowUs();
      active_ = true;
    }
    if (active_ || mirror_ != nullptr) {
      watch_.Restart();
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { Finish(); }

  // Attaches an argument; no-op when the span is not being recorded.
  void AddArg(TraceArg arg) {
    if (active_) {
      event_.args.push_back(std::move(arg));
    }
  }

  bool active() const { return active_; }

  // Ends the span early (idempotent). Returns the measured wall seconds.
  double Finish() {
    if (finished_) {
      return elapsed_;
    }
    finished_ = true;
    if (active_ || mirror_ != nullptr) {
      elapsed_ = watch_.ElapsedSeconds();
    }
    if (mirror_ != nullptr) {
      mirror_->Add(elapsed_);
    }
    if (active_) {
      event_.dur_us = elapsed_ * 1e6;
      collector_->Emit(std::move(event_));
      active_ = false;
    }
    return elapsed_;
  }

 private:
  TraceCollector* collector_;
  SecondsCounter* mirror_;
  Stopwatch watch_;
  TraceEventRec event_;
  double elapsed_ = 0;
  bool active_ = false;
  bool finished_ = false;
};

// Records a zero-duration instant event (e.g. a tx heard on the mempool, a
// fork observed). No-op while disabled.
void EmitInstant(TraceCollector* collector, const char* cat, const char* name,
                 std::vector<TraceArg> args = {});

}  // namespace frn

#endif  // SRC_OBS_TRACE_H_
