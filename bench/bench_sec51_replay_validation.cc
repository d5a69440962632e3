// Reproduces the §5.1 recorder/emulator validation: the L1 live run is
// recorded, the recording is round-tripped through the on-disk format, and
// the replay must reproduce the live results — mirroring how the paper
// validates its emulator by comparing R1 against L1 before trusting the
// recorded datasets R2-R5.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/state/statedb.h"
#include "src/replay/recording.h"

using namespace frn;

int main() {
  std::printf("=== Section 5.1: Recorder/emulator validation (L1 live vs replay) ===\n");
  ScenarioConfig cfg = ScenarioByName("L1");
  Workload workload(cfg);
  auto traffic = workload.GenerateTraffic();
  DiceSimulator sim(cfg.dice, traffic);
  auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };

  // ---- Live run ----
  Node live_base(ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis);
  Node live_frn(ScenarioNodeOptions(cfg, ExecStrategy::kForerunner, sim.miners()), genesis);
  SimReport live = sim.Run({&live_base, &live_frn}, "L1-live");
  RequireConsistentRoots(live);
  SpeedupSummary live_summary = Summarize(Compare(live, 1));

  // ---- Record, serialize, reload ----
  Recording recording = CaptureRecording(live, traffic);
  std::string text = SerializeRecording(recording);
  Recording reloaded;
  if (!DeserializeRecording(text, &reloaded)) {
    std::fprintf(stderr, "FATAL: recording failed to round-trip\n");
    return 1;
  }
  std::printf("recorded %zu heard txs, %zu unheard, %zu blocks (%.1f KiB serialized)\n",
              recording.heard.size(), recording.unheard.size(), recording.blocks.size(),
              static_cast<double>(text.size()) / 1024.0);

  // ---- Replay against fresh nodes ----
  Node replay_base(ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis);
  Node replay_frn(ScenarioNodeOptions(cfg, ExecStrategy::kForerunner, sim.miners()), genesis);
  SimReport replayed = ReplayRecording(reloaded, {&replay_base, &replay_frn});
  RequireConsistentRoots(replayed);
  SpeedupSummary replay_summary = Summarize(Compare(replayed, 1));

  bool same_chain = replayed.blocks == live.blocks && replayed.txs_packed == live.txs_packed &&
                    replay_base.head_root() == live_base.head_root();
  std::printf("\n%-28s %12s %12s\n", "", "live (L1)", "replayed (R1)");
  std::printf("%-28s %12lu %12lu\n", "blocks", (unsigned long)live.blocks,
              (unsigned long)replayed.blocks);
  std::printf("%-28s %12lu %12lu\n", "transactions", (unsigned long)live.txs_packed,
              (unsigned long)replayed.txs_packed);
  std::printf("%-28s %11.2f%% %11.2f%%\n", "% satisfied", live_summary.satisfied_pct,
              replay_summary.satisfied_pct);
  std::printf("%-28s %11.2fx %11.2fx\n", "effective speedup",
              live_summary.effective_speedup, replay_summary.effective_speedup);
  std::printf("%-28s %11.2fx %11.2fx\n", "end-to-end speedup",
              live_summary.end_to_end_speedup, replay_summary.end_to_end_speedup);
  std::printf("\nfinal state roots %s; chain identity %s\n",
              replay_base.head_root() == live_base.head_root() ? "MATCH" : "MISMATCH",
              same_chain ? "confirmed" : "BROKEN");
  std::printf("Paper reference: the emulation result on R1 is sufficiently close to the "
              "real experimental result on L1 to validate the emulator.\n");
  return same_chain ? 0 : 1;
}
