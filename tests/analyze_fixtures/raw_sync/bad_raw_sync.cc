// Fixture for the raw-sync pass: raw std:: synchronization primitives are
// flagged everywhere outside src/common/sync.h, so all locking flows through
// the annotated frn wrappers that clang -Wthread-safety can check.
#include <mutex>

namespace frn_fixture {

std::mutex g_mu;  // [expect:raw-sync]

int Locked() {
  std::lock_guard<std::mutex> lock(g_mu);  // [expect:raw-sync]
  return 1;
}

// Mentions in comments must not fire: std::mutex, std::condition_variable.

// Suppressed (documented exception) — must NOT appear in the findings:
std::mutex g_allowed;  // frn:allow(raw-sync)

}  // namespace frn_fixture
