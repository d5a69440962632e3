// Fixture for stale suppressions: every frn:allow(id) must match a finding
// of its pass on its own line or the next, and must name a pass. A stale
// one would silently cover the next violation written beside it.
#include <mutex>

namespace frn_fixture {

std::mutex g_used;  // frn:allow(raw-sync)

// frn:allow(raw-sync) above a line with nothing to flag  [expect:stale-allow]
int g_count = 0;

int Clean() { return 1; }  // frn:allow(raw-clock)  [expect:stale-allow]

// The contract's old id, which names no pass:
int g_renamed = 0;  // frn:allow(unordered-iter)  [expect:stale-allow]

// One finding matched by suppressions on its own line and the line above
// uses both:
// frn:allow(raw-sync)
std::mutex g_both;  // frn:allow(raw-sync)

}  // namespace frn_fixture
