// Fixture for the raw-clock pass: raw clock reads outside src/common/clock.h
// fork the repo's single source of time.
#include <chrono>

namespace frn_fixture {

double NowSeconds() {
  auto t = std::chrono::steady_clock::now();  // [expect:raw-clock]
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

double WallSeconds() {
  auto t = std::chrono::system_clock::now();  // [expect:raw-clock]
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

// std::chrono::duration / duration_cast themselves are fine — only the three
// clock types are the pass's business.
double Convert(std::chrono::nanoseconds ns) {
  return std::chrono::duration<double>(ns).count();
}

// Preceding-line suppression form — must NOT appear in the findings:
// frn:allow(raw-clock)
inline auto Epoch() { return std::chrono::high_resolution_clock::now(); }

}  // namespace frn_fixture
