// Fixture for the determinism pass at a sink itself: range-for over an
// unordered container inside a function whose name says it feeds
// roots/JSON/stats output.
#include <string>
#include <unordered_map>
#include <vector>

namespace frn_fixture {

struct Doc {
  std::unordered_map<std::string, int> fields;
  std::vector<int> ordered;

  std::string ToJson() const;
  int Total() const;
};

std::string Doc::ToJson() const {
  std::string out;
  for (const auto& kv : fields) {  // [expect:determinism]
    out += kv.first;
  }
  // Ordered containers are fine even here:
  for (int v : ordered) {
    out += static_cast<char>(v);
  }
  return out;
}

// In a function no sink reaches, the same iteration is silent:
int Doc::Total() const {
  int total = 0;
  for (const auto& kv : fields) {
    total += kv.second;
  }
  return total;
}

// Suppressed (e.g. a commutative fold) — must NOT appear in the findings:
int SumForStats(const Doc& doc) {
  int total = 0;
  for (const auto& kv : doc.fields) {  // frn:allow(determinism)
    total += kv.second;
  }
  return total;
}

}  // namespace frn_fixture
