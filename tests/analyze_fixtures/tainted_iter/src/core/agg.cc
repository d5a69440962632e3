// Fixture for the determinism pass: WriteSummary is a sink by name, and it
// calls AppendItems, whose unordered-map iteration therefore taints ordered
// output — something a lexical check cannot see, because AppendItems itself
// has an innocent name. The same iteration in Shuffle is unreachable from
// any sink and must stay silent, and the suppressed iteration in
// MergeCounts shows the escape hatch.

#include <string>
#include <unordered_map>

class Agg {
 public:
  std::string WriteSummary();
  void AppendItems(std::string* out);
  int Shuffle();
  int MergeCounts();

 private:
  std::unordered_map<std::string, int> items_;
};

std::string Agg::WriteSummary() {
  std::string out;
  AppendItems(&out);
  return out;
}

void Agg::AppendItems(std::string* out) {
  for (const auto& [key, value] : items_) {  // [expect:determinism]
    out->append(key);
    out->append(std::to_string(value));
  }
}

int Agg::Shuffle() {
  int total = 0;
  for (const auto& [key, value] : items_) {
    total += value + static_cast<int>(key.size());
  }
  return total;
}

int Agg::MergeCounts() {
  int total = 0;
  // Summation is commutative: the visit order cannot reach the result.
  for (const auto& [key, value] : items_) {  // frn:allow(determinism)
    total += value;
  }
  return total;
}
