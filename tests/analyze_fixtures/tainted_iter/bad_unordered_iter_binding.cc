// Fixture for the determinism pass with C++17 structured bindings over a
// member carrying a thread-safety annotation. The name scan must read past
// the annotation suffix (`FRN_GUARDED_BY(mu_)` between the name and the `;`)
// to register `by_hash_` as an unordered container; otherwise the
// structured-binding loops below are never flagged.
#include <string>
#include <unordered_map>

// Stand-ins for the sync.h macros (fixtures are analyzer input, not compiled).
#define FRN_GUARDED_BY(x)

namespace frn_fixture {

struct Mu {};

class Index {
 public:
  std::string ToJson() const;
  void MergeStats(Index* into) const;

 private:
  Mu mu_;
  std::unordered_map<std::string, int> by_hash_ FRN_GUARDED_BY(mu_);
  std::unordered_map<std::string, int> pending_ FRN_GUARDED_BY(mu_);
};

std::string Index::ToJson() const {
  std::string out;
  for (const auto& [hash, count] : by_hash_) {  // [expect:determinism]
    out += hash + std::to_string(count);
  }
  return out;
}

void Index::MergeStats(Index* into) const {
  for (auto& [hash, count] : pending_) {  // [expect:determinism]
    into->by_hash_[hash] += count;
  }
}

}  // namespace frn_fixture
