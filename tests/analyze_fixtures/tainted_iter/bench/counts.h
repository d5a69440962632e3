// The include closure follows every repo header, not just src/ ones: the
// unordered member declared here must register in counts.cc.
#include <string>
#include <unordered_map>

struct Counts {
  std::unordered_map<std::string, int> by_name;
};
