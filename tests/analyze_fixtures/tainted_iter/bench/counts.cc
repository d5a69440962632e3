// A sink outside src/ whose unordered member is declared in a bench/ header.
#include "bench/counts.h"

std::string CountsJson(const Counts& counts) {
  std::string out;
  for (const auto& [name, n] : counts.by_name) {  // [expect:determinism]
    out += name + std::to_string(n);
  }
  return out;
}
