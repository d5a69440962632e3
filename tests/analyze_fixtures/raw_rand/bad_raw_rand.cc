// Fixture for the raw-rand pass: unseeded/global randomness outside
// src/common/rng.h breaks bit-identical table regeneration.
#include <cstdlib>
#include <random>

namespace frn_fixture {

int Roll() {
  return rand() % 6;  // [expect:raw-rand]
}

int RollSeeded() {
  std::random_device rd;                           // [expect:raw-rand]
  std::mt19937 gen(rd());                          // [expect:raw-rand]
  std::uniform_int_distribution<int> dist(1, 6);   // [expect:raw-rand]
  return dist(gen);
}

// Identifiers merely containing "rand" must not fire:
int operand(int brand) { return brand + 1; }

// Suppressed — must NOT appear in the findings:
int RollAllowed() { return rand() % 2; }  // frn:allow(raw-rand)

}  // namespace frn_fixture
