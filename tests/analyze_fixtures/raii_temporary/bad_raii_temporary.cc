// Fixture for the raii-temporary pass: a guard constructed as an unnamed
// temporary is destroyed at the end of the same full-expression —
// `MutexLock(mu_);` locks and immediately unlocks, guarding nothing.
#include "src/common/sync.h"

namespace frn_fixture {

frn::Mutex g_mu;
int g_count = 0;

void IncrementUnguarded() {
  frn::MutexLock(g_mu);  // [expect:raii-temporary]
  ++g_count;
}

void IncrementGuarded() {
  frn::MutexLock lock(g_mu);  // named: held to end of scope, silent
  ++g_count;
}

// Constructor declarations and deleted copies must not fire:
struct Wrapper {
  frn::SharedMutex mu;
  void Read() {
    frn::ReaderLock(mu);  // [expect:raii-temporary]
  }
};

// Suppressed — must NOT appear in the findings:
void Touch() {
  frn::MutexLock(g_mu);  // frn:allow(raii-temporary)
}

}  // namespace frn_fixture
