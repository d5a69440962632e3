// ThreadSanitizer probe: TSan's deadlock detector sees a lock-order inversion
// taken through the frn wrappers. One thread takes a Mutex, then a
// SharedMutex reader lock; a later thread takes the two in the reverse order.
// The threads never overlap, so nothing can deadlock, but the two orders
// conflict and TSan reports "lock-order-inversion (potential deadlock)".
//
// tests/CMakeLists.txt builds and registers this binary only when
// FRN_SANITIZE=thread, and the test passes only on that report: a wrapper
// change that hides acquisitions from TSan fails it.
#include "src/common/sync.h"

#include <thread>

int main() {
  frn::Mutex mutex;
  frn::SharedMutex shared;
  std::thread first([&] {
    frn::MutexLock hold(mutex);
    frn::ReaderLock read(shared);
  });
  first.join();
  std::thread second([&] {
    frn::ReaderLock read(shared);
    frn::MutexLock hold(mutex);
  });
  second.join();
  return 0;
}
