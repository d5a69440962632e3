// Annotated synchronization primitives — the only place in the repo allowed
// to name std::mutex / std::shared_mutex / std::condition_variable directly
// (tools/analyze.py pass `raw-sync` enforces this).
//
// Every wrapper carries Clang thread-safety attributes (CAPABILITY,
// GUARDED_BY, REQUIRES, ACQUIRE/RELEASE), so a clang build with
// -Wthread-safety turns lock-discipline mistakes — touching a FRN_GUARDED_BY
// member without its mutex, forgetting a MutexLock on one branch, releasing
// a lock twice, taking a lock the same function already holds — into compile
// errors. That is the class of bug this code once shipped and caught only at
// runtime (the SpecPool batch-retirement UAF, the KvStore Touch/CoolAll
// eviction wipe): the annotations move them from TSan-at-runtime to
// -Werror-at-compile-time.
// TSan (tools/run_tsan.sh) remains the dynamic backstop for what annotations
// cannot see: atomics-ordering bugs, data published without any lock, and
// lock-order inversions between functions (its deadlock detector sees every
// wrapper acquisition, because each one is a plain std:: lock call).
//
// Under GCC (or any compiler without the attributes) every macro expands to
// nothing and the wrappers are exactly std::mutex / std::shared_mutex with
// zero-cost inline forwarding, so behavior and codegen are identical — the
// annotations are compile-time only by construction.
//
// Usage idiom (see DESIGN.md §10 "Static analysis"):
//
//   class Cache {
//    public:
//     void Put(K k, V v) {
//       MutexLock lock(mu_);
//       map_[k] = v;                  // OK: mu_ held
//     }
//    private:
//     mutable SharedMutex mu_;
//     std::map<K, V> map_ FRN_GUARDED_BY(mu_);
//   };
#ifndef SRC_COMMON_SYNC_H_
#define SRC_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---- Attribute macros (no-ops outside clang) --------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FRN_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef FRN_THREAD_ANNOTATION__
#define FRN_THREAD_ANNOTATION__(x)
#endif

// A type that acts as a lock/capability (the analysis names it in messages).
#define FRN_CAPABILITY(x) FRN_THREAD_ANNOTATION__(capability(x))
// An RAII type that acquires in its constructor and releases in its destructor.
#define FRN_SCOPED_CAPABILITY FRN_THREAD_ANNOTATION__(scoped_lockable)
// Data member readable/writable only while the given capability is held.
#define FRN_GUARDED_BY(x) FRN_THREAD_ANNOTATION__(guarded_by(x))
// The caller must hold the capability.
#define FRN_REQUIRES(...) FRN_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
// The function acquires/releases the capability itself.
#define FRN_ACQUIRE(...) FRN_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define FRN_ACQUIRE_SHARED(...) FRN_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define FRN_RELEASE(...) FRN_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define FRN_RELEASE_SHARED(...) FRN_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

namespace frn {

class CondVar;

// Exclusive mutex. Thin zero-cost wrapper over std::mutex; prefer the scoped
// MutexLock over calling Lock/Unlock directly.
class FRN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FRN_ACQUIRE() { mu_.lock(); }
  void Unlock() FRN_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Reader/writer mutex. Shared (reader) side for concurrent speculation
// workers, exclusive (writer) side for the single coordinator.
class FRN_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() FRN_ACQUIRE() { mu_.lock(); }
  void Unlock() FRN_RELEASE() { mu_.unlock(); }
  void ReaderLock() FRN_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() FRN_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

// Scoped exclusive lock over either mutex flavor (the std::lock_guard /
// std::unique_lock replacement). Named, never a temporary — tools/analyze.py
// pass `raii-temporary` rejects `MutexLock(mu_);`, which would lock and
// unlock on the same line.
class FRN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FRN_ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }
  explicit MutexLock(SharedMutex& mu) FRN_ACQUIRE(mu) : smu_(&mu) { smu_->Lock(); }
  ~MutexLock() FRN_RELEASE() {
    if (mu_ != nullptr) {
      mu_->Unlock();
    } else {
      smu_->Unlock();
    }
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_ = nullptr;
  SharedMutex* smu_ = nullptr;
};

// Scoped shared (reader) lock — the std::shared_lock replacement.
class FRN_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) FRN_ACQUIRE_SHARED(mu) : mu_(&mu) { mu_->ReaderLock(); }
  // The destructor release is generic: it undoes whatever mode the
  // constructor acquired (the abseil ReaderMutexLock convention).
  ~ReaderLock() FRN_RELEASE() { mu_->ReaderUnlock(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* mu_;
};

// Condition variable bound to frn::Mutex. Wait() takes the held mutex
// explicitly so the analysis can check the caller actually holds it; the
// canonical pattern is a while-loop re-testing the predicate inline (a
// lambda predicate would hide the guarded reads from the per-function
// analysis):
//
//   MutexLock lock(mutex_);
//   while (!ready_) {          // ready_ is FRN_GUARDED_BY(mutex_)
//     cv_.Wait(mutex_);
//   }
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks, and reacquires `mu` before returning.
  // The capability is held again on return, which is why the annotation is
  // REQUIRES rather than RELEASE+ACQUIRE: from the caller's (and the
  // analysis') point of view the lock never went away.
  void Wait(Mutex& mu) FRN_REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    cv_.wait(inner);
    inner.release();  // ownership stays with the caller's MutexLock
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace frn

#endif  // SRC_COMMON_SYNC_H_
