// The repo's single clock utility (frn "clock" duties): the wall-clock
// Stopwatch used on the critical path and by the benches, and the thread-CPU
// clock the worker pools charge job costs with. Node, pools, benches and the
// observability layer all time through this header so the accounting has
// exactly one source of time.
#ifndef SRC_COMMON_CLOCK_H_
#define SRC_COMMON_CLOCK_H_

#include <chrono>
#include <ctime>

namespace frn {

// High-resolution wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void Restart() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// CPU time consumed by the calling thread. Unlike a wall clock this is not
// inflated when threads timeshare the machine, which is what makes the
// speculation pool's CPU wall (max over workers) hold on any host.
inline double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Thread-CPU counterpart of Stopwatch.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(ThreadCpuSeconds()) {}
  void Restart() { start_ = ThreadCpuSeconds(); }
  double ElapsedSeconds() const { return ThreadCpuSeconds() - start_; }

 private:
  double start_;
};

}  // namespace frn

#endif  // SRC_COMMON_CLOCK_H_
