// Rotating a thread over the CPUs it may run on.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <cstddef>
#include <vector>

namespace perfbench {

/// Moves the calling thread from one allowed CPU to the next.  Host
/// interference on a shared VM hits one vCPU at a time, for seconds; a
/// thread that stays on one vCPU can be slowed for a whole run.  Spreading
/// a run's windows (or its repeated setups) over every vCPU keeps one busy
/// host core from deciding the result.  The destructor restores the
/// original affinity.  Every call is best effort: where affinity cannot be
/// read or set, the thread stays where the scheduler puts it.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (pthread_getaffinity_np(pthread_self(), sizeof(original_),
                               &original_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) {
      pthread_setaffinity_np(pthread_self(), sizeof(original_), &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the calling thread to the `step`-th allowed CPU (modulo their
  /// count).
  void move_to(std::size_t step) const {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

}  // namespace perfbench
