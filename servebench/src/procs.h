// Child processes (cortexd, cortex_router) and what /proc says about them.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace servebench {

class Child {
 public:
  Child() = default;
  ~Child() { Stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Starts argv[0] (a path) with stdout and stderr appended to `log_path`.
  // The child is killed if this process dies first.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path,
             std::string* error);
  // SIGTERM (the servers drain gracefully), then SIGKILL after 10 s; waits
  // until the process has ended either way.  Idempotent.
  void Stop();
  // False once the process has exited (reaps it).
  bool Alive();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

// utime + stime in seconds.
double CpuSeconds(pid_t pid);
// Peak resident set (VmHWM) in MiB.
double PeakRssMb(pid_t pid);

}  // namespace servebench
