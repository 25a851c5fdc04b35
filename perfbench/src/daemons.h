// Child daemons (xsqd, xsq_router) for the serving workloads.
//
// Each daemon is started with --listen=0 and its port is read from the
// "LISTENING <port>" line it prints. Every child is registered in a
// process-wide table so it is killed and reaped on every exit path:
// the Daemon destructor, a failed check that ends the run, and
// SIGINT/SIGTERM (InstallCleanupHandlers). Children also get
// PR_SET_PDEATHSIG, so they die with perfbench even if it is killed
// outright.
#ifndef PERFBENCH_DAEMONS_H_
#define PERFBENCH_DAEMONS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class Daemon {
 public:
  // Starts `binary` with `args` (plus nothing else), stdout and stderr
  // to files under `log_dir`, and waits for its LISTENING line.
  static xsq::Result<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_dir, const std::string& label);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  // SIGTERM, a bounded wait, then SIGKILL; always reaps.
  void Stop();

 private:
  Daemon(pid_t pid, uint16_t port) : pid_(pid), port_(port) {}
  pid_t pid_;
  uint16_t port_;
};

// SIGINT/SIGTERM: kill and reap every live child, then exit.
void InstallCleanupHandlers();
// Kills and reaps every live child (for fatal error paths).
void KillAllChildren();

}  // namespace perfbench

#endif  // PERFBENCH_DAEMONS_H_
