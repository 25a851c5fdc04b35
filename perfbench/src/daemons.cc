#include "daemons.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

// Live children, readable from a signal handler.
constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void OnSignal(int sig) {
  KillAllChildren();  // kill() and waitpid() are async-signal-safe
  _exit(128 + sig);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

void KillAllChildren() {
  for (auto& slot : g_children) {
    pid_t pid = slot.exchange(0);
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
}

void InstallCleanupHandlers() {
  struct sigaction action {};
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  // A daemon that drops a connection must not kill perfbench.
  signal(SIGPIPE, SIG_IGN);
}

xsq::Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_dir, const std::string& label) {
  std::string out_path = log_dir + "/" + label + ".out";
  std::string err_path = log_dir + "/" + label + ".err";
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  // A previous daemon's log under the same label must not be mistaken
  // for this one's LISTENING line.
  unlink(out_path.c_str());
  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) return xsq::Status::Internal("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    int in = open("/dev/null", O_RDONLY);
    int out = open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (in < 0 || out < 0 || err < 0) _exit(1);
    dup2(in, 0);
    dup2(out, 1);
    dup2(err, 2);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  Register(pid);
  std::unique_ptr<Daemon> daemon(new Daemon(pid, 0));

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    std::string text = ReadFile(out_path);
    size_t at = text.find("LISTENING ");
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      daemon->port_ = static_cast<uint16_t>(
          std::strtoul(text.c_str() + at + 10, nullptr, 10));
      return daemon;
    }
    if (waitpid(pid, nullptr, WNOHANG) == pid) {
      Unregister(pid);
      daemon->pid_ = 0;
      return xsq::Status::Internal(label + " exited before listening: " +
                                   ReadFile(err_path));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return xsq::Status::Internal(label + " printed no LISTENING line");
}

Daemon::~Daemon() { Stop(); }

void Daemon::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  bool reaped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  Unregister(pid_);
  pid_ = 0;
}

}  // namespace perfbench
