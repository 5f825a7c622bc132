// amtfmm_launch: spawns an N-process socket-locality world on one host.
//
//   amtfmm_launch --np=4 --transport=unix -- ./amtfmm_serve --n=4000
//
// Every rank runs the identical command line (SPMD); the launcher wires
// ranks together purely through the environment (AMTFMM_NET_RANK / SIZE /
// TRANSPORT / DIR [/ WINDOW]) plus a shared bootstrap directory where the
// transport publishes its Unix socket paths or TCP ports.  The launcher
// supervises the world: any rank exiting nonzero (or a signal) tears the
// rest down, and a wall-clock timeout kills a hung world instead of
// letting CI wait forever (exit 124, the `timeout(1)` convention).
//
// Failure triage: each rank's stderr is captured to DIR/rank.<r>.stderr.
// When the world fails, the launcher prints per-rank exit status (decoding
// signals by name), the stderr tail of every failed rank, and the paths of
// any flight-recorder dumps found in the bootstrap directory — and keeps
// the directory instead of cleaning it up, so the artifacts survive.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace {

using amtfmm::Cli;

struct Child {
  pid_t pid = -1;
  bool exited = false;
  bool torn_down = false;  ///< reaped by the launcher's own teardown
  int code = 0;
  int sig = 0;  ///< terminating signal, 0 when it exited normally
};

void kill_world(std::vector<Child>& children) {
  for (const Child& c : children) {
    if (!c.exited && c.pid > 0) ::kill(c.pid, SIGTERM);
  }
  // Grace period, then escalate; a wedged progress thread ignores SIGTERM
  // only if the process is truly stuck.
  const amtfmm::Timer t;
  for (;;) {
    bool any_live = false;
    for (Child& c : children) {
      if (c.exited) continue;
      int status = 0;
      pid_t got = ::waitpid(c.pid, &status, WNOHANG);
      if (got == c.pid) {
        c.exited = true;
        c.torn_down = true;
      } else {
        any_live = true;
      }
    }
    if (!any_live) return;
    if (t.seconds() > 2.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (Child& c : children) {
    if (!c.exited && c.pid > 0) {
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
      c.exited = true;
      c.torn_down = true;
    }
  }
}

std::string stderr_path(const std::string& dir, std::size_t rank) {
  return dir + "/rank." + std::to_string(rank) + ".stderr";
}

/// Last ~2 KiB of a rank's captured stderr, printed line-aligned.
void print_stderr_tail(const std::string& path, std::size_t rank) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  constexpr long kTail = 2048;
  const long from = size > kTail ? size - kTail : 0;
  std::fseek(f, from, SEEK_SET);
  std::string buf(static_cast<std::size_t>(size - from), '\0');
  const std::size_t got = std::fread(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  buf.resize(got);
  if (buf.empty()) return;
  if (from > 0) {
    // Drop the first partial line of the tail window.
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) buf.erase(0, nl + 1);
  }
  std::fprintf(stderr, "amtfmm_launch: ---- rank %zu stderr tail ----\n",
               rank);
  std::fputs(buf.c_str(), stderr);
  if (buf.back() != '\n') std::fputc('\n', stderr);
}

/// Flight-recorder dumps a failing world left in the bootstrap directory
/// (ranks dump there by default under the launcher; see amtfmm_serve).
std::vector<std::string> find_flight_dumps(const std::string& dir) {
  std::vector<std::string> dumps;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("flight.", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
      dumps.push_back(e.path().string());
    }
  }
  std::sort(dumps.begin(), dumps.end());
  return dumps;
}

int run(int argc, char** argv) {
  // Split at "--": flags for the launcher before it, the rank command
  // after it (Cli has no positional-argument support by design).
  int split = argc;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      split = i;
      break;
    }
  }

  Cli cli(
      "Launch an N-process socket-locality world:\n"
      "  amtfmm_launch --np=2 --transport=unix -- <command> [args...]");
  cli.add_flag("np", std::int64_t{2}, "number of ranks (processes)");
  cli.add_flag("transport", std::string("unix"), "transport: unix | tcp");
  cli.add_flag("dir", std::string(""),
               "bootstrap directory (default: fresh mkdtemp, removed after)");
  cli.add_flag("timeout", 120.0, "wall-clock seconds before killing the world");
  cli.add_flag("window", std::int64_t{0},
               "injection window bytes (0 = transport default)");
  cli.parse(split, argv);

  const int np = static_cast<int>(cli.i64("np"));
  const std::string transport = cli.str("transport");
  const double timeout = cli.f64("timeout");
  if (np < 1 || np > 64) {
    std::fprintf(stderr, "amtfmm_launch: --np must be in [1, 64]\n");
    return 2;
  }
  if (transport != "unix" && transport != "tcp") {
    std::fprintf(stderr, "amtfmm_launch: --transport must be unix or tcp\n");
    return 2;
  }
  if (split + 1 >= argc) {
    std::fprintf(stderr,
                 "amtfmm_launch: missing command (usage: amtfmm_launch "
                 "[flags] -- <command> [args...])\n");
    return 2;
  }

  std::string dir = cli.str("dir");
  bool own_dir = false;
  if (dir.empty()) {
    char tmpl[] = "/tmp/amtfmm_net.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::perror("amtfmm_launch: mkdtemp");
      return 1;
    }
    dir = tmpl;
    own_dir = true;
  }

  std::vector<char*> child_argv(argv + split + 1, argv + argc);
  child_argv.push_back(nullptr);

  std::vector<Child> children(static_cast<std::size_t>(np));
  for (int r = 0; r < np; ++r) {
    pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("amtfmm_launch: fork");
      kill_world(children);
      return 1;
    }
    if (pid == 0) {
      ::setenv("AMTFMM_NET_RANK", std::to_string(r).c_str(), 1);
      ::setenv("AMTFMM_NET_SIZE", std::to_string(np).c_str(), 1);
      ::setenv("AMTFMM_NET_TRANSPORT", transport.c_str(), 1);
      ::setenv("AMTFMM_NET_DIR", dir.c_str(), 1);
      if (cli.i64("window") > 0) {
        ::setenv("AMTFMM_NET_WINDOW",
                 std::to_string(cli.i64("window")).c_str(), 1);
      }
      // Capture stderr per rank for post-mortem triage; the interleaved
      // live stream was unreadable past two ranks anyway.
      const std::string errf =
          stderr_path(dir, static_cast<std::size_t>(r));
      const int fd = ::open(errf.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execvp(child_argv[0], child_argv.data());
      std::perror("amtfmm_launch: execvp");
      _exit(127);
    }
    children[static_cast<std::size_t>(r)].pid = pid;
  }

  const amtfmm::Timer wall;
  int world_rc = 0;
  int live = np;
  bool timed_out = false;
  while (live > 0) {
    int status = 0;
    pid_t got = ::waitpid(-1, &status, WNOHANG);
    if (got > 0) {
      for (std::size_t r = 0; r < children.size(); ++r) {
        if (children[r].pid != got || children[r].exited) continue;
        children[r].exited = true;
        --live;
        int code = 0;
        if (WIFEXITED(status)) {
          code = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
          children[r].sig = WTERMSIG(status);
          code = 128 + WTERMSIG(status);
        }
        children[r].code = code;
        if (code != 0) {
          if (children[r].sig != 0) {
            std::fprintf(stderr,
                         "amtfmm_launch: rank %zu killed by signal %d (%s)\n",
                         r, children[r].sig, strsignal(children[r].sig));
          } else {
            std::fprintf(stderr, "amtfmm_launch: rank %zu exited with %d\n",
                         r, code);
          }
          if (world_rc == 0) world_rc = code;
        }
      }
      // A failed rank strands its peers in the termination protocol;
      // tear the world down rather than waiting out the timeout.
      if (world_rc != 0) break;
      continue;
    }
    if (wall.seconds() > timeout) {
      std::fprintf(stderr,
                   "amtfmm_launch: timeout after %.0f s, killing world\n",
                   timeout);
      timed_out = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  kill_world(children);
  const bool failed = timed_out || world_rc != 0;
  if (failed) {
    // Triage: per-rank exit summary, failed ranks' stderr tails, and any
    // flight-recorder dumps the dying world left behind.
    for (std::size_t r = 0; r < children.size(); ++r) {
      const Child& c = children[r];
      if (c.torn_down) {
        std::fprintf(stderr, "amtfmm_launch: rank %zu: torn down by "
                     "launcher\n", r);
      } else if (c.sig != 0) {
        std::fprintf(stderr, "amtfmm_launch: rank %zu: signal %d (%s)\n", r,
                     c.sig, strsignal(c.sig));
      } else {
        std::fprintf(stderr, "amtfmm_launch: rank %zu: exit %d\n", r, c.code);
      }
    }
    for (std::size_t r = 0; r < children.size(); ++r) {
      if (children[r].code != 0 || timed_out) {
        print_stderr_tail(stderr_path(dir, r), r);
      }
    }
    for (const std::string& dump : find_flight_dumps(dir)) {
      std::fprintf(stderr, "amtfmm_launch: flight dump: %s\n", dump.c_str());
    }
    if (own_dir) {
      std::fprintf(stderr, "amtfmm_launch: artifacts kept in %s\n",
                   dir.c_str());
    }
  } else if (own_dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  if (timed_out) return 124;
  return world_rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amtfmm_launch: %s\n", e.what());
    return 2;
  }
}
