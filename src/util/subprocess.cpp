#include "util/subprocess.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace greenhpc::util {

namespace {

/// Writing to a worker that died between our poll and our write must be
/// an EPIPE error return, not process death. Installed once, before the
/// first fork, so every child inherits a clean default disposition after
/// exec anyway (exec resets ignored SIGPIPE only if handled, not ignored
/// — workers that want SIGPIPE semantics must opt back in).
void ignore_sigpipe_once() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

}  // namespace

Subprocess Subprocess::spawn(const std::vector<std::string>& argv) {
  if (argv.empty()) throw std::runtime_error("Subprocess::spawn: empty argv");
  ignore_sigpipe_once();

  int to_child[2];   // parent writes [1] -> child stdin [0]
  int from_child[2]; // child stdout [1] -> parent reads [0]
  if (::pipe(to_child) != 0) {
    throw std::runtime_error(std::string("Subprocess: pipe failed: ") +
                             std::strerror(errno));
  }
  if (::pipe(from_child) != 0) {
    const int saved = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw std::runtime_error(std::string("Subprocess: pipe failed: ") +
                             std::strerror(saved));
  }
  // The parent's ends must not leak into LATER children: without
  // FD_CLOEXEC, worker N+1 inherits a copy of worker N's stdin write end,
  // and closing it in the parent no longer delivers EOF — the "no more
  // work" half of graceful shutdown silently stops working the moment a
  // second worker is spawned.
  ::fcntl(to_child[1], F_SETFD, FD_CLOEXEC);
  ::fcntl(from_child[0], F_SETFD, FD_CLOEXEC);

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int saved = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    throw std::runtime_error(std::string("Subprocess: fork failed: ") +
                             std::strerror(saved));
  }

  if (pid == 0) {
    // Child: wire the pipes to stdin/stdout, close everything else we
    // opened, exec. Only async-signal-safe calls between fork and exec.
    // dup2 can be interrupted by a signal delivered to the forked child;
    // a failed dup2 must not fall through to exec with a dangling stdio.
    int rc;
    do {
      rc = ::dup2(to_child[0], STDIN_FILENO);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) ::_exit(127);
    do {
      rc = ::dup2(from_child[1], STDOUT_FILENO);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) ::_exit(127);
    // Own process group, so kill_hard reaches everything the child
    // spawns (a `sh -c` wrapper's commands, say), not just the child.
    ::setpgid(0, 0);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execvp(cargv[0], cargv.data());
    // Exec failed: exit 127 (the shell convention) so the parent's death
    // detection fires exactly as for a mid-run worker crash.
    ::_exit(127);
  }

  // Also from this side, so the group exists before spawn() returns
  // whichever process runs first (fails harmlessly once the child has
  // exec'd, by which time it has set the group itself).
  ::setpgid(pid, pid);
  ::close(to_child[0]);
  ::close(from_child[1]);
  Subprocess p;
  p.pid_ = pid;
  p.stdin_fd_ = to_child[1];
  p.stdout_fd_ = from_child[0];
  return p;
}

Subprocess::Subprocess(Subprocess&& other) noexcept { *this = std::move(other); }

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    reset();
    pid_ = std::exchange(other.pid_, -1);
    stdin_fd_ = std::exchange(other.stdin_fd_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    reaped_ = std::exchange(other.reaped_, false);
    status_ = std::exchange(other.status_, -1);
  }
  return *this;
}

Subprocess::~Subprocess() { reset(); }

void Subprocess::reset() noexcept {
  if (pid_ > 0 && !reaped_) kill_hard();
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdin_fd_ = -1;
  stdout_fd_ = -1;
  pid_ = -1;
}

bool Subprocess::running() {
  if (pid_ <= 0 || reaped_) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    reaped_ = true;
    status_ = status;
    return false;
  }
  return r == 0;
}

void Subprocess::kill_hard() {
  if (pid_ <= 0 || reaped_) return;
  ::killpg(pid_, SIGKILL);  // the child and every descendant in its group
  ::kill(pid_, SIGKILL);    // in case it has left the group
  (void)wait();
}

int Subprocess::wait() {
  if (pid_ <= 0) return status_;
  if (!reaped_) {
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid_, &status, 0);
    } while (r < 0 && errno == EINTR);
    if (r == pid_) {
      reaped_ = true;
      status_ = status;
    }
  }
  return status_;
}

int Subprocess::exit_code() const {
  if (!reaped_ || !WIFEXITED(status_)) return -1;
  return WEXITSTATUS(status_);
}

void Subprocess::close_stdin() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
}

void Subprocess::set_stdout_nonblocking() {
  if (stdout_fd_ < 0) return;
  const int flags = ::fcntl(stdout_fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(stdout_fd_, F_SETFL, flags | O_NONBLOCK);
}

bool write_all(int fd, const std::string& data) {
  if (fd < 0) return false;
  ignore_sigpipe_once();
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE (dead peer) or a real I/O error
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::size_t> poll_readable(const std::vector<int>& fds,
                                       double timeout_s) {
  std::vector<struct pollfd> pfds;
  std::vector<std::size_t> index_of;
  pfds.reserve(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i] < 0) continue;
    pfds.push_back({fds[i], POLLIN, 0});
    index_of.push_back(i);
  }
  std::vector<std::size_t> ready;
  if (pfds.empty()) return ready;
  const int timeout_ms =
      timeout_s < 0.0 ? -1
                      : static_cast<int>(std::ceil(timeout_s * 1000.0));
  int rc;
  do {
    rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) return ready;
  for (std::size_t k = 0; k < pfds.size(); ++k) {
    if (pfds[k].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) {
      ready.push_back(index_of[k]);
    }
  }
  return ready;
}

bool LineChannel::next_line(std::string& out) {
  const std::size_t nl = buf_.find('\n');
  if (nl == std::string::npos) return false;
  out.assign(buf_, 0, nl);
  buf_.erase(0, nl + 1);
  return true;
}

LineChannel::Fill LineChannel::fill() {
  if (eof_) return Fill::Eof;
  char chunk[4096];
  // Retry EINTR here rather than reporting WouldBlock: on a BLOCKING fd a
  // WouldBlock return tells the caller "poll again", and poll would report
  // the fd readable immediately — a signal-storm busy-spin. The read itself
  // is the correct retry point.
  ssize_t n;
  do {
    n = ::read(fd_, chunk, sizeof(chunk));
  } while (n < 0 && errno == EINTR);
  if (n > 0) {
    buf_.append(chunk, static_cast<std::size_t>(n));
    return Fill::Data;
  }
  if (n == 0) {
    eof_ = true;
    return Fill::Eof;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK) return Fill::WouldBlock;
  eof_ = true;  // unrecoverable read error: treat as a dead peer
  return Fill::Error;
}

bool LineWriter::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) return false;
  if (!write_all(fd_, line + "\n")) {
    broken_ = true;
    return false;
  }
  return true;
}

}  // namespace greenhpc::util
