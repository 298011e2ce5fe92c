#pragma once
// Local subprocess spawning and pipe-based line transport.
//
// The distributed sweep fabric (core::SweepCoordinator) shards work to
// worker PROCESSES, not threads: a worker that segfaults, leaks, is
// OOM-killed or SIGKILLed by an operator must never take the coordinator
// down with it. That isolation boundary is what this module provides —
// fork/exec with stdin/stdout pipes, poll-based readiness, EPIPE-safe
// writes (SIGPIPE is ignored process-wide on first spawn: a dead peer is
// an error return, not process death), and hard-kill/reap lifecycle so
// no zombie survives the coordinator.
//
// Transport framing is line-oriented: LineChannel buffers raw reads and
// hands out complete '\n'-terminated lines, working over both blocking
// fds (worker main loop) and O_NONBLOCK fds (coordinator event loop).
// LineWriter serializes multi-thread writes (worker heartbeat thread vs
// its block-report thread) behind a mutex so lines never interleave.

#include <sys/types.h>

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace greenhpc::util {

/// A spawned child connected by two pipes: the parent writes to the
/// child's stdin and reads from its stdout (stderr passes through, so
/// worker diagnostics land on the operator's terminal). The destructor
/// hard-kills and reaps a still-running child — a Subprocess can never
/// outlive its owner as a zombie or an orphan. Each child runs in its own
/// process group, so terminal signals (Ctrl-C) reach only the parent;
/// a parent that dies closes the pipes, and a worker reads that as EOF.
class Subprocess {
 public:
  /// fork/exec `argv` (argv[0] is the executable path; PATH is searched).
  /// Throws std::runtime_error when the pipes or fork fail. An exec
  /// failure surfaces as the child exiting with status 127, which the
  /// caller observes via wait()/running() — the same way a worker death
  /// mid-run does, so both take one recovery path.
  [[nodiscard]] static Subprocess spawn(const std::vector<std::string>& argv);

  /// Empty handle (pid -1, no pipes): the not-yet-spawned / moved-from
  /// state. All observers are safe on it.
  Subprocess() = default;

  /// Kept for `Subprocess.MoveTransfersOwnership`.
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess();

  [[nodiscard]] pid_t pid() const { return pid_; }
  /// Parent-side write end of the child's stdin; -1 after close_stdin().
  [[nodiscard]] int stdin_fd() const { return stdin_fd_; }
  /// Parent-side read end of the child's stdout.
  [[nodiscard]] int stdout_fd() const { return stdout_fd_; }

  /// Non-blocking liveness probe (waitpid WNOHANG); reaps on exit.
  [[nodiscard]] bool running();
  /// SIGKILL to the child's process group + blocking reap of the child.
  /// Each child leads its own group, so descendants it spawned (and did
  /// not move to another group) die with it instead of outliving it with
  /// the inherited pipes open. Idempotent; no-op once reaped.
  void kill_hard();
  /// Blocking reap; returns the raw waitpid status (or the cached one).
  int wait();
  /// Close the write end: the child sees EOF on its stdin (the
  /// coordinator's "no more work" signal, and half of graceful shutdown).
  void close_stdin();
  /// Put the parent's read end into O_NONBLOCK (coordinator event loop).
  void set_stdout_nonblocking();

 private:
  void reset() noexcept;

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  bool reaped_ = false;
  int status_ = -1;
};

/// Write every byte of `data` to `fd`, retrying short writes and EINTR.
/// Returns false on EPIPE or any other write error (dead peer) instead
/// of raising SIGPIPE.
bool write_all(int fd, const std::string& data);

/// Indices of fds in `fds` that are readable (or at EOF/HUP — a read
/// will not block either way) within `timeout_s`. Entries of -1 are
/// skipped. An empty result means the timeout elapsed.
[[nodiscard]] std::vector<std::size_t> poll_readable(const std::vector<int>& fds,
                                                     double timeout_s);

/// Buffered line extraction over an fd. Works with blocking fds (fill()
/// blocks until data or EOF) and non-blocking ones (fill() returns
/// WouldBlock when the pipe is drained).
class LineChannel {
 public:
  explicit LineChannel(int fd) : fd_(fd) {}

  enum class Fill { Data, WouldBlock, Eof, Error };

  /// Pop the next complete buffered line (without its '\n'); false when
  /// no complete line is buffered — call fill() and retry.
  bool next_line(std::string& out);
  /// One read() into the buffer. Eof is permanent once observed.
  Fill fill();
  /// Whether EOF has been observed (buffered lines may still remain).
  [[nodiscard]] bool eof() const { return eof_; }

 private:
  int fd_;
  std::string buf_;
  bool eof_ = false;
};

/// Mutex-serialized whole-line writes: concurrent callers (a worker's
/// heartbeat thread and its main loop) never interleave bytes.
class LineWriter {
 public:
  explicit LineWriter(int fd) : fd_(fd) {}
  /// Append '\n' and write atomically w.r.t. other write_line callers.
  /// False once the peer is gone (EPIPE); subsequent calls stay false.
  bool write_line(const std::string& line);

 private:
  int fd_;
  std::mutex mu_;
  bool broken_ = false;
};

}  // namespace greenhpc::util
