#include "util/subprocess.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "util/deadline.hpp"

namespace greenhpc::util {
namespace {

TEST(Subprocess, CatRoundTripsLines) {
  Subprocess cat = Subprocess::spawn({"/bin/cat"});
  ASSERT_GT(cat.pid(), 0);
  EXPECT_TRUE(cat.running());

  LineWriter out(cat.stdin_fd());
  LineChannel in(cat.stdout_fd());
  EXPECT_TRUE(out.write_line("first"));
  EXPECT_TRUE(out.write_line("second line with spaces"));

  std::string line;
  while (!in.next_line(line)) ASSERT_NE(in.fill(), LineChannel::Fill::Eof);
  EXPECT_EQ(line, "first");
  while (!in.next_line(line)) ASSERT_NE(in.fill(), LineChannel::Fill::Eof);
  EXPECT_EQ(line, "second line with spaces");

  // EOF on stdin ends cat; the parent observes exit 0 and then EOF on the
  // read side — the coordinator's "worker finished cleanly" shape.
  cat.close_stdin();
  EXPECT_EQ(cat.wait(), 0);
  while (in.fill() == LineChannel::Fill::Data) {
  }
  EXPECT_TRUE(in.eof());
  EXPECT_FALSE(in.next_line(line));
}

TEST(Subprocess, ExecFailureSurfacesAsExit127) {
  Subprocess p = Subprocess::spawn({"/no/such/binary/greenhpc-missing"});
  const int status = p.wait();
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 127);
  EXPECT_FALSE(p.running());
}

TEST(Subprocess, EmptyArgvThrows) {
  EXPECT_THROW((void)Subprocess::spawn({}), std::runtime_error);
}

TEST(Subprocess, KillHardReapsAndIsIdempotent) {
  Subprocess p = Subprocess::spawn({"/bin/sleep", "60"});
  EXPECT_TRUE(p.running());
  p.kill_hard();
  EXPECT_FALSE(p.running());
  EXPECT_TRUE(WIFSIGNALED(p.wait()));  // signalled, not exited
  p.kill_hard();                       // no-op once reaped
  EXPECT_FALSE(p.running());
}

TEST(Subprocess, KillHardTakesTheChildsDescendantsWithIt) {
  // A `sh -c` wrapper backgrounds a long sleep, which inherits the stdout
  // pipe: the read side reaches EOF only once no descendant is left.
  Subprocess p = Subprocess::spawn({"/bin/sh", "-c", "sleep 60 & echo $!; wait"});
  LineChannel in(p.stdout_fd());
  std::string line;
  while (!in.next_line(line)) ASSERT_EQ(in.fill(), LineChannel::Fill::Data);
  const auto sleeper = static_cast<pid_t>(std::stol(line));
  ASSERT_GT(sleeper, 0);

  p.kill_hard();
  bool eof = false;
  while (!eof && !poll_readable({p.stdout_fd()}, 5.0).empty()) {
    eof = in.fill() == LineChannel::Fill::Eof;
  }
  EXPECT_TRUE(eof) << "a descendant of the killed child still holds its pipe";
  if (!eof) ::kill(sleeper, SIGKILL);  // don't leak it past a failure
}

TEST(Subprocess, DefaultHandleIsInertlySafe) {
  Subprocess p;
  EXPECT_EQ(p.pid(), -1);
  EXPECT_FALSE(p.running());
  p.kill_hard();
  p.close_stdin();
}

TEST(Subprocess, WriteToDeadPeerReturnsFalseNotSigpipe) {
  Subprocess p = Subprocess::spawn({"/bin/true"});
  p.wait();  // child gone; its stdin read end is closed
  // The first write may land in the pipe buffer; EPIPE is guaranteed once
  // the kernel sees the reader gone, so hammer until write_all reports it.
  const std::string big(1 << 16, 'x');
  bool saw_failure = false;
  for (int i = 0; i < 8 && !saw_failure; ++i) {
    saw_failure = !write_all(p.stdin_fd(), big);
  }
  EXPECT_TRUE(saw_failure);  // and the test process is still alive
}

TEST(Subprocess, LineWriterStaysBrokenAfterPeerDeath) {
  Subprocess p = Subprocess::spawn({"/bin/true"});
  p.wait();
  LineWriter out(p.stdin_fd());
  const std::string big(1 << 16, 'y');
  bool ok = true;
  for (int i = 0; i < 8 && ok; ++i) ok = out.write_line(big);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(out.write_line("short"));  // broken is sticky
}

TEST(Subprocess, PollReadableTimesOutThenFires) {
  Subprocess cat = Subprocess::spawn({"/bin/cat"});
  const std::vector<int> fds = {cat.stdout_fd(), -1};  // -1 entries skipped

  EXPECT_TRUE(poll_readable(fds, 0.02).empty());

  LineWriter out(cat.stdin_fd());
  ASSERT_TRUE(out.write_line("ping"));
  const std::vector<std::size_t> ready = poll_readable(fds, 2.0);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], 0u);

  EXPECT_TRUE(poll_readable({}, 0.0).empty());
  EXPECT_TRUE(poll_readable({-1, -1}, 0.0).empty());
}

TEST(Subprocess, NonblockingChannelReportsWouldBlock) {
  Subprocess cat = Subprocess::spawn({"/bin/cat"});
  cat.set_stdout_nonblocking();
  LineChannel in(cat.stdout_fd());
  EXPECT_EQ(in.fill(), LineChannel::Fill::WouldBlock);
  EXPECT_FALSE(in.eof());

  LineWriter out(cat.stdin_fd());
  ASSERT_TRUE(out.write_line("data"));
  ASSERT_FALSE(poll_readable({cat.stdout_fd()}, 2.0).empty());
  EXPECT_EQ(in.fill(), LineChannel::Fill::Data);
  std::string line;
  ASSERT_TRUE(in.next_line(line));
  EXPECT_EQ(line, "data");

  cat.close_stdin();
  // Drain to EOF: WouldBlock while the exit races, then a definitive Eof.
  LineChannel::Fill f = in.fill();
  while (f == LineChannel::Fill::WouldBlock || f == LineChannel::Fill::Data) {
    (void)poll_readable({cat.stdout_fd()}, 2.0);
    f = in.fill();
  }
  EXPECT_EQ(f, LineChannel::Fill::Eof);
  EXPECT_EQ(in.fill(), LineChannel::Fill::Eof);  // Eof is sticky
}

TEST(Subprocess, MoveTransfersOwnership) {
  Subprocess a = Subprocess::spawn({"/bin/sleep", "60"});
  const pid_t pid = a.pid();
  Subprocess b = std::move(a);
  EXPECT_EQ(a.pid(), -1);
  EXPECT_EQ(b.pid(), pid);
  EXPECT_TRUE(b.running());
  b.kill_hard();
}

TEST(Deadline, SyntheticTimeSemantics) {
  Deadline d(10.0, 2.5);
  EXPECT_FALSE(d.expired(12.0));
  EXPECT_TRUE(d.expired(12.5));
  EXPECT_DOUBLE_EQ(d.remaining_s(11.0), 1.5);
  EXPECT_DOUBLE_EQ(d.remaining_s(13.0), 0.0);
  d.extend(13.0, 1.0);
  EXPECT_FALSE(d.expired(13.5));
  EXPECT_TRUE(d.expired(14.0));
}

TEST(MonotoneClock, AdvancesMonotonically) {
  MonotoneClock clock;
  const double a = clock.now_s();
  const double b = clock.now_s();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace greenhpc::util
