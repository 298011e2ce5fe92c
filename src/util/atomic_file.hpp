#pragma once
// Atomic (all-or-nothing) file publication for run artifacts.
//
// Every artifact the toolchain emits — traces, metrics snapshots, run
// reports, sweep CSVs, journals — is consumed by something downstream
// (CI validators, plotting scripts, a resumed run). A process killed
// mid-write must therefore never leave a torn file at the destination
// path: either the complete new content is there, or whatever was there
// before (including nothing) still is.
//
// atomic_write_file implements the classic commit protocol: write the
// full content to a temporary file in the destination's directory, flush
// and fsync it, rename() it over the destination (atomic on POSIX within
// one filesystem), then fsync the directory so the rename itself is
// durable. Any failure before the rename removes the temporary and
// leaves the destination untouched.

#include <functional>
#include <iosfwd>
#include <string>

namespace greenhpc::util {

/// Write `body`'s output to `path` atomically: the content lands via a
/// same-directory temporary + fsync + rename, so a crash at ANY point
/// leaves either the old destination or the complete new one — never a
/// partial file. Throws std::runtime_error on I/O failure (temporary is
/// removed) and propagates exceptions thrown by `body` the same way.
/// `path` must name a regular file on a POSIX filesystem (rename target).
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& body);

/// Test-only failure injection: the hook runs after `body` has produced
/// the temporary file but BEFORE the rename commit — throwing from it
/// simulates a crash mid-publication. The destination must be untouched
/// afterwards (asserted in test_atomic_file.cpp). Pass nullptr to clear.
/// Kept for `AtomicFileTest.SimulatedCrashPreservesOldContent` (test hook).
void set_atomic_write_failure_hook(std::function<void()> hook);

}  // namespace greenhpc::util
