#pragma once
// Sweep journal: a write-ahead log that makes sweeps crash-restartable.
//
// A fleet-scale sweep is hours of simulation; a SIGKILL (preempted CI
// runner, OOM-killer, operator ctrl-C) must not throw that work away.
// The journal records, under a run directory, the grid's configuration
// digest plus one record per COMPLETED block: the case range, every
// case's metric bit patterns (or its quarantine record), and the running
// FNV digest after folding the block. Each record is flushed and fsynced
// before the engine reports the block done, so the journal is always a
// prefix of the truth — a crash loses at most the in-flight block.
//
// On resume, SweepEngine re-folds the recorded metrics instead of
// re-simulating (cheap: microseconds per block) and continues from the
// first unrecorded case. Because metrics are stored as exact 64-bit
// patterns and blocks fold in the same serial order, a resumed sweep's
// aggregates and digest are bit-identical to an uninterrupted run —
// the resume contract asserted by tests and the CI kill-and-resume job.
//
// File format (`sweep.journal` inside the run directory), line-oriented
// ASCII; every line ends in ` | <fnv16>`, the FNV-1a of the line content
// before the separator:
//
//   greenhpc-sweep-journal v1 <config16> <cases> <block> | <fnv16>
//   block <start> <count> <digest16> c <m1>..<m7> ... f <attempts> <hexmsg> | <fnv16>
//
// Per-case entries appear in flat-case order: `c` + seven hex-encoded
// doubles for a success, `f` + attempt count + hex-encoded error text
// for a quarantined case. Hardening: a torn or bit-flipped line fails
// its checksum (or breaks the block chain) and drops that line AND
// everything after it — the engine re-runs from the last valid block.
// Dropping a suffix is reported: one stderr line naming the file, the
// first dropped line and the bytes discarded, plus the
// `sweep.journal_truncations` counter. A corrupt header, a
// version/config/shape mismatch, or a digest that does not re-fold
// throws greenhpc::InvalidArgument with a clear message.
//
// SHARD MODE (distributed sweeps): each SweepWorker journals the blocks
// it completed into its own `shard-g<gen>-<tag>.journal` (version token
// `v1-shard`). Shard records may arrive in ANY block order (the
// coordinator leases blocks out of sequence after failures), must be
// block-aligned, and store the BLOCK-LOCAL digest (fold of just that
// block's cases from kSweepDigestBasis) because a worker cannot know its
// block's global fold position. A restarted coordinator resumes from the
// UNION of all shard files under the run directory via load_shards();
// the generation number in the file name is bumped per coordinator run
// so a restart never clobbers the shards that survived the crash.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace greenhpc::core {

/// A journal I/O failure (ENOSPC, EIO, a vanished directory) at append
/// time. Distinct from InvalidArgument/LogicError because the CORRECT
/// response differs: a sweep must not abort mid-run because its crash
/// insurance broke — callers catch this, count a warning, drop to
/// journal-less operation and keep simulating. Configuration errors
/// (wrong grid, misaligned block) stay InvalidArgument/LogicError and
/// still abort.
class JournalIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The one journal-degrade path of every sweep runner: runs `io` (a
/// journal create or append) and returns whether it completed. The
/// journal is crash insurance, not a correctness dependency, so a
/// JournalIoError is contained: counted in `sweep.journal_io_degraded`,
/// reported on one stderr line and in `*error` (when given), and the
/// caller drops its journal and keeps simulating.
[[nodiscard]] bool journal_io_ok(const std::function<void()>& io,
                                 std::string* error = nullptr);

class SweepJournal {
 public:
  SweepJournal(SweepJournal&&) = default;
  SweepJournal& operator=(SweepJournal&&) = default;

  /// Start a fresh journal under `dir` (created if missing): truncates
  /// any previous journal and writes the fsynced header binding the
  /// journal to (config digest, case count, block size).
  [[nodiscard]] static SweepJournal create(const std::string& dir,
                                           std::uint64_t config_digest,
                                           std::size_t cases, std::size_t block);

  /// Reopen an existing journal for resume. Validates the header against
  /// the grid (InvalidArgument on version/config/case-count mismatch),
  /// loads the longest valid prefix of block records (a torn or corrupt
  /// line drops itself and everything after it, logged + counted),
  /// truncates the file to that prefix, and reopens for append.
  [[nodiscard]] static SweepJournal resume(const std::string& dir,
                                           std::uint64_t config_digest,
                                           std::size_t cases);

  /// Whether any journal file (chained or shard) exists under `dir` —
  /// the CLI's resume-or-start probe.
  [[nodiscard]] static bool exists(const std::string& dir);

  // --- shard mode (distributed sweeps) ----------------------------------

  /// Start a fresh shard journal `dir/file_name` (dir created if
  /// missing). Shard records may be appended in any block order; each
  /// must be block-aligned and carry its block-local digest.
  [[nodiscard]] static SweepJournal create_shard(const std::string& dir,
                                                const std::string& file_name,
                                                std::uint64_t config_digest,
                                                std::size_t cases,
                                                std::size_t block);

  /// Canonical shard file name: `shard-g<gen>-<tag>.journal`.
  [[nodiscard]] static std::string shard_file_name(int gen, const std::string& tag);

  /// The union of every `shard-*.journal` under `dir`.
  struct ShardLoad {
    /// Distinct completed blocks, sorted by start (block-local digests
    /// verified by re-fold).
    std::vector<SweepBlock> blocks;
    std::size_t files = 0;             ///< shard files scanned
    std::size_t duplicate_blocks = 0;  ///< identical records dropped
    int max_gen = -1;                  ///< highest generation seen (-1: none)
    std::size_t block = 0;             ///< block size recorded by the shards
    std::size_t truncations = 0;       ///< files whose corrupt suffix was dropped
  };

  /// Scan `dir` for shard journals and merge their valid records.
  /// Per-file valid-prefix recovery: a torn/corrupt line drops the rest
  /// of THAT file only (logged + counted). The same block reported by
  /// two shards (at-least-once delivery) deduplicates by start; a start
  /// collision with DIFFERENT digests throws InvalidArgument — that is
  /// not duplicate delivery, it is nondeterminism or corruption, and
  /// folding either copy could fabricate results. Headers must agree
  /// with the grid and with each other. An empty/missing dir is a valid
  /// empty load.
  [[nodiscard]] static ShardLoad load_shards(const std::string& dir,
                                             std::uint64_t config_digest,
                                             std::size_t cases);

  /// Serialize one block record to its sealed journal/wire line (no
  /// trailing newline). The pipe protocol ships exactly these bytes.
  [[nodiscard]] static std::string serialize_block_line(const SweepBlock& rec);

  // ----------------------------------------------------------------------

  /// Blocks proven complete by the journal. Chained mode: contiguous
  /// from case 0, in order. Shard mode: the order they were appended.
  [[nodiscard]] const std::vector<SweepBlock>& completed() const {
    return completed_;
  }
  /// First case not covered by a completed block (chained mode).
  [[nodiscard]] std::size_t resume_point() const;
  /// Block size recorded in the header; a resumed engine adopts it so
  /// block boundaries line up with the journaled records.
  [[nodiscard]] std::size_t block() const { return block_; }
  [[nodiscard]] std::size_t cases() const { return cases_; }
  [[nodiscard]] std::uint64_t config_digest() const { return config_digest_; }
  /// The journal file this instance appends to.
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Whether this journal was opened in shard mode.
  [[nodiscard]] bool is_shard() const { return shard_; }
  /// Truncation events THIS instance performed (resume() dropping a
  /// torn/corrupt suffix). Per-run by construction — two sweeps in one
  /// process each report only their own journal's truncations.
  [[nodiscard]] std::uint64_t truncations() const { return truncations_; }

  /// Append one completed block: serialize, write, flush, fsync. The
  /// record is durable when this returns. Chained mode: blocks must
  /// arrive in case order (start == resume_point()). Shard mode: any
  /// order, but the record must be block-aligned with the right size and
  /// its digest must re-fold (LogicError otherwise — the caller built a
  /// broken record). Throws JournalIoError if the write or fsync fails;
  /// the record is NOT recorded as completed in that case (the file may
  /// hold a torn line, which resume() will drop).
  void append(const SweepBlock& record);

  /// Journal file name inside a run directory (chained mode).
  static constexpr const char* kFileName = "sweep.journal";

 private:
  SweepJournal() = default;

  std::string path_;
  std::uint64_t config_digest_ = 0;
  std::size_t cases_ = 0;
  std::size_t block_ = 0;
  bool shard_ = false;
  std::uint64_t truncations_ = 0;
  std::vector<SweepBlock> completed_;
};

}  // namespace greenhpc::core
