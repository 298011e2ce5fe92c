#include "core/sweep_journal.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>

#include "core/sweep_wire.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"

namespace greenhpc::core {

namespace {

constexpr const char* kMagic = "greenhpc-sweep-journal";
constexpr const char* kVersion = "v1";
constexpr const char* kShardVersion = "v1-shard";

void mkdir_recursive(const std::string& dir) {
  std::string partial;
  for (std::size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      partial += dir[i];
      continue;
    }
    if (i < dir.size()) partial += '/';
    if (partial.empty() || partial == "/") continue;
    if (::mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST) {
      throw JournalIoError("cannot create journal directory: " + partial +
                           ": " + std::strerror(errno));
    }
  }
}

void append_durable(const std::string& path, const std::string& data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    throw JournalIoError("cannot open journal for append: " + path + ": " +
                         std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      throw JournalIoError("journal write failed: " + path + ": " +
                           std::strerror(saved));
    }
    off += static_cast<std::size_t>(n);
  }
  // The WAL property lives or dies here: the block is only "complete"
  // once its record survives a crash.
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw JournalIoError("journal fsync failed: " + path);
}

/// Write the fsynced header of a fresh journal file and fsync the
/// directory entry, so the file survives a crash the moment create()
/// returns.
void write_header_durable(const std::string& dir, const std::string& path,
                          const std::string& version, std::uint64_t config_digest,
                          std::size_t cases, std::size_t block) {
  const std::string header =
      wire::seal(std::string(kMagic) + ' ' + version + ' ' +
                 wire::hex64(config_digest) + ' ' + std::to_string(cases) + ' ' +
                 std::to_string(block)) +
      "\n";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw JournalIoError("cannot create journal file: " + path);
    out << header;
    out.flush();
    if (!out) throw JournalIoError("journal header write failed: " + path);
  }
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) throw JournalIoError("cannot reopen journal: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw JournalIoError("journal fsync failed: " + path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

struct Header {
  std::string version;
  std::uint64_t config = 0;
  std::size_t cases = 0;
  std::size_t block = 0;
};

/// Parse and validate a journal header line against the grid. The
/// version check is against `version`; everything else throws the same
/// clear InvalidArgument messages for chained and shard files.
Header read_header(const std::string& line, const std::string& path,
                   const std::string& version, std::uint64_t config_digest,
                   std::size_t cases) {
  std::string_view content;
  GREENHPC_REQUIRE(wire::unseal(line, content),
                   "cannot resume: journal header is corrupt (checksum "
                   "mismatch): " + path);
  const std::vector<std::string_view> head = wire::tokens_of(content);
  GREENHPC_REQUIRE(head.size() == 5 && head[0] == kMagic,
                   "cannot resume: not a sweep journal: " + path);
  Header h;
  h.version = head[1];
  GREENHPC_REQUIRE(h.version == version,
                   "cannot resume: unsupported journal version '" + h.version +
                       "' (expected " + version + "): " + path);
  GREENHPC_REQUIRE(wire::parse_hex64(head[2], h.config) &&
                       wire::parse_size(head[3], h.cases) &&
                       wire::parse_size(head[4], h.block) && h.block > 0,
                   "cannot resume: journal header is malformed: " + path);
  GREENHPC_REQUIRE(h.config == config_digest,
                   "cannot resume: journal was written for a different grid "
                   "(config digest " + wire::hex64(h.config) + " != " +
                       wire::hex64(config_digest) + "): " + path);
  GREENHPC_REQUIRE(h.cases == cases,
                   "cannot resume: journal case count " +
                       std::to_string(h.cases) + " != grid case count " +
                       std::to_string(cases) + ": " + path);
  return h;
}

/// Dropping a torn/corrupt suffix must be loud. One stderr line (file,
/// first dropped line, bytes discarded) plus a metrics counter — silent
/// data loss in a recovery path is how corruption goes unnoticed for
/// months. Returns 1 when a truncation happened so CALLERS can account
/// per run (the obs counter is process-cumulative; RunReports must not
/// bleed counts across back-to-back sweeps in one process).
std::size_t report_truncation(const std::string& path,
                              std::size_t first_bad_line,
                              std::size_t bytes_dropped) {
  if (bytes_dropped == 0) return 0;
  static obs::Counter& truncations =
      obs::Registry::global().counter("sweep.journal_truncations");
  truncations.add();
  std::fprintf(stderr,
               "greenhpc: journal %s: dropped %zu bytes of torn/corrupt "
               "suffix starting at line %zu\n",
               path.c_str(), bytes_dropped, first_bad_line);
  return 1;
}

[[nodiscard]] std::size_t file_size_of(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::size_t>(st.st_size);
}

bool is_shard_file_name(const std::string& name) {
  constexpr const char* kPrefix = "shard-";
  constexpr const char* kSuffix = ".journal";
  if (name.size() < std::strlen(kPrefix) + std::strlen(kSuffix)) return false;
  return name.compare(0, std::strlen(kPrefix), kPrefix) == 0 &&
         name.compare(name.size() - std::strlen(kSuffix), std::strlen(kSuffix),
                      kSuffix) == 0;
}

/// Generation number out of `shard-g<gen>-<tag>.journal`; -1 when the
/// name does not carry one (foreign but tolerated shard names).
int shard_gen_of(const std::string& name) {
  constexpr const char* kGenPrefix = "shard-g";
  if (name.compare(0, std::strlen(kGenPrefix), kGenPrefix) != 0) return -1;
  std::size_t i = std::strlen(kGenPrefix);
  if (i >= name.size() || name[i] < '0' || name[i] > '9') return -1;
  int gen = 0;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    gen = gen * 10 + (name[i] - '0');
    ++i;
  }
  return (i < name.size() && name[i] == '-') ? gen : -1;
}

}  // namespace

std::size_t SweepJournal::resume_point() const {
  if (completed_.empty()) return 0;
  return completed_.back().start + completed_.back().cases.size();
}

std::string SweepJournal::serialize_block_line(const SweepBlock& rec) {
  return wire::serialize_block(rec);
}

bool SweepJournal::exists(const std::string& dir) {
  if (file_size_of(dir + "/" + kFileName) > 0) return true;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return false;
  bool found = false;
  while (const struct dirent* ent = ::readdir(d)) {
    if (is_shard_file_name(ent->d_name)) {
      found = true;
      break;
    }
  }
  ::closedir(d);
  return found;
}

SweepJournal SweepJournal::create(const std::string& dir,
                                  std::uint64_t config_digest, std::size_t cases,
                                  std::size_t block) {
  GREENHPC_REQUIRE(!dir.empty(), "journal directory must not be empty");
  GREENHPC_REQUIRE(block > 0, "journal block size must be positive");
  mkdir_recursive(dir);
  SweepJournal j;
  j.path_ = dir + "/" + kFileName;
  j.config_digest_ = config_digest;
  j.cases_ = cases;
  j.block_ = block;
  write_header_durable(dir, j.path_, kVersion, config_digest, cases, block);
  return j;
}

SweepJournal SweepJournal::create_shard(const std::string& dir,
                                        const std::string& file_name,
                                        std::uint64_t config_digest,
                                        std::size_t cases, std::size_t block) {
  GREENHPC_REQUIRE(!dir.empty(), "journal directory must not be empty");
  GREENHPC_REQUIRE(block > 0, "journal block size must be positive");
  GREENHPC_REQUIRE(is_shard_file_name(file_name),
                   "shard journal file name must look like shard-*.journal: " +
                       file_name);
  mkdir_recursive(dir);
  SweepJournal j;
  j.path_ = dir + "/" + file_name;
  j.config_digest_ = config_digest;
  j.cases_ = cases;
  j.block_ = block;
  j.shard_ = true;
  write_header_durable(dir, j.path_, kShardVersion, config_digest, cases, block);
  return j;
}

std::string SweepJournal::shard_file_name(int gen, const std::string& tag) {
  return "shard-g" + std::to_string(gen) + "-" + tag + ".journal";
}

SweepJournal SweepJournal::resume(const std::string& dir,
                                  std::uint64_t config_digest, std::size_t cases) {
  SweepJournal j;
  j.path_ = dir + "/" + kFileName;
  std::ifstream in(j.path_, std::ios::binary);
  GREENHPC_REQUIRE(static_cast<bool>(in),
                   "cannot resume: no journal at " + j.path_);

  std::string line;
  GREENHPC_REQUIRE(static_cast<bool>(std::getline(in, line)),
                   "cannot resume: journal is empty: " + j.path_);
  const Header h = read_header(line, j.path_, kVersion, config_digest, cases);
  j.config_digest_ = h.config;
  j.cases_ = h.cases;
  j.block_ = h.block;

  // Load the longest valid prefix of block records. A line that fails its
  // checksum (torn tail, bit flip) or breaks the block chain invalidates
  // itself AND everything after it — later records could depend on state
  // the corrupt one was supposed to establish.
  std::size_t valid_bytes = line.size() + 1;  // header + '\n'
  std::size_t line_no = 1;
  std::string_view content;
  while (std::getline(in, line)) {
    ++line_no;
    SweepBlock rec;
    if (!wire::unseal(line, content) || !wire::parse_block(content, rec)) break;
    if (rec.start != j.resume_point()) break;  // chain break = corruption
    const std::size_t expect =
        std::min(j.block_, j.cases_ - std::min(j.cases_, rec.start));
    if (rec.cases.empty() || rec.cases.size() != expect) break;
    valid_bytes += line.size() + 1;
    j.completed_.push_back(std::move(rec));
  }
  in.close();
  j.truncations_ +=
      report_truncation(j.path_, line_no, file_size_of(j.path_) - valid_bytes);
  // Truncate away the invalid suffix so appended blocks follow the last
  // valid record, not garbage.
  GREENHPC_REQUIRE(::truncate(j.path_.c_str(),
                              static_cast<off_t>(valid_bytes)) == 0,
                   "cannot truncate journal to its valid prefix: " + j.path_);
  return j;
}

SweepJournal::ShardLoad SweepJournal::load_shards(const std::string& dir,
                                                  std::uint64_t config_digest,
                                                  std::size_t cases) {
  ShardLoad load;
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const struct dirent* ent = ::readdir(d)) {
      if (is_shard_file_name(ent->d_name)) names.emplace_back(ent->d_name);
    }
    ::closedir(d);
  }
  // readdir order is filesystem-dependent; sort so duplicate accounting
  // and error attribution are deterministic.
  std::sort(names.begin(), names.end());

  std::map<std::size_t, std::uint64_t> seen;  // start -> block-local digest
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    load.max_gen = std::max(load.max_gen, shard_gen_of(name));
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;  // raced away (a worker crashed mid-create): skip
    ++load.files;
    std::string line;
    if (!std::getline(in, line)) {
      // Header never made it to disk — the worker died inside create.
      // An empty shard carries no records; nothing to recover.
      continue;
    }
    const Header h = read_header(line, path, kShardVersion, config_digest, cases);
    if (load.block == 0) load.block = h.block;
    GREENHPC_REQUIRE(h.block == load.block,
                     "cannot resume: shard journals disagree on block size (" +
                         std::to_string(h.block) + " vs " +
                         std::to_string(load.block) + "): " + path);

    std::size_t valid_bytes = line.size() + 1;
    std::size_t line_no = 1;
    std::string_view content;
    while (std::getline(in, line)) {
      ++line_no;
      SweepBlock rec;
      // Per-file valid-prefix: any torn, corrupt or structurally invalid
      // record drops the rest of THIS file only — other shards are
      // independent evidence and keep their records.
      if (!wire::unseal(line, content) || !wire::parse_block(content, rec)) break;
      if (rec.cases.empty() || rec.start % load.block != 0 ||
          rec.start >= cases ||
          rec.cases.size() != std::min(load.block, cases - rec.start)) {
        break;
      }
      if (sweep_block_digest(rec) != rec.digest_after) break;
      valid_bytes += line.size() + 1;

      const auto it = seen.find(rec.start);
      if (it != seen.end()) {
        // At-least-once delivery makes honest duplicates normal (worker
        // journaled, sent, died; coordinator reassigned). The SAME block
        // with a DIFFERENT digest is something else entirely.
        GREENHPC_REQUIRE(it->second == rec.digest_after,
                         "cannot resume: shards disagree about block " +
                             std::to_string(rec.start) + " (digest " +
                             wire::hex64(it->second) + " vs " +
                             wire::hex64(rec.digest_after) +
                             ") — nondeterminism or corruption: " + path);
        ++load.duplicate_blocks;
        continue;
      }
      seen.emplace(rec.start, rec.digest_after);
      load.blocks.push_back(std::move(rec));
    }
    in.close();
    load.truncations +=
        report_truncation(path, line_no, file_size_of(path) - valid_bytes);
  }
  std::sort(load.blocks.begin(), load.blocks.end(),
            [](const SweepBlock& a, const SweepBlock& b) {
              return a.start < b.start;
            });
  return load;
}

bool journal_io_ok(const std::function<void()>& io, std::string* error) {
  try {
    io();
    return true;
  } catch (const JournalIoError& e) {
    obs::Registry::global().counter("sweep.journal_io_degraded").add();
    std::fprintf(stderr,
                 "greenhpc: sweep journal degraded to journal-less operation: %s\n",
                 e.what());
    if (error != nullptr) *error = e.what();
    return false;
  }
}

void SweepJournal::append(const SweepBlock& record) {
  GREENHPC_ASSERT(!record.cases.empty(), "journal block must not be empty");
  if (shard_) {
    GREENHPC_ASSERT(record.start % block_ == 0 && record.start < cases_,
                    "shard journal blocks must be block-aligned");
    GREENHPC_ASSERT(record.cases.size() ==
                        std::min(block_, cases_ - record.start),
                    "shard journal block has the wrong case count");
    GREENHPC_ASSERT(sweep_block_digest(record) == record.digest_after,
                    "shard journal block digest does not re-fold");
  } else {
    GREENHPC_ASSERT(record.start == resume_point(),
                    "journal blocks must be appended in case order");
  }
  const std::string line = wire::serialize_block(record) + "\n";
  util::FaultHit hit;
  if (util::FaultInjector::global().consult("journal.append", hit)) {
    switch (hit.action) {
      case util::FaultAction::Fail:
        // ENOSPC/EIO stand-in: the write never reaches the disk.
        throw JournalIoError("injected journal I/O failure: " + path_);
      case util::FaultAction::ShortWrite: {
        // Torn-line stand-in: part of the record lands durably, then the
        // device fails. resume()/load_shards() must drop the torn tail.
        const std::size_t keep =
            std::min<std::size_t>(hit.param, line.size());
        append_durable(path_, line.substr(0, keep));
        throw JournalIoError("injected short journal write (" +
                             std::to_string(keep) + " of " +
                             std::to_string(line.size()) + " bytes): " + path_);
      }
      default:
        break;  // action meant for another site: ignore
    }
  }
  append_durable(path_, line);
  completed_.push_back(record);
}

}  // namespace greenhpc::core
