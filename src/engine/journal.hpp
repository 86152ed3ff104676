/// \file journal.hpp
/// \brief Write-ahead job journal: crash-safe checkpoint/resume for the
/// batch engine.
///
/// Format (text, line-oriented, append-only):
///
///     BDDMIN-JOURNAL v3
///     J <index> <crc32-hex> <escaped job payload>
///     C <index> <crc32-hex> <escaped outcome payload>
///
/// `J` records every submitted job up front (the write-ahead part —
/// before any work starts the full batch is on disk, so a resumed run
/// needs nothing but the journal); `C` records each completed outcome as
/// it is delivered.  Payloads are comma-joined fields with bytes outside
/// printable ASCII (and '%', ',') percent-escaped, so a record is always
/// exactly one line; doubles use %.17g so they round-trip exactly and a
/// resumed CSV is byte-identical to an uninterrupted one.  Each record
/// carries a CRC-32 over its payload and every append is fsync'd before
/// the writer returns — a `kill -9` can lose at most the record being
/// written, never corrupt an earlier one.
///
/// Group commit (the sharded engine's mode): instead of one
/// fwrite+fsync per completion, a worker formats its shard's C records
/// locally (`format_completed_record`) and flushes them in a single
/// `append_raw_lines` call — one fsync per *shard*.  Durability weakens
/// exactly as far as the batching: a crash loses at most the unflushed
/// whole records of in-flight shards (each a well-formed line that was
/// simply never written), plus possibly one torn final line — both
/// already covered by the forgiving-tail recovery rules below, so a
/// resumed run re-executes those jobs and converges to the identical
/// CSV.
///
/// Recovery (`read_journal`) is deliberately forgiving about the tail
/// and strict about the head:
///  * unknown/garbled header → JournalError (a wrong-version file should
///    not be silently half-replayed: v2 completion records still carried
///    per-phase seconds);
///  * CRC mismatch or malformed record → the record is quarantined (a
///    warning; the job simply re-runs);
///  * truncated final line (the kill -9 signature) → ignored;
///  * duplicate completion for one index → first wins, warning.
///
/// The JournalWriter is thread-safe (the engine appends from every
/// worker); reads happen before the batch starts, single-threaded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/thread_annotations.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"

namespace bddmin::engine {

/// Unrecoverable journal problems: unreadable file, version mismatch,
/// write/fsync failure.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything a resume needs, parsed from a journal file.
struct JournalContents {
  /// Submitted jobs in submission order (dense by index).
  std::vector<Job> jobs;
  /// Recorded outcome per index; nullopt = incomplete, re-run it.
  std::vector<std::optional<JobOutcome>> completed;
  /// Human-readable notes about quarantined/duplicate/truncated records.
  std::vector<std::string> warnings;

  [[nodiscard]] std::size_t completed_count() const noexcept {
    std::size_t n = 0;
    for (const auto& c : completed) n += c.has_value() ? 1 : 0;
    return n;
  }
};

/// Append-only journal writer.  Every append is checksummed and fsync'd
/// before returning; throws JournalError on I/O failure.
class JournalWriter {
 public:
  /// Opens \p path; \p truncate starts a fresh journal (writes the
  /// header), otherwise appends to an existing one (resume).
  JournalWriter(std::string path, bool truncate);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void append_submitted(std::size_t index, const Job& job)
      BDDMIN_EXCLUDES(mu_);
  void append_completed(std::size_t index, const JobOutcome& outcome)
      BDDMIN_EXCLUDES(mu_);
  /// Group commit: write \p lines — a concatenation of full record lines
  /// from format_completed_record — with one fwrite + fflush + fsync.
  /// No-op on an empty string.  Fires the same `journal_commit_abort`
  /// failpoint as append_completed (the crash happens *before* the
  /// batched records reach the file, so every job in the group re-runs
  /// on resume).
  void append_raw_lines(const std::string& lines) BDDMIN_EXCLUDES(mu_);

 private:
  /// Single durable write of \p bytes under mu_.  \p completion polls the
  /// journal_commit_abort failpoint (inside the lock, so the nth-hit
  /// ordering is serialized against earlier commits — the n-1 preceding
  /// flushes are durable before the nth one dies).
  void commit(const std::string& bytes, bool completion)
      BDDMIN_EXCLUDES(mu_);

  std::string path_;
  std::mutex mu_;
  std::FILE* file_ BDDMIN_GUARDED_BY(mu_) = nullptr;
};

/// Parse \p path (see the recovery rules in the file comment).  Throws
/// JournalError when the file cannot be read or the header does not
/// match; every other defect degrades to a warning.
[[nodiscard]] JournalContents read_journal(const std::string& path);

// ---- Record codecs (exposed for tests) --------------------------------

/// CRC-32 (IEEE, reflected) of \p text.
[[nodiscard]] std::uint32_t journal_crc32(const std::string& text) noexcept;

[[nodiscard]] std::string encode_job_record(const Job& job);
[[nodiscard]] Job decode_job_record(const std::string& payload);
[[nodiscard]] std::string encode_outcome_record(const JobOutcome& outcome);
[[nodiscard]] JobOutcome decode_outcome_record(const std::string& payload);

/// The exact line append_completed(index, outcome) would write —
/// `C <index> <crc32-hex> <payload>\n` — without touching any file.
/// Building blocks for group commit: format per worker (no lock), flush
/// batches via JournalWriter::append_raw_lines.
[[nodiscard]] std::string format_completed_record(std::size_t index,
                                                  const JobOutcome& outcome);

}  // namespace bddmin::engine
