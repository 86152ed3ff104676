/// \file test_journal.cpp
/// \brief Write-ahead journal: codec round-trips, every recovery rule
/// (truncated tail, flipped checksum, duplicate completion, version
/// mismatch), in-process resume, and a real kill-and-resume through the
/// CLI binary asserting byte-identical CSV at 1/2/8 threads.  The same
/// binary also checks that a malformed numeric flag is a usage error.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "engine/journal.hpp"
#include "telemetry/counters.hpp"

namespace bddmin {
namespace {

using engine::Job;
using engine::JobOutcome;
using engine::JournalContents;
using engine::JournalError;
using engine::JournalWriter;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

std::string temp_path(const char* leaf) {
  return testing::TempDir() + "bddmin_journal_" + leaf;
}

// ---- Codecs ------------------------------------------------------------

TEST(JournalCodec, JobRoundTripsBothPayloadKinds) {
  const Job tt = engine::make_tt_job("plain", 0xBEEFu, 0xFFFFu, 4);
  const Job tt2 = engine::decode_job_record(engine::encode_job_record(tt));
  EXPECT_EQ(tt2.name, tt.name);
  EXPECT_EQ(tt2.num_vars, tt.num_vars);
  EXPECT_EQ(tt2.kind, tt.kind);
  EXPECT_EQ(tt2.f_tt, tt.f_tt);
  EXPECT_EQ(tt2.c_tt, tt.c_tt);

  Job forest;
  forest.name = "evil, name %41 with\nnewline";
  forest.num_vars = 9;
  forest.kind = engine::PayloadKind::kForest;
  forest.forest = "line one\nline,two\n%%% \x01\x7f high\xff bytes";
  const Job back =
      engine::decode_job_record(engine::encode_job_record(forest));
  EXPECT_EQ(back.name, forest.name);
  EXPECT_EQ(back.num_vars, forest.num_vars);
  EXPECT_EQ(back.kind, forest.kind);
  EXPECT_EQ(back.forest, forest.forest);
  // The escaped record must stay a single line — that is the framing.
  EXPECT_EQ(engine::encode_job_record(forest).find('\n'), std::string::npos);
}

TEST(JournalCodec, OutcomeRoundTripsExactly) {
  JobOutcome o;
  o.name = "job,with%escapes";
  o.num_vars = 8;
  o.status = engine::JobStatus::kResourceLimit;
  o.detail = "osm_td: deadline (kept best cover)";
  o.f_size = 17;
  o.c_size = 9;
  o.c_onset = 1.0 / 3.0;  // needs all 17 significant digits
  o.min_size = 5;
  o.lower_bound = 3;
  o.peak_live = 123;
  o.worker = 2;
  o.seconds = 0.1;
  for (std::size_t i = 0; i < o.counters.values.size(); ++i) {
    o.counters.values[i] = i * 1000003u;
  }
  o.results.resize(2);
  o.results[0].size = 7;
  o.results[0].seconds = 2.5e-4;
  o.results[1].size = 5;
  o.results[1].phases.phases[0].steps = 42;

  const JobOutcome b =
      engine::decode_outcome_record(engine::encode_outcome_record(o));
  EXPECT_EQ(b.name, o.name);
  EXPECT_EQ(b.status, o.status);
  EXPECT_EQ(b.detail, o.detail);
  EXPECT_EQ(b.c_onset, o.c_onset);  // exact: %.17g round-trips doubles
  EXPECT_EQ(b.seconds, o.seconds);
  EXPECT_EQ(b.counters.values, o.counters.values);
  ASSERT_EQ(b.results.size(), o.results.size());
  EXPECT_EQ(b.results[0].size, o.results[0].size);
  EXPECT_EQ(b.results[0].seconds, o.results[0].seconds);
  EXPECT_EQ(b.results[1].phases.phases[0].steps, 42u);
}

TEST(JournalCodec, StatusPastResourceLimitIsRejected) {
  JobOutcome o;
  o.name = "a";
  o.num_vars = 2;
  o.status = engine::JobStatus::kResourceLimit;  // the highest status, 4
  const std::string payload = engine::encode_outcome_record(o);
  ASSERT_EQ(payload.rfind("a,2,4,", 0), 0u) << payload;
  EXPECT_EQ(engine::decode_outcome_record(payload).status, o.status);
  // One past the last status is a malformed record, not a new status.
  std::string bad = payload;
  bad[4] = '5';
  EXPECT_THROW(static_cast<void>(engine::decode_outcome_record(bad)),
               std::invalid_argument);
}

TEST(JournalCodec, Crc32MatchesKnownVectors) {
  // IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(engine::journal_crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(engine::journal_crc32(""), 0x00000000u);
}

// ---- Recovery rules ----------------------------------------------------

/// A journal with two jobs, the first completed.
std::string two_job_journal(const std::string& path) {
  JournalWriter writer(path, /*truncate=*/true);
  writer.append_submitted(0, engine::make_tt_job("a", 0x6u, 0xFu, 2));
  writer.append_submitted(1, engine::make_tt_job("b", 0x9u, 0xFu, 2));
  JobOutcome done;
  done.name = "a";
  done.num_vars = 2;
  done.min_size = 2;
  writer.append_completed(0, done);
  return read_file(path);
}

bool has_warning(const JournalContents& c, const char* needle) {
  for (const std::string& w : c.warnings) {
    if (w.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(JournalRecovery, CleanFileReadsBack) {
  const std::string path = temp_path("clean.wal");
  two_job_journal(path);
  const JournalContents c = engine::read_journal(path);
  EXPECT_TRUE(c.warnings.empty());
  ASSERT_EQ(c.jobs.size(), 2u);
  EXPECT_EQ(c.completed_count(), 1u);
  ASSERT_TRUE(c.completed[0].has_value());
  EXPECT_EQ(c.completed[0]->min_size, 2u);
  EXPECT_FALSE(c.completed[1].has_value());
  std::remove(path.c_str());
}

TEST(JournalRecovery, TruncatedTailIsIgnored) {
  const std::string path = temp_path("trunc.wal");
  std::string text = two_job_journal(path);
  // kill -9 mid-append: the last record loses its trailing newline and
  // part of its payload.
  ASSERT_EQ(text.back(), '\n');
  text.resize(text.size() - 10);
  write_file(path, text);
  const JournalContents c = engine::read_journal(path);
  EXPECT_TRUE(has_warning(c, "truncated tail"));
  ASSERT_EQ(c.jobs.size(), 2u);
  EXPECT_EQ(c.completed_count(), 0u);  // the C record was the casualty
  std::remove(path.c_str());
}

TEST(JournalRecovery, FlippedChecksumQuarantinesOnlyThatRecord) {
  const std::string path = temp_path("crc.wal");
  std::string text = two_job_journal(path);
  // Corrupt one payload byte of the completion record (the last line).
  const std::size_t c_line = text.rfind("\nC ") + 1;
  const std::size_t victim = text.find_last_of('2');  // min_size field
  ASSERT_GT(victim, c_line);
  text[victim] = '3';
  write_file(path, text);
  const JournalContents c = engine::read_journal(path);
  EXPECT_TRUE(has_warning(c, "checksum mismatch"));
  ASSERT_EQ(c.jobs.size(), 2u);  // the J records are untouched
  EXPECT_EQ(c.completed_count(), 0u);  // job "a" simply re-runs
  std::remove(path.c_str());
}

TEST(JournalRecovery, DuplicateCompletionFirstWins) {
  const std::string path = temp_path("dup.wal");
  two_job_journal(path);
  {
    JournalWriter again(path, /*truncate=*/false);
    JobOutcome later;
    later.name = "a";
    later.num_vars = 2;
    later.min_size = 99;  // must not displace the first record
    again.append_completed(0, later);
  }
  const JournalContents c = engine::read_journal(path);
  EXPECT_TRUE(has_warning(c, "duplicate completion"));
  ASSERT_TRUE(c.completed[0].has_value());
  EXPECT_EQ(c.completed[0]->min_size, 2u);
  std::remove(path.c_str());
}

TEST(JournalRecovery, VersionMismatchHeaderIsFatal) {
  const std::string path = temp_path("vers.wal");
  std::string text = two_job_journal(path);
  // A v2 journal (whose completion records carried per-phase seconds)
  // must fail on its header, not have every record set aside as malformed.
  const std::size_t v = text.find("v3");
  ASSERT_NE(v, std::string::npos);
  text[v + 1] = '2';
  write_file(path, text);
  try {
    static_cast<void>(engine::read_journal(path));
    ADD_FAILURE() << "v2 header accepted";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("unrecognized header"),
              std::string::npos)
        << e.what();
  }
  write_file(path, "");
  EXPECT_THROW(static_cast<void>(engine::read_journal(path)), JournalError);
  std::remove(path.c_str());
  EXPECT_THROW(static_cast<void>(engine::read_journal(path)), JournalError);
}

TEST(JournalRecovery, GarbledRecordLinesQuarantineNotThrow) {
  const std::string path = temp_path("garble.wal");
  std::string text = two_job_journal(path);
  text += "X what even is this\n";
  text += "C 57 00000000 completion-for-unknown-index\n";
  write_file(path, text);
  const JournalContents c = engine::read_journal(path);
  EXPECT_TRUE(has_warning(c, "unparsable record"));
  EXPECT_TRUE(has_warning(c, "unknown job index") ||
              has_warning(c, "checksum mismatch"));
  EXPECT_EQ(c.jobs.size(), 2u);
  EXPECT_EQ(c.completed_count(), 1u);
  std::remove(path.c_str());
}

TEST(JournalRecovery, GroupCommitTailTruncationKeepsWholeRecords) {
  // Group commit writes a shard's completion records as one fwrite; a
  // crash mid-write must lose only the cut record, never the whole group.
  const std::string path = temp_path("group.wal");
  {
    JournalWriter writer(path, /*truncate=*/true);
    std::string group;
    for (std::size_t i = 0; i < 3; ++i) {
      const Job job = engine::make_tt_job("g" + std::to_string(i),
                                          0x6u + i, 0xFu, 2);
      writer.append_submitted(i, job);
      JobOutcome done;
      done.name = job.name;
      done.num_vars = 2;
      done.min_size = i + 1;
      group += engine::format_completed_record(i, done);
    }
    writer.append_raw_lines(group);
  }
  {
    const JournalContents clean = engine::read_journal(path);
    EXPECT_TRUE(clean.warnings.empty());
    EXPECT_EQ(clean.completed_count(), 3u);
  }
  std::string text = read_file(path);
  text.resize(text.size() - 10);  // cut into the last record of the group
  write_file(path, text);
  const JournalContents c = engine::read_journal(path);
  EXPECT_TRUE(has_warning(c, "truncated tail"));
  ASSERT_EQ(c.jobs.size(), 3u);
  EXPECT_EQ(c.completed_count(), 2u);  // records 0 and 1 survive intact
  ASSERT_TRUE(c.completed[1].has_value());
  EXPECT_EQ(c.completed[1]->min_size, 2u);
  EXPECT_FALSE(c.completed[2].has_value());
  std::remove(path.c_str());
}

// ---- In-process resume -------------------------------------------------

TEST(JournalResume, ResumedBatchCsvIsByteIdentical) {
  const std::vector<Job> jobs = engine::random_jobs(6, 8, 0.5, 11);
  engine::EngineOptions eo;
  eo.heuristics = {
      minimize::heuristic_by_name(minimize::all_heuristics(), "restr")};
  eo.num_threads = 2;
  const std::string baseline = engine::report_csv(engine::run_batch(jobs, eo));

  // A journaled run, then a journal with two completions surgically
  // removed — the resume must re-run exactly those and nothing else.
  const std::string path = temp_path("resume.wal");
  eo.journal_path = path;
  const engine::BatchReport full = engine::run_batch(jobs, eo);
  EXPECT_EQ(engine::report_csv(full), baseline);

  std::string text = read_file(path);
  std::string pruned;
  std::size_t dropped = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("C 2 ", 0) == 0 || line.rfind("C 4 ", 0) == 0) {
      ++dropped;
      continue;
    }
    pruned += line + "\n";
  }
  ASSERT_EQ(dropped, 2u);
  write_file(path, pruned);

  const JournalContents resumed = engine::read_journal(path);
  ASSERT_EQ(resumed.jobs.size(), jobs.size());
  EXPECT_EQ(resumed.completed_count(), jobs.size() - 2);
  engine::EngineOptions ro;
  ro.heuristics = {
      minimize::heuristic_by_name(minimize::all_heuristics(), "restr")};
  ro.num_threads = 2;
  ro.journal_path = path;
  ro.resume = &resumed;
  const engine::BatchReport after = engine::run_batch(resumed.jobs, ro);
  EXPECT_EQ(engine::report_csv(after), baseline);

  // The resumed run appended the missing completions: a second resume
  // has nothing left to do.
  EXPECT_EQ(engine::read_journal(path).completed_count(), jobs.size());
  std::remove(path.c_str());
}

// ---- Kill -9 and resume through the real binary ------------------------

#ifdef BDDMIN_CLI_PATH

int run_cli(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  EXPECT_NE(rc, -1) << cmd;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(JournalResume, KillAndResumeMatchesUninterruptedRun) {
  const std::string cli = BDDMIN_CLI_PATH;
  // vars 8 ⇒ forest payloads; the tt codec path is covered above.
  const std::string common =
      " batch --jobs 6 --vars 8 --seed 3 --heuristic restr";
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string t = " --threads " + std::to_string(threads);
    const std::string tag = std::to_string(threads);
    const std::string base_csv = temp_path(("base" + tag + ".csv").c_str());
    const std::string out_csv = temp_path(("out" + tag + ".csv").c_str());
    const std::string wal = temp_path(("kill" + tag + ".wal").c_str());

    ASSERT_EQ(run_cli(cli + common + t + " --csv " + base_csv), 0);

    // Die before the third completion record is committed (exit 42, the
    // failpoint's kill -9 stand-in) ...
    EXPECT_EQ(
        run_cli("BDDMIN_FAILPOINTS=journal_commit_abort:nth:3 " + cli +
                common + t + " --journal " + wal + " --csv " + out_csv),
        42);
    // ... then resume WITHOUT the failpoint armed.
    ASSERT_EQ(run_cli(cli + common + t + " --journal " + wal + " --resume" +
                      " --csv " + out_csv),
              0);
    EXPECT_EQ(read_file(out_csv), read_file(base_csv)) << threads;

    std::remove(base_csv.c_str());
    std::remove(out_csv.c_str());
    std::remove(wal.c_str());
  }
}

TEST(JournalResume, GroupCommitKillAndResumeMatchesUninterruptedRun) {
  const std::string cli = BDDMIN_CLI_PATH;
  // A small shard budget forces several shards (and hence several group
  // flushes) even on 12 jobs, so the nth:2 failpoint dies with flush 1
  // durable and flushes >= 2 lost — whole records only.
  const std::string common =
      " batch --jobs 12 --vars 8 --seed 9 --heuristic restr"
      " --shard-cost 600 --journal-group-commit";
  for (const unsigned threads : {1u, 2u}) {
    const std::string t = " --threads " + std::to_string(threads);
    const std::string tag = "gc" + std::to_string(threads);
    const std::string base_csv = temp_path((tag + "base.csv").c_str());
    const std::string out_csv = temp_path((tag + "out.csv").c_str());
    const std::string wal = temp_path((tag + ".wal").c_str());

    ASSERT_EQ(run_cli(cli + common + t + " --csv " + base_csv), 0);

    EXPECT_EQ(
        run_cli("BDDMIN_FAILPOINTS=journal_commit_abort:nth:2 " + cli +
                common + t + " --journal " + wal + " --csv " + out_csv),
        42);
    // The journal must already hold the first group's completions —
    // group commit batches records, it must not defer them to the end.
    EXPECT_GT(engine::read_journal(wal).completed_count(), 0u);

    ASSERT_EQ(run_cli(cli + common + t + " --journal " + wal + " --resume" +
                      " --csv " + out_csv),
              0);
    EXPECT_EQ(read_file(out_csv), read_file(base_csv)) << threads;

    std::remove(base_csv.c_str());
    std::remove(out_csv.c_str());
    std::remove(wal.c_str());
  }
}

TEST(Cli, MalformedNumericFlagIsAUsageError) {
  const std::string cli = BDDMIN_CLI_PATH;
  const std::string csv = temp_path("malformed.csv");
  const std::string err = temp_path("malformed.err");
  const std::string pla = temp_path("malformed.pla");
  std::ofstream(pla) << ".i 2\n.o 1\n11 1\n.e\n";
  const std::string batch = "batch --csv " + csv;
  const std::string audit = "audit " + pla;
  const std::string integer = "a non-negative integer";
  const std::string fraction = "a number in [0, 1]";
  const std::string level = "an integer in [0, 4]";
  // {command, flag, value, what the diagnostic says the flag expects}
  const std::string cases[][4] = {
      {batch, "--jobs", "abc", integer},
      {batch, "--timeout-ms", "5x", integer},
      {batch, "--vars", "-3", integer},
      {batch, "--vars", "0", "a positive integer"},
      {batch, "--density", "abc", fraction},
      {batch, "--density", "nan", fraction},
      {batch, "--density", "0.3x", fraction},
      {batch, "--density", "-1", fraction},
      {batch, "--density", "2", fraction},
      {batch, "--density", "1e400", fraction},
      {batch, "--audit-level", "9", level},
      {batch, "--audit-level", "-1", level},
      {"stats", "--audit-level", "9", level},
      {audit, "--level", "9", level}};
  for (const auto& [command, flag, value, expects] : cases) {
    std::remove(csv.c_str());
    EXPECT_EQ(run_cli(cli + " " + command + " " + flag + " '" + value +
                      "' > /dev/null 2> " + err),
              1)
        << command << ' ' << flag << ' ' << value;
    const std::string want =
        "error: " + flag + " expects " + expects + ", got '" + value + "'";
    EXPECT_NE(read_file(err).find(want), std::string::npos) << read_file(err);
    EXPECT_FALSE(std::ifstream(csv).good()) << flag << " wrote a CSV";
  }
  std::remove(err.c_str());
  std::remove(pla.c_str());
}

TEST(Cli, UnknownFlagIsAUsageError) {
  const std::string cli = BDDMIN_CLI_PATH;
  const std::string csv = temp_path("unknown.csv");
  const std::string err = temp_path("unknown.err");
  // {subcommand, arguments, expected diagnostic}: a misspelt flag or a
  // value flag cut off at the end of the line must not run on defaults.
  const char* const cases[][3] = {
      {"batch", "--thread 2", "unknown flag '--thread'"},
      {"batch", "--counter", "unknown flag '--counter'"},
      {"batch", "--lowerbound", "unknown flag '--lowerbound'"},
      {"batch", "--bogus", "unknown flag '--bogus'"},
      {"batch", "--vars 4 --jobs", "--jobs expects a value"},
      {"stats", "--bogus", "unknown flag '--bogus'"},
      {"stats", "--timings", "unknown flag '--timings'"},
      {"batch", "--no-shard", "unknown flag '--no-shard'"}};
  for (const auto& [command, args, want] : cases) {
    std::remove(csv.c_str());
    // batch gets a --csv first, so a run that ignores the bad flag leaves
    // a CSV behind.
    const std::string csv_flag =
        std::string(command) == "batch" ? " --csv " + csv : "";
    EXPECT_EQ(run_cli(cli + " " + command + csv_flag + " " + args +
                      " > /dev/null 2> " + err),
              1)
        << command << ' ' << args;
    EXPECT_NE(read_file(err).find(std::string("error: ") + want),
              std::string::npos)
        << command << ' ' << args << ": " << read_file(err);
    EXPECT_FALSE(std::ifstream(csv).good()) << args << " wrote a CSV";
  }
  std::remove(err.c_str());
}

#endif  // BDDMIN_CLI_PATH

}  // namespace
}  // namespace bddmin
