#include "engine/journal.hpp"

#include <unistd.h>

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "analysis/failpoint.hpp"

namespace bddmin::engine {
namespace {

constexpr const char kHeader[] = "BDDMIN-JOURNAL v2";

// ---- Field escaping ----------------------------------------------------
// One record = one line.  Fields are comma-joined; any byte that could
// break the framing (control characters, comma, percent, non-ASCII) is
// percent-escaped, so forest payloads with embedded newlines survive.

bool needs_escape(unsigned char c) noexcept {
  return c < 0x20 || c >= 0x7f || c == '%' || c == ',';
}

std::string escape_field(const std::string& raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (const char ch : raw) {
    const auto c = static_cast<unsigned char>(ch);
    if (needs_escape(c)) {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xf]);
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

int hex_nibble(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

std::string unescape_field(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out.push_back(text[i]);
      continue;
    }
    if (i + 2 >= text.size()) {
      throw std::invalid_argument("dangling escape in journal field");
    }
    const int hi = hex_nibble(text[i + 1]);
    const int lo = hex_nibble(text[i + 2]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("bad escape in journal field");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

// ---- Field cursor ------------------------------------------------------

/// Sequential reader over the comma-separated, escaped fields of one
/// payload.  Throws std::invalid_argument on exhaustion or bad syntax —
/// read_journal turns that into a quarantined record.
class FieldCursor {
 public:
  explicit FieldCursor(const std::string& payload) : payload_(payload) {}

  std::string next_string() {
    if (pos_ > payload_.size()) {
      throw std::invalid_argument("journal record: too few fields");
    }
    std::size_t comma = payload_.find(',', pos_);
    if (comma == std::string::npos) comma = payload_.size();
    const std::string_view raw =
        std::string_view(payload_).substr(pos_, comma - pos_);
    pos_ = comma + 1;
    return unescape_field(raw);
  }

  std::uint64_t next_u64() {
    const std::string text = next_string();
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
      throw std::invalid_argument("journal record: bad integer field '" +
                                  text + "'");
    }
    return value;
  }

  double next_double() {
    const std::string text = next_string();
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || text.empty()) {
      throw std::invalid_argument("journal record: bad double field '" + text +
                                  "'");
    }
    return value;
  }

  void expect_done() const {
    if (pos_ <= payload_.size()) {
      throw std::invalid_argument("journal record: trailing fields");
    }
  }

 private:
  const std::string& payload_;
  std::size_t pos_ = 0;
};

void put(std::string& out, const std::string& field) {
  if (!out.empty()) out.push_back(',');
  out += escape_field(field);
}

void put_u64(std::string& out, std::uint64_t value) {
  put(out, std::to_string(value));
}

void put_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  put(out, buf);
}

}  // namespace

std::uint32_t journal_crc32(const std::string& text) noexcept {
  // CRC-32 (IEEE 802.3, reflected), bit-serial: the journal writes are
  // fsync-bound, so a table-free implementation is plenty fast.
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : text) {
    crc ^= static_cast<unsigned char>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_job_record(const Job& job) {
  std::string out;
  put(out, job.name);
  put_u64(out, job.num_vars);
  put_u64(out, static_cast<std::uint64_t>(job.kind));
  put(out, job.forest);
  put_u64(out, job.f_tt);
  put_u64(out, job.c_tt);
  return out;
}

Job decode_job_record(const std::string& payload) {
  FieldCursor cur(payload);
  Job job;
  job.name = cur.next_string();
  job.num_vars = static_cast<unsigned>(cur.next_u64());
  const std::uint64_t kind = cur.next_u64();
  if (kind > static_cast<std::uint64_t>(PayloadKind::kTruthTable)) {
    throw std::invalid_argument("journal record: bad payload kind");
  }
  job.kind = static_cast<PayloadKind>(kind);
  job.forest = cur.next_string();
  job.f_tt = cur.next_u64();
  job.c_tt = cur.next_u64();
  cur.expect_done();
  return job;
}

std::string encode_outcome_record(const JobOutcome& outcome) {
  std::string out;
  put(out, outcome.name);
  put_u64(out, outcome.num_vars);
  put_u64(out, static_cast<std::uint64_t>(outcome.status));
  put(out, outcome.error);
  put(out, outcome.detail);
  put_u64(out, outcome.f_size);
  put_u64(out, outcome.c_size);
  put_double(out, outcome.c_onset);
  put_u64(out, outcome.min_size);
  put_u64(out, outcome.lower_bound);
  put_u64(out, outcome.audit_findings);
  put_u64(out, outcome.peak_live);
  put_u64(out, outcome.worker);
  put_double(out, outcome.seconds);
  put_u64(out, telemetry::kNumCounters);
  for (const std::uint64_t v : outcome.counters.values) put_u64(out, v);
  put_u64(out, outcome.results.size());
  for (const HeuristicResult& r : outcome.results) {
    put_u64(out, r.size);
    put_double(out, r.seconds);
    for (const telemetry::PhaseData& p : r.phases.phases) {
      put_double(out, p.seconds);
      put_u64(out, p.steps);
      put_u64(out, p.cache_hits);
      put_u64(out, p.cache_misses);
      put_u64(out, p.unique_inserts);
    }
  }
  return out;
}

JobOutcome decode_outcome_record(const std::string& payload) {
  FieldCursor cur(payload);
  JobOutcome outcome;
  outcome.name = cur.next_string();
  outcome.num_vars = static_cast<unsigned>(cur.next_u64());
  const std::uint64_t status = cur.next_u64();
  if (status > static_cast<std::uint64_t>(JobStatus::kResourceLimit)) {
    throw std::invalid_argument("journal record: bad status");
  }
  outcome.status = static_cast<JobStatus>(status);
  outcome.error = cur.next_string();
  outcome.detail = cur.next_string();
  outcome.f_size = cur.next_u64();
  outcome.c_size = cur.next_u64();
  outcome.c_onset = cur.next_double();
  outcome.min_size = cur.next_u64();
  outcome.lower_bound = cur.next_u64();
  outcome.audit_findings = cur.next_u64();
  outcome.peak_live = cur.next_u64();
  outcome.worker = static_cast<unsigned>(cur.next_u64());
  outcome.seconds = cur.next_double();
  const std::uint64_t num_counters = cur.next_u64();
  if (num_counters != telemetry::kNumCounters) {
    throw std::invalid_argument(
        "journal record: counter layout mismatch (file " +
        std::to_string(num_counters) + ", build " +
        std::to_string(telemetry::kNumCounters) + ")");
  }
  for (std::uint64_t& v : outcome.counters.values) v = cur.next_u64();
  const std::uint64_t num_results = cur.next_u64();
  if (num_results > 1000) {
    throw std::invalid_argument("journal record: implausible result count");
  }
  outcome.results.resize(num_results);
  for (HeuristicResult& r : outcome.results) {
    r.size = cur.next_u64();
    r.seconds = cur.next_double();
    for (telemetry::PhaseData& p : r.phases.phases) {
      p.seconds = cur.next_double();
      p.steps = cur.next_u64();
      p.cache_hits = cur.next_u64();
      p.cache_misses = cur.next_u64();
      p.unique_inserts = cur.next_u64();
    }
  }
  cur.expect_done();
  return outcome;
}

// ---- Writer ------------------------------------------------------------

JournalWriter::JournalWriter(std::string path, bool truncate)
    : path_(std::move(path)) {
  const std::lock_guard<std::mutex> lock(mu_);
  file_ = std::fopen(path_.c_str(), truncate ? "wb" : "ab");
  if (file_ == nullptr) {
    throw JournalError("journal: cannot open '" + path_ + "' for writing");
  }
  if (truncate) {
    const std::string header = std::string(kHeader) + "\n";
    if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
        std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
      throw JournalError("journal: cannot write header to '" + path_ + "'");
    }
  }
}

JournalWriter::~JournalWriter() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

namespace {

/// One full record line: "<type> <index> <crc32-hex> <payload>\n".
[[nodiscard]] std::string format_record(char type, std::size_t index,
                                        const std::string& payload) {
  char prefix[32];
  std::snprintf(prefix, sizeof prefix, "%c %zu %08x ", type, index,
                journal_crc32(payload));
  return std::string(prefix) + payload + "\n";
}

/// The crash the resume path must heal: die *before* any completion
/// record (single or group) reaches the journal, so the affected jobs
/// re-run on resume.  Shared by append_completed and append_raw_lines so
/// once/nth arming has a single polling site.
void maybe_abort_before_commit() {
  if (const auto hit = BDDMIN_FAILPOINT("journal_commit_abort")) {
    std::_Exit(static_cast<int>(hit.value));
  }
}

}  // namespace

void JournalWriter::commit(const std::string& bytes, bool completion) {
  const std::lock_guard<std::mutex> lock(mu_);
  // The failpoint polls *inside* the lock: commits serialize, so an
  // nth-hit abort is guaranteed to leave the n-1 preceding commits
  // durable — the crash-matrix tests depend on that ordering.
  if (completion) maybe_abort_before_commit();
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size() ||
      std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    throw JournalError("journal: write failed on '" + path_ + "'");
  }
}

std::string format_completed_record(std::size_t index,
                                    const JobOutcome& outcome) {
  return format_record('C', index, encode_outcome_record(outcome));
}

void JournalWriter::append_raw_lines(const std::string& lines) {
  if (lines.empty()) return;
  commit(lines, /*completion=*/true);
}

void JournalWriter::append_submitted(std::size_t index, const Job& job) {
  commit(format_record('J', index, encode_job_record(job)),
         /*completion=*/false);
}

void JournalWriter::append_completed(std::size_t index,
                                     const JobOutcome& outcome) {
  commit(format_completed_record(index, outcome), /*completion=*/true);
}

// ---- Reader ------------------------------------------------------------

JournalContents read_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw JournalError("journal: cannot open '" + path + "' for reading");
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw JournalError("journal: read failed on '" + path + "'");
  }

  JournalContents contents;
  std::size_t pos = 0;
  std::size_t lineno = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      // No terminating newline: the kill -9 signature.  The partial
      // record was never acknowledged, so dropping it is safe.
      contents.warnings.push_back("line " + std::to_string(lineno + 1) +
                                  ": truncated tail record ignored");
      break;
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;

    if (lineno == 1) {
      if (line != kHeader) {
        throw JournalError("journal: '" + path +
                           "' has an unrecognized header '" + line +
                           "' (expected '" + kHeader + "')");
      }
      saw_header = true;
      continue;
    }
    if (line.empty()) continue;

    const auto quarantine = [&](const std::string& why) {
      contents.warnings.push_back("line " + std::to_string(lineno) + ": " +
                                  why + " — record quarantined");
    };

    // "<type> <index> <crc32-hex> <payload>"
    char type = 0;
    unsigned long long index = 0;
    unsigned int crc = 0;
    int consumed = 0;
    if (std::sscanf(line.c_str(), "%c %llu %8x %n", &type, &index, &crc,
                    &consumed) != 3 ||
        (type != 'J' && type != 'C')) {
      quarantine("unparsable record");
      continue;
    }
    const std::string payload = line.substr(static_cast<std::size_t>(consumed));
    if (journal_crc32(payload) != crc) {
      quarantine("checksum mismatch");
      continue;
    }
    try {
      if (type == 'J') {
        if (index != contents.jobs.size()) {
          quarantine("submit record out of order (index " +
                     std::to_string(index) + ")");
          continue;
        }
        contents.jobs.push_back(decode_job_record(payload));
        contents.completed.emplace_back();
      } else {
        if (index >= contents.jobs.size()) {
          quarantine("completion for unknown job index " +
                     std::to_string(index));
          continue;
        }
        if (contents.completed[index].has_value()) {
          quarantine("duplicate completion for job index " +
                     std::to_string(index) + " (first record wins)");
          continue;
        }
        contents.completed[index] = decode_outcome_record(payload);
      }
    } catch (const std::invalid_argument& e) {
      quarantine(e.what());
    }
  }
  if (!saw_header) {
    throw JournalError("journal: '" + path + "' is empty (no header)");
  }
  return contents;
}

}  // namespace bddmin::engine
