// check_metrics: schema validation for the repo's machine-readable outputs.
//
//   check_metrics bench FILE...        BENCH_*.json artifacts: one flat JSON
//                                      object of scalar values
//   check_metrics fleet FILE...        BENCH_fleet.json chaos artifacts: the
//                                      required key set plus the hard fleet
//                                      invariants (zero hangs, every victim
//                                      recovered)
//   check_metrics stats FILE...        MANAGER_STATS objects (raw JSON, or a
//                                      log whose "MANAGER_STATS {...}" lines
//                                      are extracted): schema_version 2, its
//                                      required counter keys, and per-class
//                                      wait histograms
//   check_metrics trace FILE [MIN]     Chrome trace-event JSON: traceEvents
//                                      array of >= MIN events, each carrying
//                                      name/ph/ts/pid/tid
//
// Exit 0 when every file validates; 1 with a diagnostic otherwise. CI runs
// it over the bench-smoke artifacts and the example trace so a PR cannot
// silently change the formats downstream tooling parses. Self-contained:
// the JSON parser below is the whole dependency footprint.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();  // trailing garbage is a malformed artifact
  }

  std::string error() const {
    return error_.empty() ? "ok"
                          : error_ + " at byte " + std::to_string(pos_);
  }

 private:
  bool Fail(const char* what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool Literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return Fail("bad literal");
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"')
      return Fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // \uXXXX: decoded lossily to '?' — the validators only compare
            // ASCII key names, never unicode payloads.
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            pos_ += 4;
            c = '?';
            break;
          default: return Fail("bad escape");
        }
      }
      out->push_back(c);
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return Literal("null");
    }
    return ParseNumber(out);
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == begin) return Fail("expected value");
    try {
      out->number = std::stod(text_.substr(begin, pos_ - begin));
    } catch (...) {
      return Fail("bad number");
    }
    out->kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected , or ]");
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':')
        return Fail("expected :");
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected , or }");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

int Complain(const char* path, const std::string& why) {
  std::fprintf(stderr, "check_metrics: %s: %s\n", path, why.c_str());
  return 1;
}

// ---- bench: flat object of scalars ----------------------------------------

int CheckBench(const char* path) {
  std::string text;
  if (!ReadFile(path, &text)) return Complain(path, "cannot read");
  JsonValue root;
  JsonParser parser(text);
  if (!parser.Parse(&root)) return Complain(path, parser.error());
  if (root.kind != JsonValue::Kind::kObject || root.object.empty())
    return Complain(path, "expected a non-empty JSON object");
  for (const auto& [key, value] : root.object) {
    if (value.kind == JsonValue::Kind::kArray ||
        value.kind == JsonValue::Kind::kObject ||
        value.kind == JsonValue::Kind::kNull)
      return Complain(path, "key \"" + key + "\" is not a scalar");
  }
  std::printf("check_metrics: %s: ok (%zu fields)\n", path,
              root.object.size());
  return 0;
}

// ---- fleet: BENCH_fleet.json chaos-harness artifact -----------------------

// The chaos bench's contract (docs/metrics.md): flat scalars, this exact
// key set at minimum, and the two invariants CI must never see violated
// even if the bench's own gates are edited — no hung client, no victim
// session left unrecovered.
constexpr const char* kRequiredFleetKeys[] = {
    "sessions",          "baseline_rt_p99_us", "chaos_rt_p99_us",
    "rt_p99_ratio",      "kills",              "delays",
    "torn_frames",       "truncated_frames",   "garbage_frames",
    "stalls_injected",   "frames_corrupt",     "victims",
    "victims_recovered", "retry_exhausted",    "recoveries",
    "recovery_retries",  "resume_attaches",    "sessions_adopted",
    "sessions_migrated", "checkpoint_kernels_resumed",
    "deadline_exceeded", "synthetic_responses", "workers_respawned",
    "sessions_completed", "hangs",
};

int CheckFleet(const char* path) {
  std::string text;
  if (!ReadFile(path, &text)) return Complain(path, "cannot read");
  JsonValue root;
  JsonParser parser(text);
  if (!parser.Parse(&root)) return Complain(path, parser.error());
  if (root.kind != JsonValue::Kind::kObject)
    return Complain(path, "expected a JSON object");
  for (const char* key : kRequiredFleetKeys) {
    const JsonValue* value = root.Find(key);
    if (value == nullptr)
      return Complain(path, std::string("missing key \"") + key + "\"");
    if (value->kind != JsonValue::Kind::kNumber)
      return Complain(path, std::string("key \"") + key +
                                "\" is not a number");
  }
  const double hangs = root.Find("hangs")->number;
  if (hangs != 0.0)
    return Complain(path, "hangs != 0 — a client call never returned");
  const double victims = root.Find("victims")->number;
  const double recovered = root.Find("victims_recovered")->number;
  if (recovered < victims)
    return Complain(path, std::to_string(static_cast<long long>(
                              victims - recovered)) +
                              " victim session(s) never recovered");
  if (root.Find("retry_exhausted")->number != 0.0)
    return Complain(path,
                    "retry_exhausted != 0 — a victim burned every rebuild "
                    "attempt and gave up");
  // Adoption invariant: once any worker was killed, at least one of its
  // sessions must have been adopted from its journal instead of failed.
  const double kills = root.Find("kills")->number;
  if (kills > 0.0 && root.Find("sessions_adopted")->number < 1.0)
    return Complain(path,
                    "workers were killed but no session was adopted — the "
                    "journal/adoption path regressed");
  std::printf("check_metrics: %s: ok (%zu fields, %lld victims all "
              "recovered)\n",
              path, root.object.size(), static_cast<long long>(victims));
  return 0;
}

// ---- stats: MANAGER_STATS object ------------------------------------------

// The ManagerStats schema version this tool validates, and the counters
// every export of that version must carry. A key leaves the export only
// with a version bump; version 2 retired the tier-promotion counters and
// the tier-0/1 instruction counts (docs/metrics.md).
constexpr double kStatsSchemaVersion = 2;
constexpr const char* kRequiredStatsKeys[] = {
    "launches",           "sandboxed_launches",    "native_launches",
    "transfers_checked",  "faults_contained",      "responses_dropped",
    "ptx_modules_patched", "ptx_cache_hits",       "ptx_programs_compiled",
    "kernels_enqueued",   "preemptions",           "preemption_resumes",
    "superinstructions_fused", "tier2_instructions", "ring_messages_read",
    "ring_messages_written", "sessions_adopted",   "sessions_migrated",
    "checkpoint_kernels_resumed",
};

int CheckStatsObject(const char* path, const std::string& text) {
  JsonValue root;
  JsonParser parser(text);
  if (!parser.Parse(&root)) return Complain(path, parser.error());
  if (root.kind != JsonValue::Kind::kObject)
    return Complain(path, "expected a JSON object");
  const JsonValue* version = root.Find("schema_version");
  if (version == nullptr || version->kind != JsonValue::Kind::kNumber ||
      version->number != kStatsSchemaVersion)
    return Complain(path, "schema_version is not 2");
  for (const char* key : kRequiredStatsKeys) {
    const JsonValue* value = root.Find(key);
    if (value == nullptr)
      return Complain(path, std::string("missing counter \"") + key + "\"");
    if (value->kind != JsonValue::Kind::kNumber)
      return Complain(path, std::string("counter \"") + key +
                                "\" is not a number");
  }
  const JsonValue* hists = root.Find("wait_histograms");
  if (hists == nullptr || hists->kind != JsonValue::Kind::kObject ||
      hists->object.empty())
    return Complain(path, "missing wait_histograms object");
  for (const auto& [cls, hist] : hists->object) {
    if (hist.kind != JsonValue::Kind::kObject || hist.Find("count") == nullptr ||
        hist.Find("p99_ns") == nullptr)
      return Complain(path, "wait_histograms." + cls + " malformed");
  }
  return 0;
}

int CheckStats(const char* path) {
  std::string text;
  if (!ReadFile(path, &text)) return Complain(path, "cannot read");
  // A log file: validate every MANAGER_STATS line; a raw .json: the whole
  // body. Benches print "MANAGER_STATS {...}" so both shapes appear in CI.
  constexpr const char kMarker[] = "MANAGER_STATS ";
  std::size_t found = 0, at = 0;
  while ((at = text.find(kMarker, at)) != std::string::npos) {
    at += sizeof(kMarker) - 1;
    const std::size_t end = text.find('\n', at);
    const std::string line =
        text.substr(at, end == std::string::npos ? end : end - at);
    if (const int rc = CheckStatsObject(path, line)) return rc;
    ++found;
  }
  if (found == 0) {
    if (const int rc = CheckStatsObject(path, text)) return rc;
    found = 1;
  }
  std::printf("check_metrics: %s: ok (%zu stats object%s)\n", path, found,
              found == 1 ? "" : "s");
  return 0;
}

// ---- trace: Chrome trace-event JSON ---------------------------------------

int CheckTrace(const char* path, std::size_t min_events) {
  std::string text;
  if (!ReadFile(path, &text)) return Complain(path, "cannot read");
  JsonValue root;
  JsonParser parser(text);
  if (!parser.Parse(&root)) return Complain(path, parser.error());
  if (root.kind != JsonValue::Kind::kObject)
    return Complain(path, "expected a JSON object");
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray)
    return Complain(path, "missing traceEvents array");
  if (events->array.size() < min_events)
    return Complain(path, "only " + std::to_string(events->array.size()) +
                              " events, expected >= " +
                              std::to_string(min_events));
  std::size_t index = 0;
  for (const JsonValue& event : events->array) {
    const std::string where = "traceEvents[" + std::to_string(index++) + "]";
    if (event.kind != JsonValue::Kind::kObject)
      return Complain(path, where + " is not an object");
    const JsonValue* name = event.Find("name");
    const JsonValue* phase = event.Find("ph");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        name->string.empty())
      return Complain(path, where + " has no name");
    if (phase == nullptr || phase->kind != JsonValue::Kind::kString ||
        phase->string.empty())
      return Complain(path, where + " has no ph");
    for (const char* key : {"ts", "pid", "tid"}) {
      const JsonValue* field = event.Find(key);
      if (field == nullptr || field->kind != JsonValue::Kind::kNumber)
        return Complain(path,
                        where + " missing numeric \"" + key + "\"");
    }
    // Complete events must carry a duration.
    if (phase->string == "X" && event.Find("dur") == nullptr)
      return Complain(path, where + " is 'X' without dur");
  }
  std::printf("check_metrics: %s: ok (%zu events)\n", path,
              events->array.size());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: check_metrics bench FILE...\n"
               "       check_metrics fleet FILE...\n"
               "       check_metrics stats FILE...\n"
               "       check_metrics trace FILE [MIN_EVENTS]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string mode = argv[1];
  if (mode == "bench") {
    for (int i = 2; i < argc; ++i)
      if (const int rc = CheckBench(argv[i])) return rc;
    return 0;
  }
  if (mode == "fleet") {
    for (int i = 2; i < argc; ++i)
      if (const int rc = CheckFleet(argv[i])) return rc;
    return 0;
  }
  if (mode == "stats") {
    for (int i = 2; i < argc; ++i)
      if (const int rc = CheckStats(argv[i])) return rc;
    return 0;
  }
  if (mode == "trace") {
    const std::size_t min_events =
        argc > 3 ? static_cast<std::size_t>(std::strtoull(argv[3], nullptr, 10))
                 : 1;
    return CheckTrace(argv[2], min_events);
  }
  return Usage();
}
