// End-to-end trace check: runs the execute_plan example with tracing enabled
// and validates the emitted Chrome trace-event JSON in one linear pass over
// EVERY event:
//   * the run exits 0 and the file parses as JSON;
//   * traceEvents is a non-empty array;
//   * every event's ph is X, M or i, and every X event carries numeric ts
//     and dur;
//   * spans named factor, solve, send, recv and submit are all present —
//     solver, service and executor legs land on one timeline.
//
//   check_trace <path-to-example_execute_plan> <out.json>
//
// CTest runs this as TraceExport.ExecutePlanEndToEnd; CI uploads out.json
// as a workflow artifact so any run's timeline can be dropped into
// https://ui.perfetto.dev. The parser is a minimal RFC 8259 validator, so
// the check needs no JSON library (the exporter writes JSON by hand too).

#include <spawn.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

extern char** environ;

namespace {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  std::string text;  // kString
  std::vector<Value> items;  // kArray
  std::vector<std::pair<std::string, Value>> members;  // kObject

  [[nodiscard]] const Value* get(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  /// Parses the whole input as one JSON value; false on any syntax error
  /// (error_at() then points at the offending byte).
  bool parse(Value& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }
  [[nodiscard]] std::size_t error_at() const { return pos_; }

 private:
  bool value(Value& v) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(v);
      case '[': return array(v);
      case '"':
        v.kind = Value::Kind::kString;
        return string(v.text);
      case 't':
        v.kind = Value::Kind::kBool;
        return literal("true");
      case 'f':
        v.kind = Value::Kind::kBool;
        return literal("false");
      case 'n':
        v.kind = Value::Kind::kNull;
        return literal("null");
      default:
        v.kind = Value::Kind::kNumber;
        return number();
    }
  }

  bool object(Value& v) {
    v.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    do {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      Value member;
      if (!value(member)) return false;
      v.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
    } while (eat(','));
    return eat('}');
  }

  bool array(Value& v) {
    v.kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return true;
    do {
      skip_ws();
      Value item;
      if (!value(item)) return false;
      v.items.push_back(std::move(item));
      skip_ws();
    } while (eat(','));
    return eat(']');
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          for (int i = 0; i < 4; ++i, ++pos_) {
            if (pos_ >= s_.size() || !is_hex(s_[pos_])) return false;
          }
          out.push_back('?');  // code point value is irrelevant here
          break;
        default: return false;
      }
    }
    return false;
  }

  bool number() {
    eat('-');
    if (!eat('0') && !digits()) return false;  // no leading zeros
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return true;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  static bool is_hex(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
           (c >= 'A' && c <= 'F');
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

int fail(const std::string& message) {
  std::fprintf(stderr, "check_trace: %s\n", message.c_str());
  return 1;
}

/// Runs `example --trace trace_path`; returns its exit status (-1 when it
/// could not be started or did not exit normally).
int run_example(const char* example, const char* trace_path) {
  std::string arg0 = example;
  std::string arg1 = "--trace";
  std::string arg2 = trace_path;
  char* argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};
  pid_t pid = 0;
  if (posix_spawn(&pid, example, nullptr, nullptr, argv, environ) != 0) {
    return -1;
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    return fail("usage: check_trace <example_execute_plan> <out.json>");
  }
  const char* example = argv[1];
  const char* trace_path = argv[2];

  const int status = run_example(example, trace_path);
  if (status != 0) {
    return fail(std::string("'") + example + " --trace " + trace_path +
                "' failed (status " + std::to_string(status) + ")");
  }

  std::ifstream in(trace_path, std::ios::binary);
  if (!in) return fail(std::string("cannot read ") + trace_path);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};

  Value root;
  Parser parser(text);
  if (!parser.parse(root)) {
    return fail(std::string(trace_path) + " is not valid JSON (byte " +
                std::to_string(parser.error_at()) + ")");
  }
  const Value* events =
      root.kind == Value::Kind::kObject ? root.get("traceEvents") : nullptr;
  if (events == nullptr || events->kind != Value::Kind::kArray ||
      events->items.empty()) {
    return fail(std::string(trace_path) + " has no traceEvents");
  }

  std::set<std::string> names;
  for (std::size_t i = 0; i < events->items.size(); ++i) {
    const Value& ev = events->items[i];
    const std::string at = "event " + std::to_string(i);
    if (ev.kind != Value::Kind::kObject) return fail(at + " is not an object");
    const Value* ph = ev.get("ph");
    const Value* name = ev.get("name");
    if (ph == nullptr || ph->kind != Value::Kind::kString ||
        (ph->text != "X" && ph->text != "M" && ph->text != "i")) {
      return fail(at + " has an unexpected ph");
    }
    if (name == nullptr || name->kind != Value::Kind::kString) {
      return fail(at + " has no name");
    }
    if (ph->text == "X") {
      // Complete events must carry a timestamp and a duration.
      const Value* ts = ev.get("ts");
      const Value* dur = ev.get("dur");
      if (ts == nullptr || ts->kind != Value::Kind::kNumber ||
          dur == nullptr || dur->kind != Value::Kind::kNumber) {
        return fail(at + " ('" + name->text + "') lacks ts/dur");
      }
    }
    names.insert(name->text);
  }

  for (const char* want : {"factor", "solve", "send", "recv", "submit"}) {
    if (names.count(want) == 0) {
      return fail(std::string("required span '") + want + "' missing from " +
                  trace_path + " (solver/service/exec must share one timeline)");
    }
  }
  std::printf("check_trace: %s OK - %zu events, all of "
              "'factor solve send recv submit' present\n",
              trace_path, events->items.size());
  return 0;
}
