#include "support/trace_check.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

namespace mqo {
namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters after value");
    return true;
  }

 private:
  bool Fail(const std::string& msg) {
    if (error_ && error_->empty()) {
      std::ostringstream os;
      os << msg << " at offset " << pos_;
      *error_ = os.str();
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
        return ParseKeyword(out);
      case 'n':
        return ParseKeyword(out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->items.push_back(std::move(value));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("dangling escape");
        char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= h - '0';
              else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
              else return Fail("bad \\u escape");
            }
            // The writer only escapes control characters; decode the
            // single-byte range and pass anything else through as '?'.
            *out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            return Fail("unknown escape");
        }
      } else {
        *out += c;
      }
    }
    return Fail("unterminated string");
  }

  bool ParseKeyword(JsonValue* out) {
    auto match = [&](const char* word) {
      size_t n = std::string(word).size();
      if (text_.compare(pos_, n, word) == 0) {
        pos_ += n;
        return true;
      }
      return false;
    };
    if (match("true")) {
      out->type = JsonValue::Type::kBool;
      out->b = true;
      return true;
    }
    if (match("false")) {
      out->type = JsonValue::Type::kBool;
      out->b = false;
      return true;
    }
    if (match("null")) {
      out->type = JsonValue::Type::kNull;
      return true;
    }
    return Fail("unknown keyword");
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    char* end = nullptr;
    std::string token = text_.substr(start, pos_ - start);
    out->num = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Fail("malformed number");
    out->type = JsonValue::Type::kNumber;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

TraceCheckResult FailCheck(const std::string& msg) {
  TraceCheckResult r;
  r.error = msg;
  return r;
}

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  if (error) error->clear();
  return Parser(text, error).Parse(out);
}

TraceCheckResult ValidateChromeTrace(const std::string& json) {
  JsonValue root;
  std::string error;
  if (!ParseJson(json, &root, &error)) {
    return FailCheck("invalid JSON: " + error);
  }
  if (root.type != JsonValue::Type::kObject) {
    return FailCheck("trace root is not an object");
  }
  const JsonValue* events = root.Find("traceEvents");
  if (!events || events->type != JsonValue::Type::kArray) {
    return FailCheck("missing traceEvents array");
  }

  struct Span {
    double ts = 0;
    double end = 0;
  };
  std::map<double, std::vector<Span>> spans_by_tid;

  TraceCheckResult result;
  for (const JsonValue& e : events->items) {
    if (e.type != JsonValue::Type::kObject) {
      return FailCheck("trace event is not an object");
    }
    const JsonValue* ph = e.Find("ph");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* name = e.Find("name");
    if (!ph || ph->type != JsonValue::Type::kString || !ts ||
        ts->type != JsonValue::Type::kNumber || !name ||
        name->type != JsonValue::Type::kString) {
      return FailCheck("trace event missing ph/ts/name");
    }
    ++result.num_events;
    if (ph->str == "X") {
      const JsonValue* dur = e.Find("dur");
      if (!dur || dur->type != JsonValue::Type::kNumber || dur->num < 0) {
        return FailCheck("complete event '" + name->str + "' lacks dur");
      }
      const JsonValue* tid = e.Find("tid");
      double tid_num = tid && tid->type == JsonValue::Type::kNumber ? tid->num : 0;
      spans_by_tid[tid_num].push_back({ts->num, ts->num + dur->num});
      ++result.num_spans;
    } else if (ph->str == "i") {
      ++result.num_instants;
    }
  }

  // Spans on one thread must nest: sorted by (start, -end), each span must
  // lie entirely within the enclosing open span or entirely after it. A
  // microsecond of slop absorbs rounding from the ns->us conversion.
  constexpr double kEps = 1.5;
  for (auto& [tid, spans] : spans_by_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.ts != b.ts) return a.ts < b.ts;
      return a.end > b.end;
    });
    std::vector<Span> stack;
    for (const Span& s : spans) {
      while (!stack.empty() && s.ts >= stack.back().end - kEps) {
        stack.pop_back();
      }
      if (!stack.empty() && s.end > stack.back().end + kEps) {
        std::ostringstream os;
        os << "unbalanced spans on tid " << tid << ": [" << s.ts << ", "
           << s.end << ") straddles the end of an enclosing span at "
           << stack.back().end;
        return FailCheck(os.str());
      }
      stack.push_back(s);
    }
  }

  result.ok = true;
  return result;
}

}  // namespace mqo
