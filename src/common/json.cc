#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/str_util.h"

namespace prore {

namespace {

class Parser {
 public:
  Parser(std::string_view text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  prore::Result<JsonValue> Run() {
    JsonValue v;
    PRORE_RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return v;
  }

 private:
  prore::Status Fail(const char* what) const {
    return prore::Status::ParseError(
        prore::StrFormat("json: %s at offset %zu", what, pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  prore::Status ParseValue(JsonValue* out, size_t depth) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        PRORE_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return prore::Status::OK();
      }
      case 't':
        if (ConsumeWord("true")) {
          *out = JsonValue::Bool(true);
          return prore::Status::OK();
        }
        return Fail("bad literal");
      case 'f':
        if (ConsumeWord("false")) {
          *out = JsonValue::Bool(false);
          return prore::Status::OK();
        }
        return Fail("bad literal");
      case 'n':
        if (ConsumeWord("null")) {
          *out = JsonValue::Null();
          return prore::Status::OK();
        }
        return Fail("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  prore::Status ParseObject(JsonValue* out, size_t depth) {
    if (depth >= max_depth_) return Fail("nesting too deep");
    ++pos_;  // '{'
    *out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return prore::Status::OK();
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      PRORE_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      JsonValue v;
      PRORE_RETURN_IF_ERROR(ParseValue(&v, depth + 1));
      out->Set(std::move(key), std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return prore::Status::OK();
      return Fail("expected ',' or '}'");
    }
  }

  prore::Status ParseArray(JsonValue* out, size_t depth) {
    if (depth >= max_depth_) return Fail("nesting too deep");
    ++pos_;  // '['
    *out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return prore::Status::OK();
    while (true) {
      JsonValue v;
      PRORE_RETURN_IF_ERROR(ParseValue(&v, depth + 1));
      out->push_back(std::move(v));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return prore::Status::OK();
      return Fail("expected ',' or ']'");
    }
  }

  prore::Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return prore::Status::OK();
      }
      if (c < 0x20) return Fail("unescaped control character");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned cp = 0;
          PRORE_RETURN_IF_ERROR(ParseHex4(&cp));
          // Surrogate pair: decode the low half if present; a lone
          // surrogate degrades to U+FFFD rather than failing the frame.
          if (cp >= 0xD800 && cp <= 0xDBFF &&
              text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            unsigned lo = 0;
            PRORE_RETURN_IF_ERROR(ParseHex4(&lo));
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              cp = 0xFFFD;
            }
          } else if (cp >= 0xD800 && cp <= 0xDFFF) {
            cp = 0xFFFD;
          }
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
  }

  prore::Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("bad \\u escape");
      }
    }
    *out = v;
    return prore::Status::OK();
  }

  static void AppendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  prore::Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double v = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      return Fail("malformed number");
    }
    *out = JsonValue::Number(v);
    return prore::Status::OK();
  }

  std::string_view text_;
  size_t max_depth_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string default_value) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value()
                                          : std::move(default_value);
}

double JsonValue::GetNumber(std::string_view key, double default_value) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : default_value;
}

bool JsonValue::GetBool(std::string_view key, bool default_value) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : default_value;
}

prore::Result<JsonValue> JsonValue::Parse(std::string_view text,
                                          size_t max_depth) {
  return Parser(text, max_depth).Run();
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += prore::StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber: {
      // Integers (the overwhelmingly common case on this wire) render
      // without a fractional part so replies are byte-stable.
      double intpart = 0;
      if (std::modf(number_, &intpart) == 0.0 && std::abs(number_) < 1e15) {
        *out += prore::StrFormat("%lld", static_cast<long long>(number_));
      } else {  // the shortest text that reads back as the same double
        char buf[32];
        out->append(buf, std::to_chars(buf, buf + sizeof(buf), number_).ptr);
      }
      return;
    }
    case Kind::kString:
      AppendJsonEscaped(out, string_);
      return;
    case Kind::kArray:
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i) out->push_back(',');
        array_[i].DumpTo(out);
      }
      out->push_back(']');
      return;
    case Kind::kObject:
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i) out->push_back(',');
        AppendJsonEscaped(out, members_[i].first);
        out->push_back(':');
        members_[i].second.DumpTo(out);
      }
      out->push_back('}');
      return;
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

}  // namespace prore
