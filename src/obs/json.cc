#include "src/obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace frn {

namespace {

void EscapeInto(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void NumberInto(double d, std::string* out) {
  if (!std::isfinite(d)) {
    *out += "0";  // JSON has no Inf/NaN; clamp rather than emit invalid text
    return;
  }
  // Integral values within the exact-double range print without a fraction so
  // counters stay grep-able; everything else keeps full double precision.
  if (d == std::floor(d) && std::fabs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    *out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    *out += buf;
  }
}

// ---- Parser ----

struct Parser {
  explicit Parser(const std::string& input) : text(input) {}

  const std::string& text;
  size_t pos = 0;
  std::string error;

  bool Fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void SkipSpace() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool ParseLiteral(const char* literal) {
    size_t n = 0;
    while (literal[n] != '\0') {
      ++n;
    }
    if (text.compare(pos, n, literal) != 0) {
      return Fail(std::string("expected '") + literal + "'");
    }
    pos += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos >= text.size() || text[pos] != '"') {
      return Fail("expected string");
    }
    ++pos;
    out->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) {
        break;
      }
      char esc = text[pos++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // Encode the BMP code point as UTF-8 (surrogates pass through as
          // replacement; the exports never emit them).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos >= text.size()) {
      return Fail("unexpected end of input");
    }
    char c = text[pos];
    if (c == '{') {
      ++pos;
      *out = JsonValue::Object();
      SkipSpace();
      if (Consume('}')) {
        return true;
      }
      for (;;) {
        SkipSpace();
        std::string key;
        if (!ParseString(&key)) {
          return false;
        }
        if (!Consume(':')) {
          return Fail("expected ':'");
        }
        JsonValue member;
        if (!ParseValue(&member)) {
          return false;
        }
        out->Set(key, std::move(member));
        if (Consume(',')) {
          continue;
        }
        if (Consume('}')) {
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      *out = JsonValue::Array();
      SkipSpace();
      if (Consume(']')) {
        return true;
      }
      for (;;) {
        JsonValue element;
        if (!ParseValue(&element)) {
          return false;
        }
        out->Append(std::move(element));
        if (Consume(',')) {
          continue;
        }
        if (Consume(']')) {
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) {
        return false;
      }
      *out = JsonValue(std::move(s));
      return true;
    }
    if (c == 't') {
      if (!ParseLiteral("true")) {
        return false;
      }
      *out = JsonValue(true);
      return true;
    }
    if (c == 'f') {
      if (!ParseLiteral("false")) {
        return false;
      }
      *out = JsonValue(false);
      return true;
    }
    if (c == 'n') {
      if (!ParseLiteral("null")) {
        return false;
      }
      *out = JsonValue();
      return true;
    }
    // Number.
    size_t start = pos;
    if (pos < text.size() && text[pos] == '-') {
      ++pos;
    }
    while (pos < text.size() &&
           ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' || text[pos] == 'e' ||
            text[pos] == 'E' || text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) {
      return Fail("unexpected character");
    }
    char* end = nullptr;
    std::string slice = text.substr(start, pos - start);
    double d = std::strtod(slice.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Fail("bad number");
    }
    *out = JsonValue(d);
    return true;
  }
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent >= 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      NumberInto(number_, out);
      break;
    case Type::kString:
      EscapeInto(string_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& v : array_) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        newline(depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!array_.empty()) {
        newline(depth);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, v] : object_) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        newline(depth + 1);
        EscapeInto(key, out);
        out->push_back(':');
        if (indent >= 0) {
          out->push_back(' ');
        }
        v.DumpTo(out, indent, depth + 1);
      }
      if (!object_.empty()) {
        newline(depth);
      }
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

bool JsonValue::Parse(const std::string& text, JsonValue* out, std::string* error) {
  Parser p(text);
  if (!p.ParseValue(out)) {
    if (error != nullptr) {
      *error = p.error;
    }
    return false;
  }
  p.SkipSpace();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing garbage at offset " + std::to_string(p.pos);
    }
    return false;
  }
  return true;
}

bool WriteJsonFile(const std::string& path, const JsonValue& value, int indent) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << value.Dump(indent) << '\n';
  return static_cast<bool>(out);
}

bool ReadJsonFile(const std::string& path, JsonValue* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return JsonValue::Parse(buf.str(), out, error);
}

}  // namespace frn
