#include "support/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace amtfmm {

void json_escape(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void JsonWriter::comma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value completes a "key": pair, no comma
  }
  if (!has_elem_.empty()) {
    if (has_elem_.back()) out_ += ',';
    has_elem_.back() = true;
  }
}

void JsonWriter::open(char c) {
  comma();
  out_ += c;
  has_elem_.push_back(false);
}

void JsonWriter::close(char c) {
  has_elem_.pop_back();
  out_ += c;
}

void JsonWriter::key(const std::string& k) {
  comma();
  out_ += '"';
  json_escape(out_, k);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::value(const std::string& v) {
  comma();
  out_ += '"';
  json_escape(out_, v);
  out_ += '"';
}

void JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    out_ += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
}

void JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
}

void JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
}

void JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
}

void JsonWriter::null() {
  comma();
  out_ += "null";
}

bool JsonWriter::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(out_.data(), 1, out_.size(), f);
  const bool ok = n == out_.size() && std::fclose(f) == 0;
  if (n != out_.size()) std::fclose(f);
  return ok;
}

const JsonValue* JsonValue::find(const std::string& k) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(k);
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::num_or(const std::string& k, double def) const {
  const JsonValue* v = find(k);
  return (v != nullptr && v->is_number()) ? v->number : def;
}

std::string JsonValue::str_or(const std::string& k,
                              const std::string& def) const {
  const JsonValue* v = find(k);
  return (v != nullptr && v->kind == Kind::kString) ? v->string : def;
}

namespace {

/// Recursive-descent parser state.  Depth-limited so adversarial input
/// cannot blow the stack.
struct Parser {
  const char* p;
  const char* end;
  std::string* error;
  int depth = 0;
  static constexpr int kMaxDepth = 64;

  bool fail(const std::string& what) {
    *error = what + " at offset " + std::to_string(pos());
    return false;
  }
  std::size_t pos() const { return static_cast<std::size_t>(p - start); }
  const char* start = nullptr;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool parse_value(JsonValue& out) {
    if (++depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    bool ok = false;
    switch (*p) {
      case '{': ok = parse_object(out); break;
      case '[': ok = parse_array(out); break;
      case '"':
        out.kind = JsonValue::Kind::kString;
        ok = parse_string(out.string);
        break;
      case 't':
      case 'f':
        ok = parse_literal(out);
        break;
      case 'n':
        ok = expect("null");
        out.kind = JsonValue::Kind::kNull;
        break;
      default:
        ok = parse_number(out);
    }
    --depth;
    return ok;
  }

  bool expect(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(end - p) < n || std::strncmp(p, lit, n) != 0) {
      return fail(std::string("expected '") + lit + "'");
    }
    p += n;
    return true;
  }

  bool parse_literal(JsonValue& out) {
    out.kind = JsonValue::Kind::kBool;
    if (*p == 't') {
      out.boolean = true;
      return expect("true");
    }
    out.boolean = false;
    return expect("false");
  }

  bool parse_number(JsonValue& out) {
    char* num_end = nullptr;
    out.number = std::strtod(p, &num_end);
    if (num_end == p) return fail("malformed value");
    out.kind = JsonValue::Kind::kNumber;
    p = num_end;
    return true;
  }

  bool parse_string(std::string& out) {
    ++p;  // opening quote
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return fail("unterminated escape");
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end - p < 5) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char c = p[i];
              code <<= 4;
              if (c >= '0' && c <= '9') {
                code |= static_cast<unsigned>(c - '0');
              } else if (c >= 'a' && c <= 'f') {
                code |= static_cast<unsigned>(c - 'a' + 10);
              } else if (c >= 'A' && c <= 'F') {
                code |= static_cast<unsigned>(c - 'A' + 10);
              } else {
                return fail("malformed \\u escape");
              }
            }
            p += 4;
            // UTF-8 encode (surrogate pairs not needed by our artifacts;
            // lone surrogates encode as-is).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default:
            return fail("unknown escape");
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++p;  // [
    skip_ws();
    if (p < end && *p == ']') {
      ++p;
      return true;
    }
    for (;;) {
      out.array.emplace_back();
      if (!parse_value(out.array.back())) return false;
      skip_ws();
      if (p >= end) return fail("unterminated array");
      if (*p == ',') {
        ++p;
        continue;
      }
      if (*p == ']') {
        ++p;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++p;  // {
    skip_ws();
    if (p < end && *p == '}') {
      ++p;
      return true;
    }
    for (;;) {
      skip_ws();
      if (p >= end || *p != '"') return fail("expected object key");
      std::string k;
      if (!parse_string(k)) return false;
      skip_ws();
      if (p >= end || *p != ':') return fail("expected ':'");
      ++p;
      if (!parse_value(out.object[std::move(k)])) return false;
      skip_ws();
      if (p >= end) return fail("unterminated object");
      if (*p == ',') {
        ++p;
        continue;
      }
      if (*p == '}') {
        ++p;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

}  // namespace

bool json_parse(const std::string& text, JsonValue& out, std::string& error) {
  Parser ps{text.data(), text.data() + text.size(), &error};
  ps.start = text.data();
  out = JsonValue{};
  if (!ps.parse_value(out)) return false;
  ps.skip_ws();
  if (ps.p != ps.end) return ps.fail("trailing garbage");
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace amtfmm
