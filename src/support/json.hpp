#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace amtfmm {

/// Streaming JSON writer with correct string escaping and automatic comma
/// placement.  Shared by the bench `--json` outputs, the Chrome trace
/// exporter, and the trace_report analyzer, so every machine-readable
/// artifact of the repo is produced by one implementation.
///
/// Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("name"); w.value("fig4");
///   w.key("times"); w.begin_array(); w.value(1.5); w.end_array();
///   w.end_object();
///   w.write_file(path);  // or w.str()
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  /// Object key; the next value (or container) belongs to it.
  void key(const std::string& k);

  void value(const std::string& v);
  void value(const char* v) { value(std::string(v)); }
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void value(bool v);
  void null();

  /// Convenience: key + scalar value.
  template <typename T>
  void kv(const std::string& k, const T& v) {
    key(k);
    value(v);
  }

  const std::string& str() const { return out_; }
  /// Writes the buffer to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  void comma();
  void open(char c);
  void close(char c);

  std::string out_;
  /// One entry per open container: true once the first element was written.
  std::vector<bool> has_elem_;
  bool pending_key_ = false;
};

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
void json_escape(std::string& out, const std::string& s);

/// Parsed JSON value: a small recursive-descent DOM used by the trace
/// analyzer and the export round-trip tests.  Numbers are stored as double
/// (the exporter never emits integers outside the 2^53 exact range).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& k) const;
  /// Member as number/string with a default when absent or mistyped.
  double num_or(const std::string& k, double def) const;
  std::string str_or(const std::string& k, const std::string& def) const;
};

/// Parses `text` into `out`.  Returns false (and fills `error`) on malformed
/// input; accepts any JSON value at the top level.
bool json_parse(const std::string& text, JsonValue& out, std::string& error);

/// Reads a whole file; returns false when unreadable.
bool read_file(const std::string& path, std::string& out);

}  // namespace amtfmm
