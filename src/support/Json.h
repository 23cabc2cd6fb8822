//===- Json.h - JSON string encoding ---------------------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON module: a string encoder and the JsonObject builder that
/// every writer uses - the CEGAR event trace (tracer/EventTrace.h), the
/// service protocol responses (service/Protocol.h), the flight recorder's
/// JSONL export (support/Trace.cpp) and the Chrome trace
/// (support/Metrics.cpp). Their golden files pin its exact bytes.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_JSON_H
#define OPTABS_SUPPORT_JSON_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace optabs {
namespace support {

/// Appends \p S to \p Out as a quoted JSON string (RFC 8259): '"', '\\',
/// '\n', '\r' and '\t' get their short escapes, other control characters
/// below 0x20 become \u00XX, and every other byte is copied as is.
inline void appendJsonString(std::string &Out, std::string_view S) {
  static constexpr char Hex[] = "0123456789abcdef";
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        Out += "\\u00";
        Out += Hex[C >> 4];
        Out += Hex[C & 0xf];
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

/// Builds one JSON object incrementally, fields in insertion order (so
/// transcripts are stable). Doubles print as "%.6g", which is also what
/// `std::ostream << double` prints by default.
class JsonObject {
public:
  JsonObject &field(const char *Key, std::string_view Value) {
    beginField(Key);
    appendJsonString(Buf, Value);
    return *this;
  }
  /// Without this overload a string literal would convert to bool.
  JsonObject &field(const char *Key, const char *Value) {
    return field(Key, std::string_view(Value));
  }
  /// One template for every integer width (uint64_t and size_t are the
  /// same type on LP64, so distinct overloads would collide).
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonObject &field(const char *Key, T Value) {
    beginField(Key);
    Buf += std::to_string(Value);
    return *this;
  }
  JsonObject &field(const char *Key, double Value) {
    beginField(Key);
    char Tmp[32];
    std::snprintf(Tmp, sizeof(Tmp), "%.6g", Value);
    Buf += Tmp;
    return *this;
  }
  JsonObject &field(const char *Key, bool Value) {
    beginField(Key);
    Buf += Value ? "true" : "false";
    return *this;
  }
  /// A nested object, e.g. a Chrome trace event's "args".
  JsonObject &field(const char *Key, const JsonObject &Value) {
    beginField(Key);
    Buf += Value.str();
    return *this;
  }
  /// uint64 as a "0x..." string (JSON numbers lose precision past 2^53).
  JsonObject &hexField(const char *Key, uint64_t Value) {
    char Tmp[24];
    std::snprintf(Tmp, sizeof(Tmp), "0x%016llx",
                  static_cast<unsigned long long>(Value));
    return field(Key, Tmp);
  }
  /// An array of unsigned numbers (e.g. per-trace lengths).
  JsonObject &field(const char *Key, const std::vector<size_t> &Values) {
    beginField(Key);
    Buf += '[';
    for (size_t I = 0; I < Values.size(); ++I) {
      if (I > 0)
        Buf += ',';
      Buf += std::to_string(Values[I]);
    }
    Buf += ']';
    return *this;
  }

  std::string str() const { return Buf.empty() ? "{}" : Buf + "}"; }

private:
  void beginField(const char *Key) {
    Buf += Buf.empty() ? '{' : ',';
    appendJsonString(Buf, Key);
    Buf += ':';
  }

  std::string Buf;
};

} // namespace support
} // namespace optabs

#endif // OPTABS_SUPPORT_JSON_H
