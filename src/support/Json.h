//===- Json.h - JSON string encoding ---------------------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string encoder shared by every writer: the CEGAR event
/// trace (tracer/EventTrace.h), the profiler's Chrome trace
/// (support/Metrics.cpp) and the flight recorder's exports
/// (support/Trace.cpp). Their golden files pin its exact bytes.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_JSON_H
#define OPTABS_SUPPORT_JSON_H

#include <string>
#include <string_view>

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

} // namespace support
} // namespace optabs

#endif // OPTABS_SUPPORT_JSON_H
