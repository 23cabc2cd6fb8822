//===- Protocol.h - Versioned JSONL service protocol -----------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request/response protocol spoken by `optabs-serve` over
/// stdin/stdout: one JSON object per line in each direction. Both
/// directions carry `"v": 1` - the protocol schema version, versioned
/// independently of the event-trace schema (tracer/EventTrace.h) but with
/// the same compatibility rule: adding fields is compatible, renaming or
/// re-typing one bumps the version. The golden-transcript test
/// (tools/testdata/serve_session.jsonl against its .golden) pins the exact
/// serialized form of every response kind.
///
/// Requests (fields beyond "op" per operation; unknown ops and malformed
/// lines produce an `"ok": false` error response and the server keeps
/// reading):
///
///   {"op":"register-program","name":N,"text":IR}
///   {"op":"open-session","program":N,"client":"escape"|"typestate"
///        [,"property":SPEC] [,"k":K] [,"strategy":S] [,"max-iters":N]
///        [,"step-budget":N] [,"max-pending":N] [,"max-jobs":N]}
///   {"op":"submit","session":S,"check":C [,"site":H] [,"priority":P]}
///   {"op":"cancel","session":S}
///   {"op":"close-session","session":S}
///   {"op":"drain"}            -> one result line per job, in job-id order
///   {"op":"stats"}
///   {"op":"trace"}            -> reads the flight recorder through a
///        cursor: one "trace-event" line per event recorded since the
///        previous "trace" op, then a summary line with the drop count
///        (error when the server runs without tracing). The events stay
///        buffered, so the shutdown --trace-jsonl/--trace-chrome exports
///        still hold them
///   {"op":"explain","job":J}  -> one job's recorded timeline: latency
///        decomposition, batch id/peers, per-phase seconds, cache and
///        replay attribution
///   {"op":"ping"}             -> liveness probe: "server" ("optabs-serve"
///        or "optabs-shardd"), "protocol", "uptime_s", and the pending job
///        count; the shard supervisor also answers it itself and uses it
///        as the worker health check after every (re)spawn
///   {"op":"cache","action":A [,"program":N]} -> unified cache admin:
///        A is "stats" (resident entries/bytes and the persistence
///        counters), "persist" (snapshot one program - or all, when
///        "program" is absent - to the configured cache dir), "load"
///        (rehydrate snapshots; stale or corrupt entries are skipped
///        with a structured note, never served), "spill" (demote every
///        unpinned forward run to the spill tier on disk), or "evict"
///        (drop unpinned forward runs without writing anything).
///        "persist"/"load" require --cache-dir;
///        the response carries the per-action counters plus a "notes"
///        field joining every skip/conflict reason with ';'. The shard
///        supervisor fans the op out to every worker and sums the
///        counters. Responses are deterministic (no wall-clock fields),
///        pinned by tools/testdata/serve_cache.jsonl and its .golden.
///   {"op":"shutdown"}
///
/// Responses always carry "v", "ok", and (echoed) "op". Job results (the
/// lines emitted by "drain") additionally carry "job", "session",
/// "status", and - for status "done" - "verdict", "iterations", "cost",
/// "param". Outside "trace"/"explain"/"ping", responses contain no
/// wall-clock or other nondeterministic fields, so a scripted session's
/// transcript is byte-stable; that is enforced in CI by diffing a live
/// server run against the golden file. The exceptions confine
/// nondeterminism to their timestamp/seconds fields ("*_ns", "*_s",
/// "seconds") - everything else in them is deterministic, and the CI
/// transcripts zero exactly those fields before the diff
/// (RunServeTranscript.cmake SCRUB).
///
/// The parser below handles exactly the flat JSON objects the protocol
/// uses: string values (with escapes), integers, doubles, and booleans -
/// no nesting, no arrays. Lines that need more than that are not valid
/// protocol lines.
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SERVICE_PROTOCOL_H
#define OPTABS_SERVICE_PROTOCOL_H

#include "tracer/EventTrace.h" // JsonObject: the response builder

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>

namespace optabs {
namespace service {

/// Schema version stamped as `"v":1` on every request and response line.
inline constexpr int ProtocolVersion = 1;

/// One parsed flat JSON object: every value kept as a string plus a tag.
/// Accessors coerce on demand and report absence/mismatch via optional.
class JsonLine {
public:
  enum class Kind : uint8_t { String, Number, Bool };

  /// Parses one line. Returns false (with \p Err set) on anything that is
  /// not a single flat JSON object.
  static bool parse(const std::string &Line, JsonLine &Out,
                    std::string &Err) {
    Out.Fields.clear();
    size_t I = 0;
    auto Skip = [&] {
      while (I < Line.size() &&
             (Line[I] == ' ' || Line[I] == '\t' || Line[I] == '\r'))
        ++I;
    };
    // Escape failures set EscErr with the exact defect; callers prefer it
    // over their generic "unterminated string"/"expected a key" messages
    // (a bad escape used to be reported as an unterminated string, which
    // sent people hunting for a missing quote that was never the problem).
    std::string EscErr;
    auto ParseString = [&](std::string &S) -> bool {
      if (I >= Line.size() || Line[I] != '"')
        return false;
      ++I;
      S.clear();
      while (I < Line.size() && Line[I] != '"') {
        char C = Line[I];
        if (C == '\\') {
          if (I + 1 >= Line.size()) {
            EscErr = "truncated escape at end of line";
            return false;
          }
          char E = Line[++I];
          switch (E) {
          case '"':
            S += '"';
            break;
          case '\\':
            S += '\\';
            break;
          case '/':
            S += '/';
            break;
          case 'b':
            S += '\b';
            break;
          case 'f':
            S += '\f';
            break;
          case 'n':
            S += '\n';
            break;
          case 'r':
            S += '\r';
            break;
          case 't':
            S += '\t';
            break;
          case 'u': {
            if (I + 4 >= Line.size()) {
              EscErr = "truncated \\u escape (needs 4 hex digits)";
              return false;
            }
            unsigned V = 0;
            for (int K = 0; K < 4; ++K) {
              char H = Line[++I];
              V <<= 4;
              if (H >= '0' && H <= '9')
                V |= static_cast<unsigned>(H - '0');
              else if (H >= 'a' && H <= 'f')
                V |= static_cast<unsigned>(H - 'a' + 10);
              else if (H >= 'A' && H <= 'F')
                V |= static_cast<unsigned>(H - 'A' + 10);
              else {
                EscErr = std::string("non-hex digit '") + H +
                         "' in \\u escape";
                return false;
              }
            }
            // The protocol only escapes control characters; anything above
            // ASCII would have been sent as UTF-8 directly.
            if (V > 0x7f) {
              char Buf[16]; // V <= 0xffff, but GCC cannot see the bound
              std::snprintf(Buf, sizeof(Buf), "%04x", V);
              EscErr = std::string("\\u") + Buf +
                       " is above 0x7f (send non-ASCII as raw UTF-8)";
              return false;
            }
            S += static_cast<char>(V);
            break;
          }
          default:
            EscErr = std::string("invalid escape '\\") + E + "'";
            return false;
          }
        } else {
          S += C;
        }
        ++I;
      }
      if (I >= Line.size())
        return false;
      ++I; // closing quote
      return true;
    };

    Skip();
    if (I >= Line.size() || Line[I] != '{') {
      Err = "expected a JSON object";
      return false;
    }
    ++I;
    Skip();
    if (I < Line.size() && Line[I] == '}') {
      ++I;
    } else {
      for (;;) {
        Skip();
        std::string Key;
        if (!ParseString(Key)) {
          Err = EscErr.empty() ? std::string("expected a string key")
                               : EscErr + " in object key";
          return false;
        }
        Skip();
        if (I >= Line.size() || Line[I] != ':') {
          Err = "expected ':' after key '" + Key + "'";
          return false;
        }
        ++I;
        Skip();
        Value V;
        if (I < Line.size() && Line[I] == '"') {
          V.K = Kind::String;
          if (!ParseString(V.S)) {
            Err = EscErr.empty()
                      ? "unterminated string value for key '" + Key + "'"
                      : EscErr + " in string value for key '" + Key + "'";
            return false;
          }
        } else if (Line.compare(I, 4, "true") == 0) {
          V.K = Kind::Bool;
          V.S = "true";
          I += 4;
        } else if (Line.compare(I, 5, "false") == 0) {
          V.K = Kind::Bool;
          V.S = "false";
          I += 5;
        } else {
          size_t Start = I;
          if (I < Line.size() && (Line[I] == '-' || Line[I] == '+'))
            ++I;
          while (I < Line.size() &&
                 ((Line[I] >= '0' && Line[I] <= '9') || Line[I] == '.' ||
                  Line[I] == 'e' || Line[I] == 'E' || Line[I] == '-' ||
                  Line[I] == '+'))
            ++I;
          if (I == Start) {
            Err = "expected a value for key '" + Key + "'";
            return false;
          }
          V.K = Kind::Number;
          V.S = Line.substr(Start, I - Start);
        }
        Out.Fields[Key] = std::move(V);
        Skip();
        if (I < Line.size() && Line[I] == ',') {
          ++I;
          continue;
        }
        if (I < Line.size() && Line[I] == '}') {
          ++I;
          break;
        }
        Err = "expected ',' or '}'";
        return false;
      }
    }
    Skip();
    if (I != Line.size()) {
      Err = "trailing characters after object";
      return false;
    }
    return true;
  }

  bool has(const std::string &Key) const { return Fields.count(Key) > 0; }

  std::optional<std::string> getString(const std::string &Key) const {
    auto It = Fields.find(Key);
    if (It == Fields.end() || It->second.K != Kind::String)
      return std::nullopt;
    return It->second.S;
  }

  /// An unsigned integer no larger than \p Max. Absent on a type
  /// mismatch, a sign, a fraction, or a value above \p Max (so a 32-bit
  /// field never narrows 2^32 to 0, and nothing wraps modulo 2^64).
  std::optional<uint64_t> getUInt(const std::string &Key,
                                  uint64_t Max = UINT64_MAX) const {
    auto It = Fields.find(Key);
    if (It == Fields.end() || It->second.K != Kind::Number)
      return std::nullopt;
    return parseDigits(It->second.S, 0, Max);
  }

  /// A signed integer that fits in 32 bits (e.g. a job priority).
  std::optional<int32_t> getInt32(const std::string &Key) const {
    auto It = Fields.find(Key);
    if (It == Fields.end() || It->second.K != Kind::Number)
      return std::nullopt;
    const std::string &S = It->second.S;
    bool Neg = !S.empty() && S[0] == '-';
    uint64_t Limit = Neg ? uint64_t(INT32_MAX) + 1 : uint64_t(INT32_MAX);
    std::optional<uint64_t> V = parseDigits(S, Neg ? 1 : 0, Limit);
    if (!V)
      return std::nullopt;
    return static_cast<int32_t>(Neg ? -static_cast<int64_t>(*V)
                                    : static_cast<int64_t>(*V));
  }

  std::optional<bool> getBool(const std::string &Key) const {
    auto It = Fields.find(Key);
    if (It == Fields.end() || It->second.K != Kind::Bool)
      return std::nullopt;
    return It->second.S == "true";
  }

private:
  /// The decimal digits of \p S from \p Start on, as a value no larger
  /// than \p Max; nullopt on no digits, a non-digit, or overflow.
  static std::optional<uint64_t> parseDigits(const std::string &S,
                                             size_t Start, uint64_t Max) {
    if (S.size() <= Start)
      return std::nullopt;
    uint64_t V = 0;
    for (size_t I = Start; I < S.size(); ++I) {
      char C = S[I];
      if (C < '0' || C > '9')
        return std::nullopt; // doubles are not valid where integers go
      uint64_t D = static_cast<uint64_t>(C - '0');
      if (D > Max || V > (Max - D) / 10)
        return std::nullopt;
      V = V * 10 + D;
    }
    return V;
  }

  struct Value {
    Kind K = Kind::String;
    std::string S;
  };
  std::map<std::string, Value> Fields;
};

/// The job fields of a "submit" request. Check and site must fit in 32
/// unsigned bits and priority in 32 signed bits: a value that does not fit
/// is refused, never narrowed (2^32 would otherwise become check 0).
struct SubmitFields {
  uint64_t Session = 0;
  uint32_t Check = 0;
  std::optional<uint32_t> Site;
  std::optional<int32_t> Priority;
};

/// Reads \p Req's submit fields; nullopt (with \p Err) when the session
/// or check is missing or any field is malformed or out of range.
inline std::optional<SubmitFields> readSubmit(const JsonLine &Req,
                                              std::string &Err) {
  auto Sess = Req.getUInt("session");
  auto Check = Req.getUInt("check", UINT32_MAX);
  if (!Sess || !Check) {
    Err = "submit needs 'session' and 'check'";
    return std::nullopt;
  }
  SubmitFields F{*Sess, static_cast<uint32_t>(*Check), {}, {}};
  if (Req.has("site")) {
    auto Site = Req.getUInt("site", UINT32_MAX);
    if (!Site) {
      Err = "field 'site' must be an unsigned 32-bit integer";
      return std::nullopt;
    }
    F.Site = static_cast<uint32_t>(*Site);
  }
  if (Req.has("priority")) {
    F.Priority = Req.getInt32("priority");
    if (!F.Priority) {
      Err = "field 'priority' must be a signed 32-bit integer";
      return std::nullopt;
    }
  }
  return F;
}

/// Starts a response object with the common "v" and "ok" fields; the
/// caller adds "op" and the payload. tracer::JsonObject handles escaping
/// and field ordering (insertion order, so transcripts are stable).
inline tracer::JsonObject response(bool Ok) {
  tracer::JsonObject O;
  O.field("v", ProtocolVersion);
  O.field("ok", Ok);
  return O;
}

/// A complete error-response line.
inline std::string errorLine(const std::string &Op, const std::string &Msg) {
  tracer::JsonObject O = response(false);
  if (!Op.empty())
    O.field("op", Op);
  O.field("error", Msg);
  return O.str();
}

} // namespace service
} // namespace optabs

#endif // OPTABS_SERVICE_PROTOCOL_H
