//===- JsonChecker.h - JSON validity checker for tests ----------*- C++ -*-===//
//
// Shared by AuditTest (every event-trace line) and MetricsTest (the
// Chrome trace export): a minimal recursive-descent checker that a string
// is one well-formed standalone JSON value - objects, arrays, strings,
// numbers, booleans and null.
//
//===----------------------------------------------------------------------===//

#ifndef OPTABS_TESTS_JSONCHECKER_H
#define OPTABS_TESTS_JSONCHECKER_H

#include <cctype>
#include <string>

namespace json_checker {

class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : S(S) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    char C = S[Pos];
    if (C == '{')
      return object();
    if (C == '[')
      return array();
    if (C == '"')
      return string();
    if (C == 't')
      return literal("true");
    if (C == 'f')
      return literal("false");
    if (C == 'n')
      return literal("null");
    return number();
  }
  bool object() {
    ++Pos;
    skipWs();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++Pos;
    skipWs();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
      }
      // Control characters must have been escaped by the writer.
      if (static_cast<unsigned char>(S[Pos]) < 0x20)
        return false;
      ++Pos;
    }
    if (Pos >= S.size())
      return false;
    ++Pos;
    return true;
  }
  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '+' || S[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }
  bool literal(const char *L) {
    size_t Len = std::string(L).size();
    if (S.compare(Pos, Len, L) != 0)
      return false;
    Pos += Len;
    return true;
  }
  void skipWs() {
    while (Pos < S.size() &&
           (S[Pos] == ' ' || S[Pos] == '\n' || S[Pos] == '\t' ||
            S[Pos] == '\r'))
      ++Pos;
  }
  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }

  const std::string &S;
  size_t Pos = 0;
};

} // namespace json_checker

#endif // OPTABS_TESTS_JSONCHECKER_H
