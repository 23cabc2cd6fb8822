//===- Args.h - Small shared command-line parser ---------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A declarative `--flag=VALUE` parser shared by the optabs tools. Flags
/// are registered with a typed destination (or a custom callback) and a
/// help line; parse() walks argv once, filling destinations, collecting
/// positionals, and failing with a structured message on an unknown flag
/// or a malformed value (junk like `--k=banana`). `--help` is built in:
/// parse() stops at it and helpRequested() turns true. The usage line and
/// the help listing are both generated from the registered flags, so a
/// tool's documentation cannot drift from what it accepts.
///
///   support::ArgParser Args("optabs-cli PROGRAM.opt");
///   Args.option("--k", &Opts.K, "dropk beam width");
///   Args.flag("--audit", &Opts.Audit, "certificate-check every verdict");
///   std::string Err;
///   if (!Args.parse(Argc, Argv, Err)) {
///     std::cerr << "error: " << Err << "\n" << Args.usage();  // exit 2
///   } else if (Args.helpRequested()) {
///     std::cout << Args.help();                                // exit 0
///   }
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_ARGS_H
#define OPTABS_SUPPORT_ARGS_H

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

namespace optabs {
namespace support {

class ArgParser {
public:
  /// \p Synopsis opens the usage line: the tool's name and whatever it
  /// takes besides flags, e.g. "optabs-cli PROGRAM.opt".
  explicit ArgParser(std::string Synopsis = "")
      : Synopsis(std::move(Synopsis)) {}

  /// A boolean switch: `--name` (no value).
  ArgParser &flag(const char *Name, bool *Out, const char *Help = "") {
    Specs.push_back({Name, Help, /*Value=*/"",
                     [Out](const std::string &, std::string &) {
                       *Out = true;
                       return true;
                     }});
    return *this;
  }

  /// `--name=VALUE` into a string; any text accepted.
  ArgParser &option(const char *Name, std::string *Out,
                    const char *Help = "") {
    Specs.push_back({Name, Help, "VALUE",
                     [Out](const std::string &V, std::string &) {
                       *Out = V;
                       return true;
                     }});
    return *this;
  }

  /// `--name=N` into an unsigned integer type (unsigned, size_t, uint64_t).
  template <typename UIntT>
  ArgParser &option(const char *Name, UIntT *Out, const char *Help = "") {
    static_assert(std::is_unsigned_v<UIntT>,
                  "numeric flags are unsigned; use a callback otherwise");
    Specs.push_back({Name, Help, "N",
                     [Out](const std::string &V, std::string &Err) {
                       uint64_t N;
                       if (!parseU64(V, N)) {
                         Err = "expected an unsigned integer";
                         return false;
                       }
                       *Out = static_cast<UIntT>(N);
                       return true;
                     }});
    return *this;
  }

  /// `--name=X.Y` into a double.
  ArgParser &option(const char *Name, double *Out, const char *Help = "") {
    Specs.push_back({Name, Help, "X",
                     [Out](const std::string &V, std::string &Err) {
                       char *End = nullptr;
                       errno = 0;
                       double D = std::strtod(V.c_str(), &End);
                       if (V.empty() || errno != 0 ||
                           End != V.c_str() + V.size()) {
                         Err = "expected a number";
                         return false;
                       }
                       *Out = D;
                       return true;
                     }});
    return *this;
  }

  /// `--name=VALUE` through a custom validator/setter. The callback sets
  /// \p Err and returns false to reject the value.
  ArgParser &
  callback(const char *Name,
           std::function<bool(const std::string &, std::string &)> Fn,
           const char *Help = "") {
    Specs.push_back({Name, Help, "VALUE", std::move(Fn)});
    return *this;
  }

  /// Non-flag arguments are appended here, in order.
  ArgParser &positional(std::vector<std::string> *Out) {
    Positionals = Out;
    return *this;
  }

  /// Parses argv[1..]; on failure \p Err describes the offending flag or
  /// value and the destinations already parsed keep their values. Stops
  /// at `--help`, returning true with helpRequested() set.
  bool parse(int Argc, char **Argv, std::string &Err) {
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg == "--help") {
        HelpRequested = true;
        return true;
      }
      if (Arg.empty() || Arg[0] != '-') {
        if (Positionals)
          Positionals->push_back(Arg);
        else {
          Err = "unexpected argument '" + Arg + "'";
          return false;
        }
        continue;
      }
      size_t Eq = Arg.find('=');
      std::string Name = Arg.substr(0, Eq);
      const Spec *S = findSpec(Name);
      if (!S) {
        Err = "unknown option '" + Name + "'";
        return false;
      }
      if (S->takesValue() != (Eq != std::string::npos)) {
        Err = S->takesValue()
                  ? "option '" + Name + "' requires a value ('" + Name +
                        "=...')"
                  : "option '" + Name + "' takes no value";
        return false;
      }
      std::string Value =
          Eq == std::string::npos ? std::string() : Arg.substr(Eq + 1);
      std::string Detail;
      if (!S->Apply(Value, Detail)) {
        Err = "invalid value '" + Value + "' for '" + Name + "'" +
              (Detail.empty() ? "" : ": " + Detail);
        return false;
      }
    }
    return true;
  }

  /// True when the last parse() stopped at `--help`.
  bool helpRequested() const { return HelpRequested; }

  /// "usage: SYNOPSIS [--flag=N] [--switch] ... [--help]", wrapped at 79
  /// columns, newline-terminated.
  std::string usage() const {
    std::string Out = "usage: " + Synopsis;
    const size_t Indent = Out.size() + 1;
    size_t Col = Out.size();
    // Appends " [FORM]", wrapping under the first flag past column 79.
    auto Add = [&](const std::string &Form) {
      if (Col + Form.size() + 3 > 79) {
        Out.append("\n").append(Indent - 1, ' ');
        Col = Indent - 1;
      }
      Out.append(" [").append(Form).append("]");
      Col += Form.size() + 3;
    };
    for (const Spec &S : Specs)
      Add(S.form());
    Add("--help");
    return Out.append("\n");
  }

  /// usage() followed by one line per flag: its form and its help text.
  std::string help() const {
    const std::string HelpForm = "--help";
    size_t Width = HelpForm.size();
    for (const Spec &S : Specs)
      Width = std::max(Width, S.form().size());
    std::string Out = usage() + "\noptions:\n";
    auto Line = [&](const std::string &Form, const std::string &Help) {
      Out.append("  ").append(Form).append(Width + 2 - Form.size(), ' ');
      Out.append(Help).append("\n");
    };
    for (const Spec &S : Specs)
      Line(S.form(), S.Help);
    Line(HelpForm, "print this help and exit");
    return Out;
  }

private:
  struct Spec {
    std::string Name;
    std::string Help;
    std::string Value; ///< placeholder for the value; empty for a switch
    std::function<bool(const std::string &, std::string &)> Apply;

    bool takesValue() const { return !Value.empty(); }
    /// `--name=VALUE`, or `--name` for a switch.
    std::string form() const {
      return takesValue() ? Name + "=" + Value : Name;
    }
  };

  static bool parseU64(const std::string &Text, uint64_t &Out) {
    if (Text.empty() || Text[0] == '-')
      return false;
    char *End = nullptr;
    errno = 0;
    unsigned long long V = std::strtoull(Text.c_str(), &End, 10);
    if (errno != 0 || End != Text.c_str() + Text.size())
      return false;
    Out = static_cast<uint64_t>(V);
    return true;
  }

  const Spec *findSpec(const std::string &Name) const {
    for (const Spec &S : Specs)
      if (S.Name == Name)
        return &S;
    return nullptr;
  }

  std::string Synopsis;
  std::vector<Spec> Specs;
  std::vector<std::string> *Positionals = nullptr;
  bool HelpRequested = false;
};

} // namespace support
} // namespace optabs

#endif // OPTABS_SUPPORT_ARGS_H
