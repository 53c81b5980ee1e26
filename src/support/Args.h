//===- Args.h - Small shared command-line parser ---------------*- C++ -*-===//
//
// Part of the optabs project, a reproduction of "Finding Optimum
// Abstractions in Parametric Dataflow Analysis" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A declarative `--flag=VALUE` parser shared by optabs-cli and
/// optabs-serve, replacing the per-flag substr checks each tool used to
/// hand-roll. Flags are registered with a typed destination (or a custom
/// callback); parse() walks argv once, filling destinations, collecting
/// positionals, and failing with a structured message on an unknown flag
/// or a malformed value (the old std::stoul calls threw raw exceptions on
/// junk like `--k=banana`).
///
///   support::ArgParser Args;
///   Args.option("--k", &Opts.K, "dropk beam width");
///   Args.flag("--audit", &Opts.Audit, "certificate-check every verdict");
///   std::string Err;
///   if (!Args.parse(Argc, Argv, Err)) { ... Err names flag and value ... }
///
//===----------------------------------------------------------------------===//

#ifndef OPTABS_SUPPORT_ARGS_H
#define OPTABS_SUPPORT_ARGS_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace optabs {
namespace support {

/// Parses \p Text fully as a decimal unsigned integer no larger than
/// \p Max; false on any junk (signs included) and on values above \p Max.
/// The one unsigned parser behind command-line flags and OPTABS_*
/// environment overrides.
inline bool parseU64(const std::string &Text, uint64_t &Out,
                     uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  if (Text.empty() || Text[0] == '-')
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text.c_str(), &End, 10);
  if (errno != 0 || End != Text.c_str() + Text.size() || V > Max)
    return false;
  Out = static_cast<uint64_t>(V);
  return true;
}

class ArgParser {
public:
  /// A boolean switch: `--name` (no value).
  ArgParser &flag(const char *Name, bool *Out, const char *Help = "") {
    Specs.push_back({Name, Help, /*TakesValue=*/false,
                     [Out](const std::string &, std::string &) {
                       *Out = true;
                       return true;
                     }});
    return *this;
  }

  /// `--name=VALUE` into a string; any text accepted.
  ArgParser &option(const char *Name, std::string *Out,
                    const char *Help = "") {
    Specs.push_back({Name, Help, /*TakesValue=*/true,
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
    Specs.push_back({Name, Help, /*TakesValue=*/true,
                     [Out](const std::string &V, std::string &Err) {
                       uint64_t N;
                       if (!parseU64(V, N,
                                     std::numeric_limits<UIntT>::max())) {
                         Err = "expected an unsigned integer no larger "
                               "than " +
                               std::to_string(
                                   std::numeric_limits<UIntT>::max());
                         return false;
                       }
                       *Out = static_cast<UIntT>(N);
                       return true;
                     }});
    return *this;
  }

  /// `--name=X.Y` into a double.
  ArgParser &option(const char *Name, double *Out, const char *Help = "") {
    Specs.push_back({Name, Help, /*TakesValue=*/true,
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
    Specs.push_back({Name, Help, /*TakesValue=*/true, std::move(Fn)});
    return *this;
  }

  /// Non-flag arguments are appended here, in order.
  ArgParser &positional(std::vector<std::string> *Out) {
    Positionals = Out;
    return *this;
  }

  /// Parses argv[1..]; on failure \p Err describes the offending flag or
  /// value and the destinations already parsed keep their values.
  bool parse(int Argc, char **Argv, std::string &Err) const {
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
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
      if (S->TakesValue != (Eq != std::string::npos)) {
        Err = S->TakesValue
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

private:
  struct Spec {
    std::string Name;
    std::string Help;
    bool TakesValue;
    std::function<bool(const std::string &, std::string &)> Apply;
  };

  const Spec *findSpec(const std::string &Name) const {
    for (const Spec &S : Specs)
      if (S.Name == Name)
        return &S;
    return nullptr;
  }

  std::vector<Spec> Specs;
  std::vector<std::string> *Positionals = nullptr;
};

} // namespace support
} // namespace optabs

#endif // OPTABS_SUPPORT_ARGS_H
