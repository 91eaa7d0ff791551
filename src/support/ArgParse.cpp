//===- support/ArgParse.cpp - Flags, subcommands, auto-usage -----------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <type_traits>

using namespace vega;

ArgParse::ArgParse(std::string Prog, std::string Overview)
    : Prog(std::move(Prog)), Overview(std::move(Overview)) {}

void ArgParse::addFlag(const std::string &Name, const std::string &Help) {
  Flags[Name] = FlagDecl{Help, "", ""};
  FlagOrder.push_back(Name);
}

void ArgParse::addOption(const std::string &Name, const std::string &ValueName,
                         const std::string &Help, std::string Default) {
  Flags[Name] = FlagDecl{Help, ValueName, std::move(Default)};
  FlagOrder.push_back(Name);
}

void ArgParse::addIntOption(const std::string &Name,
                            const std::string &ValueName,
                            const std::string &Help, std::string Default) {
  addOption(Name, ValueName, Help, std::move(Default));
  Flags[Name].Integer = true;
}

void ArgParse::addCommand(const std::string &Name, const std::string &ArgSpec,
                          const std::string &Help, size_t MinArgs,
                          size_t MaxArgs) {
  Commands[Name] = CommandDecl{ArgSpec, Help, MinArgs, MaxArgs,
                               CommandOrder.size()};
  CommandOrder.push_back(Name);
}

Status ArgParse::parse(int Argc, char **Argv) {
  std::vector<std::string> Args;
  for (int I = 1; I < Argc; ++I)
    Args.push_back(Argv[I]);
  return parse(Args);
}

Status ArgParse::parse(const std::vector<std::string> &Args) {
  Command.clear();
  Positionals.clear();
  Passthrough.clear();
  Values.clear();
  MultiValues.clear();

  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg.size() >= 2 && Arg[0] == '-' && Arg[1] == '-') {
      std::string Name = Arg.substr(2);
      std::string Value;
      bool HasValue = false;
      size_t Eq = Name.find('=');
      if (Eq != std::string::npos) {
        Value = Name.substr(Eq + 1);
        Name = Name.substr(0, Eq);
        HasValue = true;
      }
      auto It = Flags.find(Name);
      if (It == Flags.end()) {
        if (PassthroughUnknown) {
          Passthrough.push_back(Arg);
          continue;
        }
        return Status::invalidArgument("unknown flag '--" + Name + "'");
      }
      const FlagDecl &Decl = It->second;
      if (Decl.ValueName.empty()) {
        if (HasValue)
          return Status::invalidArgument("flag '--" + Name +
                                         "' takes no value");
        Values[Name] = "1";
        continue;
      }
      if (!HasValue) {
        // `--jobs 4` form: the value is the next argument.
        if (I + 1 >= Args.size())
          return Status::invalidArgument("flag '--" + Name +
                                         "' requires a value");
        Value = Args[++I];
      }
      if (Decl.Integer) {
        StatusOr<int> N = parseInt(Value, "--" + Name);
        if (!N.isOk())
          return N.status();
      }
      Values[Name] = Value;
      MultiValues[Name].push_back(Value);
      continue;
    }
    if (Command.empty() && !Commands.empty()) {
      auto It = Commands.find(Arg);
      if (It == Commands.end())
        return Status::invalidArgument("unknown command '" + Arg + "'");
      Command = Arg;
      continue;
    }
    Positionals.push_back(Arg);
  }

  if (!Commands.empty()) {
    if (Command.empty())
      return Status::invalidArgument("no command given");
    const CommandDecl &Decl = Commands.at(Command);
    if (Positionals.size() < Decl.MinArgs)
      return Status::invalidArgument("command '" + Command +
                                     "' needs at least " +
                                     std::to_string(Decl.MinArgs) +
                                     " argument(s)");
    if (Positionals.size() > Decl.MaxArgs)
      return Status::invalidArgument("command '" + Command +
                                     "' takes at most " +
                                     std::to_string(Decl.MaxArgs) +
                                     " argument(s)");
  }
  return Status::ok();
}

bool ArgParse::has(const std::string &Name) const {
  return Values.count(Name) != 0;
}

const std::string &ArgParse::get(const std::string &Name) const {
  auto It = Values.find(Name);
  if (It != Values.end())
    return It->second;
  static const std::string Empty;
  auto Decl = Flags.find(Name);
  return Decl != Flags.end() ? Decl->second.Default : Empty;
}

const std::vector<std::string> &
ArgParse::getAll(const std::string &Name) const {
  auto It = MultiValues.find(Name);
  if (It != MultiValues.end())
    return It->second;
  static const std::vector<std::string> Empty;
  return Empty;
}

int ArgParse::getInt(const std::string &Name, int Default) const {
  if (!has(Name))
    return Default;
  // parse() already rejected a malformed addIntOption value.
  StatusOr<int> N = parseInt(get(Name), "--" + Name);
  return N.isOk() ? *N : Default;
}

StatusOr<int> ArgParse::parseInt(const std::string &Text,
                                 const std::string &What) {
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(Text.c_str(), &End, 10);
  if (Text.empty() || End == Text.c_str() || *End != '\0')
    return Status::invalidArgument(What + " expects an integer, got '" +
                                   Text + "'");
  if (errno == ERANGE || N < INT_MIN || N > INT_MAX)
    return Status::invalidArgument(What + " is out of range: '" + Text + "'");
  return static_cast<int>(N);
}

template <typename T>
StatusOr<T> ArgParse::getNumber(const std::string &Name, T Default) const {
  if (!has(Name))
    return Default;
  return parseNumber<T>(get(Name), "--" + Name);
}

template <typename T>
StatusOr<T> ArgParse::parseNumber(const std::string &Text,
                                  const std::string &What) {
  static_assert(std::is_same_v<T, double> ||
                    std::is_same_v<T, unsigned long long>,
                "parseNumber parses double or unsigned long long");
  char *End = nullptr;
  errno = 0;
  T V;
  if constexpr (std::is_same_v<T, double>)
    V = std::strtod(Text.c_str(), &End);
  else
    V = std::strtoull(Text.c_str(), &End, 10);
  // strtoull negates a leading '-' into a huge value; refuse any sign.
  const bool Signed = !std::is_same_v<T, double> &&
                      Text.find_first_of("+-") != std::string::npos;
  if (Text.empty() || End == Text.c_str() || *End != '\0' || Signed)
    return Status::invalidArgument(What + " expects a number, got '" + Text +
                                   "'");
  if (errno == ERANGE)
    return Status::invalidArgument(What + " is out of range: '" + Text + "'");
  return V;
}

template StatusOr<double> ArgParse::getNumber(const std::string &,
                                              double) const;
template StatusOr<unsigned long long>
ArgParse::getNumber(const std::string &, unsigned long long) const;
template StatusOr<double> ArgParse::parseNumber(const std::string &,
                                                const std::string &);
template StatusOr<unsigned long long>
ArgParse::parseNumber(const std::string &, const std::string &);

std::string ArgParse::usage() const {
  std::string Out = Overview.empty() ? "" : Overview + "\n\n";
  Out += "usage: " + Prog;
  if (!FlagOrder.empty())
    Out += " [flags]";
  if (!Commands.empty())
    Out += " <command> [args]";
  Out += "\n";
  if (!FlagOrder.empty()) {
    Out += "\nflags:\n";
    for (const std::string &Name : FlagOrder) {
      const FlagDecl &Decl = Flags.at(Name);
      std::string Left = "  --" + Name;
      if (!Decl.ValueName.empty())
        Left += "=<" + Decl.ValueName + ">";
      Out += Left;
      if (Left.size() < 28)
        Out += std::string(28 - Left.size(), ' ');
      else
        Out += "  ";
      Out += Decl.Help;
      if (!Decl.Default.empty())
        Out += " (default: " + Decl.Default + ")";
      Out += "\n";
    }
  }
  if (!CommandOrder.empty()) {
    Out += "\ncommands:\n";
    for (const std::string &Name : CommandOrder) {
      const CommandDecl &Decl = Commands.at(Name);
      std::string Left = "  " + Name;
      if (!Decl.ArgSpec.empty())
        Left += " " + Decl.ArgSpec;
      Out += Left;
      if (Left.size() < 34)
        Out += std::string(34 - Left.size(), ' ');
      else
        Out += "  ";
      Out += Decl.Help + "\n";
    }
  }
  return Out;
}
