//===- tools/ToolCommon.h - Shared CLI plumbing -----------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef MCFI_TOOLS_TOOLCOMMON_H
#define MCFI_TOOLS_TOOLCOMMON_H

#include "support/StringUtils.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace mcfi {
namespace tools {

inline bool readFileBytes(const std::string &Path,
                          std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

inline bool readFileText(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

inline bool writeFileBytes(const std::string &Path,
                           const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  return Out.good();
}

[[noreturn]] inline void usage(const char *Msg) {
  std::fprintf(stderr, "%s\n", Msg);
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Embedded-module extraction (shared by mcfi-audit and mcfi-merge)
//===----------------------------------------------------------------------===//

/// One MiniC module recovered from a C++ example file.
struct ModuleSource {
  std::string Name;
  std::string Source;
};

/// Recovers a module name for the raw string starting at \p Pos in \p
/// Text: the nearest preceding quoted literal in the same statement
/// (compileTo("mathlib", R"(...)), else an identifier ending in
/// "Source" (const char *HostSource = R"(...)), else mod<N>.
inline std::string guessName(const std::string &Text, size_t Pos,
                             size_t Index) {
  size_t Start = Text.rfind(';', Pos);
  Start = Start == std::string::npos ? 0 : Start + 1;
  std::string Stmt = Text.substr(Start, Pos - Start);

  size_t Close = Stmt.rfind('"');
  if (Close != std::string::npos && Close > 0) {
    size_t Open = Stmt.rfind('"', Close - 1);
    if (Open != std::string::npos && Close > Open + 1)
      return Stmt.substr(Open + 1, Close - Open - 1);
  }

  size_t Src = Stmt.rfind("Source");
  if (Src != std::string::npos) {
    size_t B = Src;
    while (B > 0 && (std::isalnum(Stmt[B - 1]) || Stmt[B - 1] == '_'))
      --B;
    if (B < Src) {
      std::string Name = Stmt.substr(B, Src - B);
      for (char &C : Name)
        C = static_cast<char>(std::tolower(C));
      return Name;
    }
  }
  return "mod" + std::to_string(Index);
}

/// Pulls every R"( ... )" raw-string literal out of a C++ file.
inline std::vector<ModuleSource> extractModules(const std::string &Text) {
  std::vector<ModuleSource> Out;
  size_t Pos = 0;
  while ((Pos = Text.find("R\"(", Pos)) != std::string::npos) {
    size_t BodyStart = Pos + 3;
    size_t End = Text.find(")\"", BodyStart);
    if (End == std::string::npos)
      break;
    Out.push_back({guessName(Text, Pos, Out.size()),
                   Text.substr(BodyStart, End - BodyStart)});
    Pos = End + 2;
  }
  return Out;
}

/// Path basename without extension ("dir/a.mc" -> "a").
inline std::string baseName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base =
      Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  size_t Dot = Base.find_last_of('.');
  return Dot == std::string::npos ? Base : Base.substr(0, Dot);
}

} // namespace tools
} // namespace mcfi

#endif // MCFI_TOOLS_TOOLCOMMON_H
