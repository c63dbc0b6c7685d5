//===- support/StringUtils.cpp - Small string helpers --------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdio>

using namespace mcfi;

std::vector<std::string> mcfi::splitString(std::string_view S, char Sep) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  for (size_t I = 0, E = S.size(); I != E; ++I) {
    if (S[I] != Sep)
      continue;
    Parts.emplace_back(S.substr(Start, I - Start));
    Start = I + 1;
  }
  Parts.emplace_back(S.substr(Start));
  return Parts;
}

std::string mcfi::joinStrings(const std::vector<std::string> &Parts,
                              std::string_view Sep) {
  std::string Result;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string mcfi::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result(Needed > 0 ? static_cast<size_t>(Needed) : 0, '\0');
  if (Needed > 0)
    std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::string mcfi::padLeft(std::string S, size_t Width) {
  if (S.size() < Width)
    S.insert(S.begin(), Width - S.size(), ' ');
  return S;
}

std::string mcfi::padRight(std::string S, size_t Width) {
  if (S.size() < Width)
    S.append(Width - S.size(), ' ');
  return S;
}

std::string mcfi::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 8);
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
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}
