//===- support/StringUtils.h - Small string helpers -------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared by the frontend, the disassembler, the bench
/// table printers, and the JSON reports of the tools and the attack corpus.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_SUPPORT_STRINGUTILS_H
#define MCFI_SUPPORT_STRINGUTILS_H

#include <string>
#include <string_view>
#include <vector>

namespace mcfi {

/// Splits \p S on \p Sep, keeping empty fields.
std::vector<std::string> splitString(std::string_view S, char Sep);

/// Joins \p Parts with \p Sep.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Left-pads \p S with spaces to \p Width columns.
std::string padLeft(std::string S, size_t Width);

/// Right-pads \p S with spaces to \p Width columns.
std::string padRight(std::string S, size_t Width);

/// Escapes \p S for inclusion in a JSON string literal: quote, backslash
/// and the control characters (\n, \t, \r by name, the rest as \u00XX).
std::string jsonEscape(std::string_view S);

} // namespace mcfi

#endif // MCFI_SUPPORT_STRINGUTILS_H
