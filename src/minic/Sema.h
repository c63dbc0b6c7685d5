//===- minic/Sema.h - MiniC semantic analysis -------------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for MiniC: resolves names, type-checks every
/// expression, materializes every implicit conversion as a CastExpr
/// (mirroring how LLVM's IR makes all casts explicit, which is what lets
/// the paper's analyzer catch C1 violations "easily"), marks
/// address-taken functions, declares each runtime builtin the program
/// names (on the lookup that finds no declaration of that name), and
/// resolves __asm__ type annotations.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_MINIC_SEMA_H
#define MCFI_MINIC_SEMA_H

#include "minic/AST.h"

#include <string>
#include <vector>

namespace mcfi {
namespace minic {

/// Runs semantic analysis over \p Prog in place. Returns false (with
/// messages in \p Errors) if the program is ill-formed.
bool analyze(Program &Prog, std::vector<std::string> &Errors);

} // namespace minic
} // namespace mcfi

#endif // MCFI_MINIC_SEMA_H
