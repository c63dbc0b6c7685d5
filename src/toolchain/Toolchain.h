//===- toolchain/Toolchain.h - The MCFI compilation toolchain ---*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public driver API — the equivalent of the paper's toolchain
/// (Sec. 7): compile a MiniC translation unit into a separately
/// instrumented MCFI module, link modules into a Machine, and run the
/// result. This is the API the examples and benchmarks use.
///
/// Typical use:
/// \code
///   auto Main = mcfi::compileModule(Source, {.ModuleName = "main"});
///   auto Lib  = mcfi::compileModule(LibSrc, {.ModuleName = "lib"});
///   mcfi::Machine M;
///   mcfi::Linker L(M);
///   std::string Err;
///   L.linkProgram({std::move(Main.Obj), std::move(Lib.Obj)}, Err);
///   mcfi::RunResult R = mcfi::runProgram(M);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_TOOLCHAIN_TOOLCHAIN_H
#define MCFI_TOOLCHAIN_TOOLCHAIN_H

#include "linker/Linker.h"
#include "minic/AST.h"
#include "module/MCFIObject.h"
#include "runtime/Machine.h"

#include <memory>
#include <string>
#include <vector>

namespace mcfi {

struct CompileOptions {
  std::string ModuleName = "module";
  /// Apply the MCFI rewriter. Off = the unprotected baseline used by the
  /// overhead experiments.
  bool Instrument = true;
  /// Synthesize instrumented PLT entries and GOT slots for imports
  /// (needed when the module's imports will be resolved by dlopen).
  bool EmitPlt = false;
  /// Tail-call optimization ("x86-64 mode" of Table 3).
  bool TailCalls = true;
  /// Footnote-1 ablation: align targets with an extra and instead of
  /// relying on reserved-bit validation.
  bool MaskAlignTargets = false;
  /// Kept only so that perfbench/ compiles: compileModule refuses true.
  /// The next benchmark change deletes it together with
  /// verifier.semantic_modules.
  bool Optimize = false;
};

struct CompileResult {
  bool Ok = false;
  MCFIObject Obj;
  std::vector<std::string> Errors;
  /// The type-checked AST, kept alive for the C1/C2 analyzer.
  std::unique_ptr<minic::Program> Prog;
};

/// Compiles one MiniC translation unit into an MCFI module.
CompileResult compileModule(const std::string &Source,
                            const CompileOptions &Opts = CompileOptions());

/// Convenience: creates the "_start" thread and runs it to completion.
/// Output printed by the guest is in Machine::takeOutput().
RunResult runProgram(Machine &M, uint64_t Fuel = ~0ull);

} // namespace mcfi

#endif // MCFI_TOOLCHAIN_TOOLCHAIN_H
