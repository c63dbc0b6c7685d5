//===- toolchain/Toolchain.cpp - The MCFI compilation toolchain -----------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "toolchain/Toolchain.h"

#include "mir/AsmGen.h"
#include "mir/MIR.h"
#include "minic/Parser.h"
#include "minic/Sema.h"
#include "module/Pending.h"
#include "rewriter/Rewriter.h"

using namespace mcfi;

CompileResult mcfi::compileModule(const std::string &Source,
                                  const CompileOptions &Opts) {
  CompileResult Result;
  if (Opts.Optimize) {
    Result.Errors.push_back("CompileOptions::Optimize is not supported");
    return Result;
  }

  Result.Prog = minic::parseProgram(Source, Result.Errors);
  if (!Result.Prog)
    return Result;

  if (!minic::analyze(*Result.Prog, Result.Errors))
    return Result;

  mir::LowerOptions LowerOpts;
  LowerOpts.TailCalls = Opts.TailCalls;
  mir::MirModule MIR;
  if (!mir::lowerToMIR(*Result.Prog, Opts.ModuleName, LowerOpts, MIR,
                       Result.Errors))
    return Result;

  PendingModule PM = mir::generateAsm(MIR);
  if (Opts.Instrument) {
    RewriteOptions RO;
    RO.AlignTargetsByMasking = Opts.MaskAlignTargets;
    instrumentModule(PM, RO);
    if (Opts.EmitPlt)
      addPltEntries(PM, RO);
  }

  Result.Obj = finalizeObject(std::move(PM));
  Result.Ok = true;
  return Result;
}

RunResult mcfi::runProgram(Machine &M, uint64_t Fuel) {
  Thread T;
  if (!M.makeThread("_start", T)) {
    RunResult R;
    R.Reason = StopReason::Trap;
    R.Message = "no _start symbol: did linkProgram succeed?";
    return R;
  }
  return M.run(T, Fuel);
}
