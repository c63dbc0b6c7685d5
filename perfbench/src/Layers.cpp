//===- perfbench/src/Layers.cpp - Calls into the MCFI layers --------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "cfg/CFGGen.h"
#include "minic/Parser.h"
#include "minic/Sema.h"
#include "mir/AsmGen.h"
#include "mir/MIR.h"
#include "module/Pending.h"
#include "rewriter/Rewriter.h"
#include "tables/ID.h"
#include "verifier/Verifier.h"

#include <cmath>

using namespace mcfi;
using namespace perfbench;

CompileResult perfbench::compile(const std::string &Source,
                                 const CompileOptions &Opts, Tally &Checks,
                                 LayerCounters &LC) {
  CompileResult CR;
  {
    MCFI_SPAN("toolchain.compile");
    CR = compileModule(Source, Opts);
  }
  Checks.check(CR.Ok, "compile failed: " + Opts.ModuleName);
  if (!CR.Ok)
    return CR;
  ++LC.CompiledModules;
  LC.CheckSites += CR.Obj.Aux.BranchSites.size();
  LC.CodeBytes += CR.Obj.Code.size();
  if (!tracer().On)
    return CR;

  std::vector<std::string> Errors;
  std::unique_ptr<minic::Program> Prog;
  {
    MCFI_SPAN("minic.parse");
    Prog = minic::parseProgram(Source, Errors);
  }
  bool Ok = Prog != nullptr;
  if (Ok) {
    MCFI_SPAN("minic.sema");
    Ok = minic::analyze(*Prog, Errors);
  }
  mir::MirModule MIR;
  if (Ok) {
    MCFI_SPAN("mir.lower");
    mir::LowerOptions LO;
    LO.TailCalls = Opts.TailCalls;
    Ok = mir::lowerToMIR(*Prog, Opts.ModuleName, LO, MIR, Errors);
  }
  MCFIObject Obj;
  if (Ok) {
    PendingModule PM;
    {
      MCFI_SPAN("mir.asmgen");
      PM = mir::generateAsm(MIR);
    }
    if (Opts.Instrument) {
      MCFI_SPAN("rewriter.instrument");
      RewriteOptions RO;
      RO.AlignTargetsByMasking = Opts.MaskAlignTargets;
      RO.Optimize = Opts.Optimize;
      instrumentModule(PM, RO);
      if (Opts.EmitPlt)
        addPltEntries(PM, RO);
    }
    MCFI_SPAN("module.finalize");
    Obj = finalizeObject(std::move(PM));
  }
  Checks.check(Ok && Obj.Code == CR.Obj.Code &&
                   Obj.Relocs.size() == CR.Obj.Relocs.size() &&
                   Obj.Aux.BranchSites.size() == CR.Obj.Aux.BranchSites.size(),
               "frontend stage replay differs from compileModule: " +
                   Opts.ModuleName);
  return CR;
}

std::unique_ptr<Machine> perfbench::newMachine() {
  MCFI_SPAN("runtime.machine_init");
  return std::make_unique<Machine>();
}

LinkOptions perfbench::baselineLinkOptions() {
  LinkOptions LO;
  LO.Verify = false;
  LO.InstallPolicy = false;
  LO.InstrumentBootstrap = false;
  return LO;
}

bool perfbench::link(Linker &L, std::vector<MCFIObject> Objects,
                     std::string &Error) {
  MCFI_SPAN("linker.link");
  return L.linkProgram(std::move(Objects), Error);
}

RunResult perfbench::runProbe(Machine &M, uint64_t Entry, uint64_t Stack,
                              uint64_t Fuel) {
  MCFI_SPAN("runtime.first_exec");
  Thread T;
  T.PC = Entry;
  T.Regs[visa::RegSP] = Stack;
  return M.run(T, Fuel);
}

void perfbench::auditPolicy(Linker &L, Machine &M, Tally &Checks,
                            LayerCounters &LC) {
  if (!tracer().On)
    return;
  // A reclaim applied from a guest thread's quiescence point may mutate
  // the module list; hold it off while the views are read.
  auto Guard = M.lockReclaimApply();
  std::vector<LoadedModuleView> Views;
  uint64_t Live = 0;
  for (const MappedModule &Mod : M.modules()) {
    if (Mod.Retired) {
      Views.push_back({nullptr, Mod.CodeBase, Mod.TombstoneSites});
    } else {
      Views.push_back({Mod.Obj.get(), Mod.CodeBase, 0});
      ++Live;
    }
  }
  CFGPolicy P;
  {
    MCFI_SPAN("cfg.generate");
    P = generateCFG(Views);
  }
  const CFGPolicy &Q = L.policy();
  Checks.check(P.TargetECN == Q.TargetECN && P.BranchECN == Q.BranchECN &&
                   P.BranchClassSize == Q.BranchClassSize &&
                   P.SiteIndexBase == Q.SiteIndexBase &&
                   P.SetjmpRetSites == Q.SetjmpRetSites &&
                   P.NumIBs == Q.NumIBs && P.NumIBTs == Q.NumIBTs &&
                   P.NumEQCs == Q.NumEQCs,
               "replayed generateCFG differs from Linker::policy()");
  ++LC.PolicyReplays;
  LC.LiveModulesSum += Live;
  LC.IbtsSum += P.NumIBTs;
  LC.EqcsSum += P.NumEQCs;

  MCFI_SPAN("tables.readback");
  const IDTables &T = M.tables();
  bool Ok = true;
  for (const auto &[Addr, ECN] : Q.TargetECN) {
    uint32_t ID = T.taryRead(Addr - Machine::CodeBase);
    Ok &= isValidID(ID) && idECN(ID) == ECN;
  }
  for (size_t I = 0; I != Q.BranchECN.size(); ++I) {
    uint32_t ID = T.baryRead(static_cast<uint32_t>(I));
    int64_t E = Q.BranchECN[I];
    Ok &= E < 0 ? ID == 0
                : isValidID(ID) && idECN(ID) == static_cast<uint32_t>(E);
  }
  Checks.check(Ok, "installed ID tables do not encode Linker::policy()");
}

void perfbench::replayVerify(Machine &M, size_t First, size_t Last,
                             Tally &Checks, LayerCounters &LC) {
  if (!tracer().On)
    return;
  auto Guard = M.lockReclaimApply(); // see auditPolicy
  for (size_t I = First; I != Last; ++I) {
    const MappedModule &Mod = M.modules()[I];
    const uint8_t *Code = M.codePtr(Mod.CodeBase, Mod.Obj->Code.size());
    VerifyResult VR;
    {
      MCFI_SPAN("verifier.verify");
      VR = verifyModule(Code, Mod.Obj->Code.size(), *Mod.Obj);
    }
    Checks.check(VR.Ok, "loaded module fails verification: " + Mod.Obj->Name);
    LC.VerifiedBytes += Mod.Obj->Code.size();
    LC.SemanticModules += VR.DecidedBy == VerifyTier::Semantic;
  }
}

LinkerMark perfbench::markLinker(const Linker &L, const Machine &M) {
  LinkerMark K;
  K.Updates = L.updateHistory().size();
  K.Batches = L.batchHistory().size();
  K.Unloads = L.unloadHistory().size();
  K.Versioned = M.tables().versionedUpdateCount();
  K.SlowRetries = M.tables().slowRetryCount();
  K.Vm = M.vmStats();
  return K;
}

void perfbench::collectLinker(const Linker &L, const Machine &M,
                              const LinkerMark &Since, LayerCounters &LC) {
  const std::vector<TxUpdateStats> &H = L.updateHistory();
  for (size_t I = Since.Updates; I < H.size(); ++I) {
    LC.IncrementalInstalls += H[I].Incremental;
    LC.EntriesTouched += H[I].entriesTouched();
    LC.InstallMicros.add(H[I].Micros);
  }
  LC.VersionedUpdates += M.tables().versionedUpdateCount() - Since.Versioned;
  LC.SlowRetries += M.tables().slowRetryCount() - Since.SlowRetries;
  LC.HistoryEntries = std::max<uint64_t>(
      LC.HistoryEntries, H.size() + L.batchHistory().size() +
                             L.unloadHistory().size());
  for (size_t I = Since.Batches; I < L.batchHistory().size(); ++I)
    LC.MergeMicros.add(L.batchHistory()[I].MergeMicros);
  for (size_t I = Since.Unloads; I < L.unloadHistory().size(); ++I) {
    LC.UnloadMergeMicros.add(L.unloadHistory()[I].MergeMicros);
    LC.RetireMicros.add(L.unloadHistory()[I].RetireMicros);
  }
  addVm(LC.Vm, diffVm(M.vmStats(), Since.Vm));
}

void perfbench::reportDynamicLinking(const LayerCounters &LC, Report &R) {
  R.set("linker.dlopen_us", tracer().durations("linker.dlopen").median(),
        "us");
  R.set("linker.merge_us", LC.MergeMicros.median(), "us");
  R.set("linker.dlclose_us", tracer().durations("linker.dlclose").median(),
        "us");
  R.set("linker.unload_merge_us", LC.UnloadMergeMicros.median(), "us");
  R.set("linker.retire_us", LC.RetireMicros.median(), "us");
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

void perfbench::reportLayers(const LayerCounters &LC, double TraceOverheadPct,
                             Report &R) {
  const Tracer &T = tracer();
  auto Per = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  auto Med = [&](const char *Span) { return T.durations(Span).median(); };

  R.set("minic.parse_us", Med("minic.parse"), "us");
  R.set("minic.sema_us", Med("minic.sema"), "us");
  R.set("mir.lower_us", Med("mir.lower"), "us");
  R.set("mir.asmgen_us", Med("mir.asmgen"), "us");
  R.set("rewriter.instrument_us", Med("rewriter.instrument"), "us");
  R.set("module.finalize_us", Med("module.finalize"), "us");
  double Modules = static_cast<double>(LC.CompiledModules);
  R.set("rewriter.check_sites", Per(double(LC.CheckSites), Modules),
        "count");
  R.set("module.code_bytes", Per(double(LC.CodeBytes), Modules), "B");

  double Ops = static_cast<double>(LC.Ops);
  const VMTierStats &V = LC.Vm;
  double Retired = double(V.InterpInstrs + V.ThreadedInstrs + V.TraceInstrs);
  R.set("runtime.machine_init_ms", Med("runtime.machine_init") / 1e3, "ms");
  R.set("runtime.first_exec_us", Med("runtime.first_exec"), "us");
  R.set("runtime.segments_built", Per(double(V.SegmentsBuilt), Ops), "1/load");
  R.set("runtime.traces_invalidated", Per(double(V.TracesInvalidated), Ops),
        "1/load");
  R.set("runtime.traces_compiled", Per(double(V.TracesCompiled), Ops),
        "1/load");
  R.set("runtime.ns_per_instr",
        Per(LC.GuestSeconds * 1e9, double(LC.GuestInstrs)), "ns");
  R.set("runtime.fused_checks", Per(double(V.FusedChecks) * 1e3, Retired),
        "1/kinstr");
  R.set("runtime.trace_instr_ratio", Per(double(V.TraceInstrs), Retired),
        "ratio");

  R.set("linker.link_ms", Med("linker.link") / 1e3, "ms");
  R.set("linker.install_us", LC.InstallMicros.median(), "us");
  R.set("linker.incremental_ratio",
        Per(double(LC.IncrementalInstalls), double(LC.InstallMicros.size())),
        "ratio");
  R.set("linker.history_entries", double(LC.HistoryEntries), "count");
  R.set("linker.dlopen_flatness", LC.DlopenFlatness, "x");

  double Replays = static_cast<double>(LC.PolicyReplays);
  R.set("cfg.generate_us", Med("cfg.generate"), "us");
  R.set("cfg.live_modules", Per(double(LC.LiveModulesSum), Replays), "count");
  R.set("cfg.ibts", Per(double(LC.IbtsSum), Replays), "count");
  R.set("cfg.eqcs", Per(double(LC.EqcsSum), Replays), "count");

  R.set("tables.readback_us", Med("tables.readback"), "us");
  R.set("tables.entries_touched",
        Per(double(LC.EntriesTouched), double(LC.InstallMicros.size())),
        "count");
  R.set("tables.versioned_updates", Per(double(LC.VersionedUpdates), Ops),
        "1/load");
  R.set("tables.slow_retries", double(LC.SlowRetries), "count");

  Samples Verify = T.durations("verifier.verify");
  R.set("verifier.verify_us", Verify.median(), "us");
  R.set("verifier.mb_per_s", Per(double(LC.VerifiedBytes), Verify.sum()),
        "MB/s");
  R.set("verifier.semantic_modules", double(LC.SemanticModules), "count");

  R.set("reclaim.pending_max", double(LC.ReclaimPendingMax), "count");
  R.set("reclaim.reclaimed", double(LC.Reclaimed), "count");
  R.set("trace.overhead_pct", TraceOverheadPct, "%");
}
