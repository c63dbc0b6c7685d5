//===- linker/Linker.cpp - MCFI static and dynamic linking ----------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "linker/Linker.h"

#include "cfg/ModuleSigs.h"
#include "ctypes/SigIntern.h"
#include "module/Pending.h"
#include "rewriter/Rewriter.h"
#include "support/Assert.h"
#include "support/StringUtils.h"
#include "verifier/Verifier.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <unordered_set>

using namespace mcfi;
using namespace mcfi::visa;

Linker::Linker(Machine &M, LinkOptions Opts)
    : M(M), Opts(Opts), Merge(Opts.Refinement) {}

namespace {

/// Disassembles the mapped (relocated, patched) bytes of \p Mod into
/// \p Dis and verifies that disassembly; on success the caller seals
/// the module with it.
VerifyResult verifyMapped(const Machine &M, const MappedModule &Mod,
                          Disassembly &Dis) {
  size_t Size = Mod.Obj->Code.size();
  const uint8_t *Code = M.codePtr(Mod.CodeBase, Size);
  Dis = disassembleModule(Code, Size, *Mod.Obj, Mod.CodeBase);
  return verifyModule(Code, Size, *Mod.Obj, Dis);
}

/// Appends \p Entry to one of the linker's histories: append-only logs
/// that gain an entry or two per link operation for the linker's whole
/// life. Left to double, a history of megabytes would be copied inside
/// one unlucky dlopen or dlclose, with both buffers resident meanwhile,
/// so peak memory would jump whenever the operation count passed a power
/// of two. Once past its first pages, a history's capacity jumps to
/// HistoryReserve entries instead: one allocation whose pages the kernel
/// backs only as entries are written, so memory grows by the entries
/// alone for the next million of them.
template <typename T> void appendHistory(std::vector<T> &History, T Entry) {
  constexpr size_t SmallHistory = size_t(1) << 12;
  constexpr size_t HistoryReserve = size_t(1) << 20;
  if (History.size() == History.capacity() && History.size() >= SmallHistory)
    History.reserve(std::max(HistoryReserve, 2 * History.size()));
  History.push_back(std::move(Entry));
}

} // namespace

//===----------------------------------------------------------------------===//
// Bootstrap module
//===----------------------------------------------------------------------===//

MCFIObject Linker::makeBootstrap() {
  PendingModule PM;
  PM.Name = "bootstrap";

  auto mk = [](Opcode Op) {
    Instr I;
    I.Op = Op;
    return I;
  };

  // _start: call main; exit(r0).
  {
    AsmFunction Fn;
    Fn.Name = "_start";
    AsmItem Call = AsmItem::instr(mk(Opcode::Call));
    Call.Reloc = RelocKind::CallSym;
    Call.Symbol = "main";
    SiteMeta Meta;
    Meta.K = SiteMeta::Kind::DirectCall;
    Meta.Callee = "main";
    PM.Meta.push_back(Meta);
    Call.Meta = 0;
    Fn.Items.push_back(Call);
    {
      Instr I = mk(Opcode::Mov);
      I.Rd = RegArg0;
      I.Ra = RegRet;
      Fn.Items.push_back(AsmItem::instr(I));
    }
    {
      Instr I = mk(Opcode::Syscall);
      I.Imm = static_cast<uint64_t>(SyscallNo::Exit);
      Fn.Items.push_back(AsmItem::instr(I));
    }
    FunctionInfo Info;
    Info.Name = "_start";
    Info.TypeSig = "()->v";
    Info.PrettyType = "void()";
    PM.FunctionInfos.push_back(Info);
    PM.Functions.push_back(std::move(Fn));
  }

  // sig$return: the sigreturn trampoline signal handlers return to.
  {
    AsmFunction Fn;
    Fn.Name = "sig$return";
    Instr I = mk(Opcode::Syscall);
    I.Imm = static_cast<uint64_t>(SyscallNo::SigReturn);
    Fn.Items.push_back(AsmItem::instr(I));
    FunctionInfo Info;
    Info.Name = "sig$return";
    Info.TypeSig = "()->v";
    Info.PrettyType = "void()";
    PM.FunctionInfos.push_back(Info);
    PM.Functions.push_back(std::move(Fn));
  }

  if (Opts.InstrumentBootstrap)
    instrumentModule(PM);
  return finalizeObject(std::move(PM));
}

//===----------------------------------------------------------------------===//
// Relocation
//===----------------------------------------------------------------------===//

bool Linker::resolveModule(int Index, std::string &Error) {
  MappedModule &Mod = M.module(Index);
  const MCFIObject &Obj = *Mod.Obj;

  auto findLocalData = [&](const std::string &Sym) -> uint64_t {
    auto It = Obj.DataSymbols.find(Sym);
    return It == Obj.DataSymbols.end() ? 0 : Mod.DataBase + It->second;
  };

  // An in-memory object never went through readObject: refuse, before
  // anything is patched, a relocation that would write past the module
  // (onto a neighbour a free-list hole may have placed right after it).
  for (const RelocEntry &R : Obj.Relocs) {
    if (!relocationFits(R, Obj)) {
      Error = formatString("relocation at offset %llu outside the module",
                           static_cast<unsigned long long>(R.Offset));
      return false;
    }
  }

  for (const RelocEntry &R : Obj.Relocs) {
    switch (R.Kind) {
    case RelocKind::None:
      break;
    case RelocKind::FuncAddr64: {
      uint64_t Addr = M.findFunction(R.Symbol);
      if (!Addr) {
        Error = "unresolved function address: " + R.Symbol;
        return false;
      }
      M.patchCode64(Index, Mod.CodeBase + R.Offset, Addr);
      break;
    }
    case RelocKind::GlobalAddr64:
    case RelocKind::GotSlot64: {
      uint64_t Addr = findLocalData(R.Symbol);
      if (!Addr) {
        Error = "unresolved data symbol: " + R.Symbol;
        return false;
      }
      M.patchCode64(Index, Mod.CodeBase + R.Offset, Addr);
      break;
    }
    case RelocKind::CallSym: {
      // Direct call. An import of this module binds to its own PLT entry
      // (dynamic binding through the GOT even if some module already
      // defines it — keeps lazy library replacement possible); anything
      // else to the definition if loaded, else to a PLT entry.
      uint64_t Target = 0;
      if (std::find(Obj.Imports.begin(), Obj.Imports.end(), R.Symbol) !=
          Obj.Imports.end())
        Target = M.dlsymLookup(Index, "plt$" + R.Symbol);
      if (!Target)
        Target = M.findFunction(R.Symbol);
      if (!Target)
        Target = M.findFunction("plt$" + R.Symbol);
      if (!Target) {
        Error = "unresolved call target: " + R.Symbol;
        return false;
      }
      uint64_t InstrStart = Mod.CodeBase + R.Offset - 1;
      int64_t Rel = static_cast<int64_t>(Target) -
                    static_cast<int64_t>(InstrStart + 5);
      M.patchCode32(Index, Mod.CodeBase + R.Offset,
                    static_cast<uint32_t>(static_cast<int32_t>(Rel)));
      break;
    }
    case RelocKind::JumpTable64:
    case RelocKind::CodeAddr64:
      // Module-relative code offset -> absolute address.
      M.patchCode64(Index, Mod.CodeBase + R.Offset, Mod.CodeBase + R.Addend);
      break;
    case RelocKind::BaryIndex32:
      // Patched at CFG-install time (patchBaryIndexes).
      break;
    case RelocKind::DataFuncAddr64: {
      uint64_t Addr = M.findFunction(R.Symbol);
      if (!Addr) {
        Error = "unresolved function address in data: " + R.Symbol;
        return false;
      }
      uint8_t Bytes[8];
      for (unsigned B = 0; B != 8; ++B)
        Bytes[B] = static_cast<uint8_t>(Addr >> (8 * B));
      M.writeDataBytes(Mod.DataBase + R.Offset, Bytes, 8);
      break;
    }
    case RelocKind::DataGlobalAddr64: {
      uint64_t Addr = findLocalData(R.Symbol);
      if (!Addr) {
        Error = "unresolved data symbol in data: " + R.Symbol;
        return false;
      }
      uint8_t Bytes[8];
      for (unsigned B = 0; B != 8; ++B)
        Bytes[B] = static_cast<uint8_t>(Addr >> (8 * B));
      M.writeDataBytes(Mod.DataBase + R.Offset, Bytes, 8);
      break;
    }
    }
  }
  return true;
}

void Linker::patchBaryIndexes(const CFGPolicy &NewPolicy,
                              const std::vector<int> &Indexes) {
  for (int Idx : Indexes) {
    const MappedModule &Mod = M.modules()[static_cast<size_t>(Idx)];
    uint32_t Base = NewPolicy.SiteIndexBase[static_cast<size_t>(Idx)];
    for (const RelocEntry &R : Mod.Obj->Relocs)
      if (R.Kind == RelocKind::BaryIndex32)
        M.patchCode32(Idx, Mod.CodeBase + R.Offset, Base + R.SiteId);
  }
}

void Linker::updateGotEntries(TxUpdateStats &Counts) {
  // Fill every live module's GOT slots with the current definitions.
  // Runs between the phases of installing AND retiring transactions. A
  // dead module's GOT is unreachable, so only the live list is walked.
  Counts.GotModules = static_cast<uint16_t>(
      std::min<size_t>(Live.size(), std::numeric_limits<uint16_t>::max()));
  Counts.GotSlots = 0;
  for (int Idx : Live) {
    const MappedModule &Mod = M.modules()[static_cast<size_t>(Idx)];
    for (const std::string &Imp : Mod.Obj->Imports) {
      auto It = Mod.Obj->DataSymbols.find("got$" + Imp);
      if (It == Mod.Obj->DataSymbols.end())
        continue;
      // findFunction skips retired modules, so an import whose
      // definition was dlclosed resolves to 0 — and the slot must be
      // actively zeroed, not skipped: a stale pre-unload address here
      // would let the PLT replay a transfer into retired (or reused)
      // code. A zero slot fails closed at the PLT's check.
      uint64_t Addr = M.findFunction(Imp);
      uint8_t Bytes[8];
      for (unsigned B = 0; B != 8; ++B)
        Bytes[B] = static_cast<uint8_t>(Addr >> (8 * B));
      M.writeDataBytes(Mod.DataBase + It->second, Bytes, 8);
      ++Counts.GotSlots;
    }
  }
}

uint32_t Linker::syncMerge(size_t From) {
  // Views below From are the ones Merge folded, unless a failed batch
  // forgot its members' folds (Merge is then shorter) or a tail-trim
  // popped trailing tombstones (the machine is then shorter).
  const std::vector<MappedModule> &Mods = M.modules();
  From = std::min({From, Merge.views().size(), Mods.size()});
  Merge.truncate(From);
  for (size_t I = From; I != Mods.size(); ++I) {
    const MappedModule &Mod = Mods[I];
    if (Mod.Retired)
      Merge.append({nullptr, Mod.CodeBase, Mod.TombstoneSites});
    else
      Merge.append({Mod.Obj.get(), Mod.CodeBase, 0, MappedSigs[I]});
  }
  return static_cast<uint32_t>(Mods.size() - From);
}

Linker::Registered Linker::intern(MCFIObject Obj) {
  auto Shared = std::make_shared<const MCFIObject>(std::move(Obj));
  std::shared_ptr<const ModuleSigs> Sigs = internModuleSigs(*Shared);
  return {std::move(Shared), std::move(Sigs)};
}

int Linker::mapRegistered(const Registered &R, std::string &Error) {
  int Idx = M.mapModule(R.Obj);
  if (Idx < 0) {
    Error = Idx == Machine::MapBadDataInit
                ? "module '" + R.Obj->Name +
                      "' initializes data outside its globals"
                : "machine region exhausted while mapping module '" +
                      R.Obj->Name + "'";
    return -1;
  }
  if (MappedSigs.size() <= static_cast<size_t>(Idx))
    MappedSigs.resize(static_cast<size_t>(Idx) + 1);
  MappedSigs[static_cast<size_t>(Idx)] = R.Sigs;
  return Idx;
}

namespace {

/// Adjacent new IBTs cluster (a loaded module's entries are contiguous),
/// so nearby dirty offsets are coalesced into one range. Re-encoding an
/// unchanged entry at the same version is idempotent, which is what makes
/// covering small gaps safe; the tolerance just trades a few redundant
/// stores for fewer ranges.
constexpr uint64_t CoalesceGapBytes = 128;

} // namespace

InstallDelta mcfi::computeInstallDelta(const CFGPolicy &Installed,
                                       const CFGPolicy &Next,
                                       uint64_t InstalledTaryBytes,
                                       uint32_t InstalledBaryCount,
                                       uint64_t CodeBytes) {
  // Both extents stay at their high-water marks. A reclaimer tail-trim
  // lowers codeTop and pops trailing tombstones' site slots, but the
  // Tary words and Bary entries above the trimmed top were zeroed by the
  // retire transaction, and a module reusing them is mapped only after
  // the grace period (docs/INTERNALS.md §16). Shrinking the extents
  // instead would force the next dlopen onto the full, version-bumping
  // install.
  InstallDelta D;
  D.TaryLimitBytes = std::max(CodeBytes, InstalledTaryBytes);
  D.BaryCount = std::max(static_cast<uint32_t>(Next.BranchECN.size()),
                         InstalledBaryCount);
  auto FullRebuild = [&D](const char *Why) {
    D.Reason = Why;
    D.TaryDirtyOffsets.clear();
    D.BaryDirty.clear();
    return D;
  };
  if (InstalledTaryBytes == 0 && InstalledBaryCount == 0)
    return FullRebuild("first install");

  // Every installed IBT must survive with the same ECN; a removed or
  // renumbered target means some live Tary entry changes value. Both
  // tables ascend by address, so one merge walk checks that and collects
  // the new targets' offsets, already sorted.
  auto NextIt = Next.TargetECN.begin(), NextEnd = Next.TargetECN.end();
  for (const auto &[Addr, ECN] : Installed.TargetECN) {
    for (; NextIt != NextEnd && NextIt->first < Addr; ++NextIt)
      D.TaryDirtyOffsets.push_back(NextIt->first - Machine::CodeBase);
    if (NextIt == NextEnd || NextIt->first != Addr)
      return FullRebuild("installed target removed");
    if (NextIt->second != ECN)
      return FullRebuild("installed target changed class");
    ++NextIt;
  }
  for (; NextIt != NextEnd; ++NextIt)
    D.TaryDirtyOffsets.push_back(NextIt->first - Machine::CodeBase);

  // Every installed Bary site must keep its exact value. This covers the
  // resolved-import case: a PLT site going Empty -> real class is a value
  // change at a live index, and rewriting it without a version bump opens
  // a window (between the GOT hook and the site's store) where guests
  // would spuriously halt. A site holding no ID (-1) is not installed:
  // its entry is zero, left by a retire whose module has since been
  // reclaimed and its slot trimmed, so giving it an ID is an extension.
  // Nearly every site holds the same value in both policies, so one tight
  // scan skips the common prefix first.
  const std::vector<int64_t> &OldSites = Installed.BranchECN;
  const std::vector<int64_t> &NewSites = Next.BranchECN;
  auto Same = OldSites.begin() + std::min({OldSites.size(), NewSites.size(),
                                           size_t(InstalledBaryCount)});
  Same = std::mismatch(OldSites.begin(), Same, NewSites.begin()).first;
  for (auto I = static_cast<uint32_t>(Same - OldSites.begin());
       I != InstalledBaryCount; ++I) {
    int64_t Old = Installed.getBaryECN(I), New = Next.getBaryECN(I);
    if (Old < 0) {
      if (New >= 0)
        D.BaryDirty.push_back(I);
    } else if (New != Old) {
      return FullRebuild("installed branch site changed");
    }
  }
  for (uint32_t I = InstalledBaryCount; I < D.BaryCount; ++I)
    D.BaryDirty.push_back(I);

  // Pure extension: coalesce the new IBT offsets into ranges.
  D.FullRebuild = false;
  for (uint64_t Offset : D.TaryDirtyOffsets) {
    if (!D.TaryDirty.empty() &&
        Offset < D.TaryDirty.back().EndBytes + CoalesceGapBytes)
      D.TaryDirty.back().EndBytes = Offset + 4;
    else
      D.TaryDirty.push_back({Offset, Offset + 4});
  }
  return D;
}

bool Linker::installPolicy(CFGPolicy &&NewPolicy, uint32_t BatchModules) {
  // Diff the new policy against the one the tables hold.
  InstallDelta Delta = computeInstallDelta(
      Policy, NewPolicy, M.tables().installedTaryLimitBytes(),
      M.tables().installedBaryCount(), M.codeTop() - Machine::CodeBase);
  if (!Opts.IncrementalUpdates) {
    Delta.FullRebuild = true;
    Delta.Reason = "incremental updates disabled";
  }

  // The dlclose/dlopen ABA guard: an incremental install never bumps the
  // version, so it must not hand a *condemned* ECN (one owned by a
  // retired module still inside its grace period) to a fresh class — a
  // stale pre-unload ID would then pass the version-half comparison
  // against the new targets. Forcing the full path bumps the version,
  // which makes every stale snapshot fail.
  if (!Delta.FullRebuild &&
      (!Delta.TaryDirtyOffsets.empty() || !Delta.BaryDirty.empty())) {
    std::vector<uint32_t> FreshECNs;
    for (uint64_t Off : Delta.TaryDirtyOffsets)
      FreshECNs.push_back(NewPolicy.TargetECN.at(Machine::CodeBase + Off));
    for (uint32_t I : Delta.BaryDirty) {
      int64_t ECN = NewPolicy.getBaryECN(I);
      if (ECN >= 0 && ECN != EmptyClassECN)
        FreshECNs.push_back(static_cast<uint32_t>(ECN));
    }
    if (M.reclaimer().anyCondemned(FreshECNs)) {
      Delta.FullRebuild = true;
      Delta.Reason = "condemned ECN reuse (unload grace period)";
    }
  }

#ifndef NDEBUG
  // Cross-check the delta against the modules' declared IBT offsets:
  // every new Tary entry must be a potential indirect-branch target some
  // loaded module announced at finalize time.
  if (!Delta.FullRebuild) {
    for (uint64_t Off : Delta.TaryDirtyOffsets) {
      uint64_t Addr = Off + Machine::CodeBase;
      // Owning module = the live module containing the address (retired
      // tombstones can share a CodeBase with a hole's new occupant).
      const MappedModule *Owner = nullptr;
      for (int Idx : Live) {
        const MappedModule &Mod = M.modules()[static_cast<size_t>(Idx)];
        if (Mod.CodeBase <= Addr && Addr < Mod.CodeBase + Mod.CodeSize)
          Owner = &Mod;
      }
      assert(Owner && "delta Tary offset outside every module");
      // Hand-assembled objects (some tests) skip finalizeObject and
      // carry no declared offsets; only finalized modules are checked.
      if (!Owner->Obj->Aux.IBTOffsets.empty()) {
        assert(std::binary_search(Owner->Obj->Aux.IBTOffsets.begin(),
                                  Owner->Obj->Aux.IBTOffsets.end(),
                                  Addr - Owner->CodeBase) &&
               "delta Tary offset is not a declared IBT");
      }
      (void)Owner;
    }
  }
#endif

  // The transaction reads NewPolicy; Policy changes only once the tables
  // hold it, so a refused install leaves policy() naming what they hold.
  // Both transactions ask for Tary offsets in ascending order, so the
  // lookup moves a cursor through the sorted targets: a full install
  // costs O(words + IBTs). Anything but a step to the next target (a jump
  // to the next dirty range, or a query behind the cursor) is one binary
  // search, so the answer never depends on the order asked.
  const TargetECNTable &Targets = NewPolicy.TargetECN;
  auto Cursor = Targets.begin();
  auto TaryECN = [&](uint64_t Off) -> int64_t {
    uint64_t Addr = Machine::CodeBase + Off;
    if (Cursor != Targets.end() && Cursor->first < Addr)
      ++Cursor;
    if ((Cursor != Targets.end() && Cursor->first < Addr) ||
        (Cursor != Targets.begin() && std::prev(Cursor)->first >= Addr))
      Cursor = Targets.lowerBound(Addr);
    if (Cursor == Targets.end() || Cursor->first != Addr)
      return -1;
    return Cursor->second;
  };
  auto BaryECN = [&NewPolicy](uint32_t I) { return NewPolicy.getBaryECN(I); };
  TxUpdateStats Got;
  auto Hook = [this, &Got]() { updateGotEntries(Got); };
  TxUpdateStats Stats;
  Stats.BatchModules = BatchModules;
  auto Start = std::chrono::steady_clock::now();
  TxUpdateStatus Status =
      Delta.FullRebuild
          ? M.tables().txUpdate(Delta.TaryLimitBytes, TaryECN,
                                Delta.BaryCount, BaryECN, Hook, &Stats)
          : M.tables().txUpdateIncremental(
                Delta.TaryLimitBytes, Delta.TaryDirty, TaryECN,
                Delta.BaryCount, Delta.BaryDirty, BaryECN, Hook, &Stats);
  if (Status != TxUpdateStatus::Ok) {
    LastError = "ID-table update refused: version space exhausted "
                "without a quiescence point";
    return false;
  }
  Stats.Micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - Start)
          .count();
  Stats.GotModules = Got.GotModules;
  Stats.GotSlots = Got.GotSlots;
  appendHistory(UpdateHistory, Stats);

  Policy = std::move(NewPolicy);
  M.setSetjmpRetSites(Policy.SetjmpRetSites);
  return true;
}

//===----------------------------------------------------------------------===//
// Static linking
//===----------------------------------------------------------------------===//

bool Linker::linkProgram(std::vector<MCFIObject> Objects,
                         std::string &Error) {
  // Hold off concurrent applyReclaim for the whole link: the module
  // walks below are not a single ModuleLock critical section.
  auto ReclaimGuard = M.lockReclaimApply();
  // Bootstrap first so its branch-site indexes stay stable forever.
  // Each object is shared and interned once, as a registered one is.
  std::vector<Registered> All;
  All.push_back(intern(makeBootstrap()));
  for (MCFIObject &O : Objects)
    All.push_back(intern(std::move(O)));

  std::vector<int> Indexes;
  for (const Registered &R : All) {
    int Idx = mapRegistered(R, Error);
    if (Idx < 0)
      return false;
    Indexes.push_back(Idx);
  }

  // Resolve after all modules are mapped (the static linker sees every
  // definition).
  for (int Idx : Indexes)
    if (!resolveModule(Idx, Error))
      return false;
  Live = Indexes;

  if (Opts.InstallPolicy) {
    syncMerge(0);
    CFGPolicy NewPolicy = Merge.emit();
    patchBaryIndexes(NewPolicy, Indexes);

    // Seal runs what the verifier checked: each module's disassembly is
    // verified, then attached as its decode.
    std::vector<Disassembly> Verified;
    if (Opts.Verify) {
      for (int Idx : Indexes) {
        const MappedModule &Mod = M.modules()[static_cast<size_t>(Idx)];
        VerifyResult VR = verifyMapped(M, Mod, Verified.emplace_back());
        if (!VR.Ok) {
          Error = "verification failed for module '" + Mod.Obj->Name +
                  "': " + VR.Errors.front();
          return false;
        }
      }
    }

    for (size_t K = 0; K != Indexes.size(); ++K) {
      if (Opts.Verify)
        M.sealModule(Indexes[K], std::move(Verified[K]));
      else
        M.sealModule(Indexes[K]);
    }
    if (!installPolicy(std::move(NewPolicy))) {
      Error = LastError;
      return false;
    }
  } else {
    for (int Idx : Indexes)
      M.sealModule(Idx);
    // Baseline still honours setjmp validation so longjmp keeps working.
    std::vector<uint64_t> Sites;
    for (const MappedModule &Mod : M.modules())
      for (const CallSiteInfo &CS : Mod.Obj->Aux.CallSites)
        if (CS.IsSetjmp)
          Sites.push_back(Mod.CodeBase + CS.RetSiteOffset);
    M.setSetjmpRetSites(std::move(Sites));
  }

  M.SigReturnAddr = M.findFunction("sig$return");
  M.DlopenHook = [this](Machine &, int64_t Id) { return dlopen(Id); };
  M.DlcloseHook = [this](Machine &, int64_t Handle) {
    return dlclose(Handle);
  };
  // Everything mapped so far is the program itself; dlclose refuses it.
  StaticModules = M.modules().size();
  return true;
}

int Linker::registerLibrary(MCFIObject Obj) {
  Registry.push_back(intern(std::move(Obj)));
  return static_cast<int>(Registry.size() - 1);
}

//===----------------------------------------------------------------------===//
// Dynamic linking (the paper's three steps, batched)
//===----------------------------------------------------------------------===//

int64_t Linker::dlopen(int64_t RegistryId) {
  return dlopenOne(RegistryId).Handle;
}

DlopenResult Linker::dlopenOne(int64_t RegistryId) {
  DlopenResult Result;
  std::lock_guard<std::mutex> Guard(DlopenLock);
  processBatch({&RegistryId, 1}, {&Result, 1});
  return Result;
}

std::vector<DlopenResult>
Linker::dlopenBatch(const std::vector<int64_t> &RegistryIds) {
  std::vector<DlopenResult> Results(RegistryIds.size());
  std::lock_guard<std::mutex> Guard(DlopenLock);
  processBatch(RegistryIds, Results);
  return Results;
}

void Linker::processBatch(std::span<const int64_t> Ids,
                          std::span<DlopenResult> Results) {
  // A drainReclaim on another thread (test harness, churn tool, or a
  // guest's quiescence hook) must not trim/zero Mapped while this
  // batch is mid-walk; applyReclaim takes the same lock.
  auto ReclaimGuard = M.lockReclaimApply();
  DlopenBatchStats BS;
  BS.Requested = static_cast<uint32_t>(Ids.size());
  // Every module this batch maps lands at or past this index.
  const size_t FirstNew = M.modules().size();

  // A mapped module that fails before or at the install is tombstoned at
  // once: the next merge must not fold it in, symbol lookups must not
  // find it, and the reclaimer returns its ranges. Its table entries were
  // never installed, so there is no retire transaction and no condemned
  // ECN.
  auto Discard = [&](int Idx) {
    M.markModuleRetired(Idx, 0);
    M.retireModule(Idx, {});
  };
  // A batch that fails after its merge also forgets the members' folds
  // at once. Left in Merge, they would outlive their objects: a drain
  // trims the tombstones, and the next dlopen can map a new module at
  // the same index and base, into the same freed object address, where
  // syncMerge would take the stale fold for the new module's.
  // Each loaded member as {its position in Ids, its module index}.
  std::vector<std::pair<size_t, int>> Loaded;
  auto DiscardBatch = [&]() {
    Merge.truncate(FirstNew);
    for (const auto &Member : Loaded)
      Discard(Member.second);
    appendHistory(BatchHistory, BS);
  };

  // Step 1 per request: validate, map writable/not-executable, relocate.
  // A request failing here fails alone; the rest of the batch proceeds.
  for (size_t Pos = 0; Pos != Ids.size(); ++Pos) {
    if (Ids[Pos] < 0 || static_cast<size_t>(Ids[Pos]) >= Registry.size()) {
      LastError = "dlopen: unknown library id";
      continue;
    }
    std::string Error;
    int Idx = mapRegistered(Registry[static_cast<size_t>(Ids[Pos])], Error);
    if (Idx < 0) {
      LastError = "dlopen: " + Error;
      continue;
    }
    if (!resolveModule(Idx, Error)) {
      LastError = "dlopen: " + Error;
      Discard(Idx);
      continue;
    }
    Loaded.push_back({Pos, Idx});
  }
  BS.Loaded = static_cast<uint32_t>(Loaded.size());
  if (Loaded.empty()) {
    appendHistory(BatchHistory, BS);
    return;
  }

  // Step 2, once for the whole batch: fold the new modules into the
  // combined CFG, patch every new module's Bary indexes while its pages
  // are still writable, verify, seal RX. Retired modules appear as
  // tombstones: positionally present, semantically absent.
  auto MergeStart = std::chrono::steady_clock::now();
  BS.MergeViewsAppended = syncMerge(FirstNew);
  CFGPolicy NewPolicy = Merge.emit();
  BS.MergeMicros = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - MergeStart)
                       .count();
  std::vector<int> NewIndexes;
  for (const auto &Member : Loaded)
    NewIndexes.push_back(Member.second);
  patchBaryIndexes(NewPolicy, NewIndexes);

  std::vector<Disassembly> Verified;
  if (Opts.Verify) {
    for (const auto &[Pos, Idx] : Loaded) {
      const MappedModule &Mod = M.modules()[static_cast<size_t>(Idx)];
      VerifyResult VR = verifyMapped(M, Mod, Verified.emplace_back());
      if (!VR.Ok) {
        // Fail the whole batch closed: the policy was generated against
        // every mapped module, so installing it with one member
        // unverified would admit edges into unvetted code. Nothing
        // seals, nothing installs, every request reports failure, and
        // every member is discarded.
        LastError = "dlopen: verification failed for module '" +
                    Mod.Obj->Name + "': " + VR.Errors.front();
        DiscardBatch();
        return;
      }
    }
  }
  for (size_t K = 0; K != Loaded.size(); ++K) {
    if (Opts.Verify)
      M.sealModule(Loaded[K].second, std::move(Verified[K]));
    else
      M.sealModule(Loaded[K].second);
  }

  // Step 3, once for the whole batch: ONE update transaction — one
  // version bump, one Tary→GOT→Bary pass — installs every new module's
  // IDs (GOT updates run inside the transaction, between the phases, so
  // the members join the live list first).
  for (const auto &Member : Loaded)
    Live.push_back(Member.second);
  if (!installPolicy(std::move(NewPolicy), BS.Loaded)) {
    // A refused install (version space exhausted) fails the batch like a
    // failed verify: a sealed but never-installed member left live would
    // shadow a later load of the same library in symbol lookups, and no
    // handle was returned that could ever close it.
    LastError = "dlopen: " + LastError;
    Live.resize(Live.size() - Loaded.size());
    DiscardBatch();
    return;
  }
  const TxUpdateStats &Install = UpdateHistory.back();
  BS.Installed = true;
  BS.Incremental = Install.Incremental;
  BS.InstallMicros = Install.Micros;
  for (const auto &[Pos, Idx] : Loaded) {
    Results[Pos].Handle = Idx;
    Results[Pos].SiteIndexBase =
        Policy.SiteIndexBase[static_cast<size_t>(Idx)];
    Results[Pos].CodeBase = M.modules()[static_cast<size_t>(Idx)].CodeBase;
  }
  appendHistory(BatchHistory, BS);
}

//===----------------------------------------------------------------------===//
// Dynamic unloading (dlclose, batched)
//===----------------------------------------------------------------------===//

bool Linker::dlcloseOne(int64_t Handle) {
  bool Closed = false;
  std::lock_guard<std::mutex> Guard(DlopenLock);
  processUnloadBatch({&Handle, 1}, {&Closed, 1});
  return Closed;
}

std::vector<bool> Linker::dlcloseBatch(const std::vector<int64_t> &Handles) {
  auto Closed = std::make_unique<bool[]>(Handles.size());
  {
    std::lock_guard<std::mutex> Guard(DlopenLock);
    processUnloadBatch(Handles, {Closed.get(), Handles.size()});
  }
  return std::vector<bool>(Closed.get(), Closed.get() + Handles.size());
}

void Linker::processUnloadBatch(std::span<const int64_t> Handles,
                                std::span<bool> Closed) {
  // Same serialization as processBatch: the validation and the merge's
  // views must see a stable Mapped while a concurrent drain applies.
  auto ReclaimGuard = M.lockReclaimApply();
  DlcloseBatchStats BS;
  BS.Requested = static_cast<uint32_t>(Handles.size());

  // Per-module state captured before anything is torn down.
  struct DyingModule {
    size_t Pos = 0; ///< its position in Handles
    int Idx = -1;
    uint64_t CodeBegin = 0, CodeEnd = 0; ///< absolute address range
    uint32_t SiteBase = 0, SiteCount = 0; ///< global Bary index range
    std::vector<uint32_t> CondemnedECNs;
  };

  // Validate: in range, dynamically loaded, live, not a duplicate within
  // this batch. A bad handle fails alone; the rest proceed.
  std::vector<DyingModule> Dying;
  std::unordered_set<int64_t> SeenHandles;
  for (size_t Pos = 0; Pos != Handles.size(); ++Pos) {
    int64_t H = Handles[Pos];
    if (H < static_cast<int64_t>(StaticModules) ||
        H >= static_cast<int64_t>(M.modules().size())) {
      LastError = "dlclose: invalid handle";
      continue;
    }
    const MappedModule &Mod = M.modules()[static_cast<size_t>(H)];
    if (Mod.Retired) {
      LastError = "dlclose: module already closed";
      continue;
    }
    if (!SeenHandles.insert(H).second) {
      LastError = "dlclose: duplicate handle in batch";
      continue;
    }
    // A live dynamic module is an installed one: a dlopen batch that
    // fails before or at its install retires every member.
    assert(static_cast<size_t>(H) < Policy.SiteIndexBase.size() &&
           "live module missing from the installed policy");
    DyingModule D;
    D.Pos = Pos;
    D.Idx = static_cast<int>(H);
    D.CodeBegin = Mod.CodeBase;
    D.CodeEnd = Mod.CodeBase + Mod.CodeSize;
    D.SiteBase = Policy.SiteIndexBase[static_cast<size_t>(H)];
    D.SiteCount = static_cast<uint32_t>(Mod.Obj->Aux.BranchSites.size());
    Dying.push_back(std::move(D));
  }
  BS.Closed = static_cast<uint32_t>(Dying.size());
  if (Dying.empty()) {
    appendHistory(UnloadHistory, BS);
    return;
  }

  // Exclusive-ECN computation, against Policy BEFORE the scrub: an ECN is
  // condemned iff every occurrence across the installed policy (target
  // ECNs and live site ECNs) lies inside the dying set. A class shared
  // with a surviving module stays live — its surviving members keep
  // matching, so its number is not up for reuse. The reserved
  // EmptyClassECN is shared by construction and never matches a target;
  // it is never condemned. ECNs are dense, so both counts are vectors
  // indexed by ECN; the dying counts walk only each module's own address
  // range (a slice of the sorted targets) and its own site range.
  {
    std::vector<uint32_t> Total, InDying;
    auto Slot = [](std::vector<uint32_t> &Counts, uint32_t ECN) -> uint32_t & {
      if (ECN >= Counts.size())
        Counts.resize(ECN + 1, 0);
      return Counts[ECN];
    };
    // Every ECN a module holds, in target-then-site order (repeats kept).
    auto ForEachECN = [&](const DyingModule &D, auto &&Fn) {
      for (auto It = Policy.TargetECN.lowerBound(D.CodeBegin);
           It != Policy.TargetECN.end() && It->first < D.CodeEnd; ++It)
        Fn(It->second);
      for (uint32_t S = D.SiteBase; S != D.SiteBase + D.SiteCount; ++S)
        if (int64_t E = Policy.getBaryECN(S); E >= 0 && E != EmptyClassECN)
          Fn(static_cast<uint32_t>(E));
    };
    for (const auto &[Addr, ECN] : Policy.TargetECN) {
      (void)Addr;
      ++Slot(Total, ECN);
    }
    for (int64_t E : Policy.BranchECN)
      if (E >= 0 && E != EmptyClassECN)
        ++Slot(Total, static_cast<uint32_t>(E));
    for (const DyingModule &D : Dying)
      ForEachECN(D, [&](uint32_t ECN) { ++Slot(InDying, ECN); });
    // Exclusive to the dying set: condemn it on every dying module that
    // holds it (the reclaimer counts multiplicity, so the number stays
    // condemned until the LAST holder matures).
    for (DyingModule &D : Dying) {
      ForEachECN(D, [&](uint32_t ECN) {
        if (InDying[ECN] == Total[ECN])
          D.CondemnedECNs.push_back(ECN);
      });
      std::sort(D.CondemnedECNs.begin(), D.CondemnedECNs.end());
      D.CondemnedECNs.erase(
          std::unique(D.CondemnedECNs.begin(), D.CondemnedECNs.end()),
          D.CondemnedECNs.end());
    }
  }

  // Step 1 of the retire protocol: make the dying modules invisible to
  // symbol lookups and drop them from the live list BEFORE the table
  // transaction, so the GOT-zeroing hook running between its phases
  // re-resolves the survivors' imports without them.
  int FirstDying = Dying.front().Idx;
  for (const DyingModule &D : Dying) {
    M.markModuleRetired(D.Idx, D.SiteCount);
    FirstDying = std::min(FirstDying, D.Idx);
  }
  std::erase_if(Live, [&](int Idx) {
    return std::any_of(Dying.begin(), Dying.end(),
                       [Idx](const DyingModule &D) { return D.Idx == Idx; });
  });

  // Close the longjmp window before the tables forget the module: a
  // jmp_buf pointing into a dying range must stop validating now, not
  // after the policy regeneration below.
  {
    std::vector<uint64_t> Sites;
    Sites.reserve(Policy.SetjmpRetSites.size());
    for (uint64_t S : Policy.SetjmpRetSites) {
      bool Dead = false;
      for (const DyingModule &D : Dying)
        if (S >= D.CodeBegin && S < D.CodeEnd) {
          Dead = true;
          break;
        }
      if (!Dead)
        Sites.push_back(S);
    }
    Policy.SetjmpRetSites = Sites;
    M.setSetjmpRetSites(std::move(Sites));
  }

  // ONE retire transaction for the whole batch: Bary sites die first,
  // then the phase barrier + GOT zeroing, then the Tary ranges — so no
  // surviving site ever observes a half-retired module as matchable.
  std::vector<TaryRange> Ranges;
  std::vector<uint32_t> Sites;
  for (const DyingModule &D : Dying) {
    Ranges.push_back(
        {D.CodeBegin - Machine::CodeBase, D.CodeEnd - Machine::CodeBase});
    for (uint32_t S = 0; S != D.SiteCount; ++S)
      Sites.push_back(D.SiteBase + S);
  }
  TxUpdateStats Stats, Got;
  Stats.BatchModules = BS.Closed;
  auto Start = std::chrono::steady_clock::now();
  TxUpdateStatus Status = M.tables().txUpdateRetire(
      Ranges, Sites, [this, &Got]() { updateGotEntries(Got); }, &Stats);
  assert(Status == TxUpdateStatus::Ok &&
         "retire transactions never exhaust version space");
  (void)Status;
  Stats.Micros = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  Stats.GotModules = Got.GotModules;
  Stats.GotSlots = Got.GotSlots;
  appendHistory(UpdateHistory, Stats);
  BS.RetireMicros = Stats.Micros;

  // Scrub Policy the way the transaction zeroed the tables, so it names
  // what they hold now: the dying targets are gone and their sites hold
  // no ID. The extents are unchanged: the dead modules' positions stay
  // tombstoned until the epoch reclaimer matures the range.
  for (const DyingModule &D : Dying)
    Policy.TargetECN.eraseRange(D.CodeBegin, D.CodeEnd);
  for (uint32_t S : Sites)
    if (S < Policy.BranchECN.size())
      Policy.BranchECN[S] = -1;

  // Step 2 of the retire protocol: the code ranges + condemned ECNs
  // enter the reclaimer's grace period. The code stays mapped and
  // executable until every guest thread passes a quiescent point.
  for (DyingModule &D : Dying)
    M.retireModule(D.Idx, std::move(D.CondemnedECNs));

  // Regenerate the policy with the dying modules as tombstones: a
  // removal can split classes, so the merge is truncated to the first
  // dying module and the views from there on are folded in again. In the
  // common self-contained case the result holds exactly the scrubbed
  // Policy's entries within the installed extents (survivors keep their
  // classes and numbering), and no second transaction is needed: the
  // retire-only fast path. Otherwise (class splits, renumbering) the full
  // install's version bump makes every stale pre-unload ID snapshot fail.
  auto MergeStart = std::chrono::steady_clock::now();
  BS.MergeViewsAppended = syncMerge(static_cast<size_t>(FirstDying));
  CFGPolicy NewPolicy = Merge.emit();
  BS.MergeMicros = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - MergeStart)
                       .count();
  // Retire-only exactly when installing NewPolicy would store nothing:
  // a pure extension with no new entry at the installed extents.
  uint64_t TaryBytes = M.tables().installedTaryLimitBytes();
  InstallDelta Delta = computeInstallDelta(
      Policy, NewPolicy, TaryBytes, M.tables().installedBaryCount(),
      M.codeTop() - Machine::CodeBase);
  bool RetireOnly = !Delta.FullRebuild && Delta.TaryDirty.empty() &&
                    Delta.BaryDirty.empty() &&
                    Delta.TaryLimitBytes == TaryBytes;
  if (RetireOnly) {
    Policy = std::move(NewPolicy);
    M.setSetjmpRetSites(Policy.SetjmpRetSites);
  } else {
    BS.PolicyReinstalled = true;
    if (!installPolicy(std::move(NewPolicy), BS.Closed))
      LastError = "dlclose: " + LastError; // modules are still retired
  }

  // Between the retire transaction and a reinstall the tables are
  // self-consistent under the OLD numbering (survivors' entries were
  // untouched on both sides); only the dying entries are gone. See
  // docs/INTERNALS.md §16.
  for (const DyingModule &D : Dying)
    Closed[D.Pos] = true;
  appendHistory(UnloadHistory, BS);
}
