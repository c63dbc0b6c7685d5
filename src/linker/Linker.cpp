//===- linker/Linker.cpp - MCFI static and dynamic linking ----------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "linker/Linker.h"

#include "cfg/SigCache.h"
#include "ctypes/SigIntern.h"
#include "module/Pending.h"
#include "rewriter/Rewriter.h"
#include "support/Assert.h"
#include "support/StringUtils.h"
#include "verifier/Verifier.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

using namespace mcfi;
using namespace mcfi::visa;

Linker::Linker(Machine &M, LinkOptions Opts) : M(M), Opts(Opts) {}

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

  auto findFunc = [&](const std::string &Sym) -> uint64_t {
    return M.findFunction(Sym);
  };
  auto findLocalData = [&](const std::string &Sym) -> uint64_t {
    auto It = Obj.DataSymbols.find(Sym);
    return It == Obj.DataSymbols.end() ? 0 : Mod.DataBase + It->second;
  };

  for (const RelocEntry &R : Obj.Relocs) {
    switch (R.Kind) {
    case RelocKind::None:
      break;
    case RelocKind::FuncAddr64: {
      uint64_t Addr = findFunc(R.Symbol);
      if (!Addr) {
        Error = "unresolved function address: " + R.Symbol;
        return false;
      }
      M.patchCode64(Mod.CodeBase + R.Offset, Addr);
      break;
    }
    case RelocKind::GlobalAddr64:
    case RelocKind::GotSlot64: {
      uint64_t Addr = findLocalData(R.Symbol);
      if (!Addr) {
        Error = "unresolved data symbol: " + R.Symbol;
        return false;
      }
      M.patchCode64(Mod.CodeBase + R.Offset, Addr);
      break;
    }
    case RelocKind::CallSym: {
      // Direct call: resolve to the definition if loaded, else to this
      // module's own instrumented PLT entry.
      uint64_t Target = findFunc(R.Symbol);
      if (!Target)
        Target = findFunc("plt$" + R.Symbol) == 0
                     ? 0
                     : M.findFunction("plt$" + R.Symbol);
      // Prefer the local PLT when the symbol is an import of this module
      // (dynamic binding through the GOT even if some module already
      // defines it — keeps lazy library replacement possible).
      for (const std::string &Imp : Obj.Imports) {
        if (Imp == R.Symbol) {
          if (const FunctionInfo *Plt = Obj.findFunction("plt$" + R.Symbol))
            Target = Mod.CodeBase + Plt->CodeOffset;
          break;
        }
      }
      if (!Target) {
        Error = "unresolved call target: " + R.Symbol;
        return false;
      }
      uint64_t InstrStart = Mod.CodeBase + R.Offset - 1;
      int64_t Rel = static_cast<int64_t>(Target) -
                    static_cast<int64_t>(InstrStart + 5);
      M.patchCode32(Mod.CodeBase + R.Offset,
                    static_cast<uint32_t>(static_cast<int32_t>(Rel)));
      break;
    }
    case RelocKind::JumpTable64:
    case RelocKind::CodeAddr64:
      // Module-relative code offset -> absolute address.
      if (R.Kind == RelocKind::JumpTable64)
        M.patchCode64(Mod.CodeBase + R.Offset, Mod.CodeBase + R.Addend);
      else
        M.patchCode64(Mod.CodeBase + R.Offset, Mod.CodeBase + R.Addend);
      break;
    case RelocKind::BaryIndex32:
      // Patched at CFG-install time (patchBaryIndexes).
      break;
    case RelocKind::DataFuncAddr64: {
      uint64_t Addr = findFunc(R.Symbol);
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

void Linker::patchBaryIndexes(const CFGPolicy &NewPolicy) {
  for (size_t Idx = 0; Idx != M.modules().size(); ++Idx) {
    const MappedModule &Mod = M.modules()[Idx];
    // Retired modules are sealed tombstones; the patched-set is keyed by
    // Serial so a new module occupying a reused index is never mistaken
    // for its already-patched predecessor.
    if (Mod.Retired || BaryPatched.count(Mod.Serial))
      continue;
    uint32_t Base = NewPolicy.SiteIndexBase[Idx];
    for (const RelocEntry &R : Mod.Obj->Relocs) {
      if (R.Kind != RelocKind::BaryIndex32)
        continue;
      M.patchCode32(Mod.CodeBase + R.Offset, Base + R.SiteId);
    }
    BaryPatched.insert(Mod.Serial);
  }
}

void Linker::updateGotEntries() {
  // Fill every module's GOT slots with the current definitions. Runs
  // between the phases of installing AND retiring transactions.
  for (const MappedModule &Mod : M.modules()) {
    if (Mod.Retired)
      continue; // a dead module's GOT is unreachable, leave it
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
    }
  }
}

std::vector<LoadedModuleView> Linker::moduleViews() const {
  std::vector<LoadedModuleView> Views;
  Views.reserve(M.modules().size());
  for (const MappedModule &Mod : M.modules()) {
    if (Mod.Retired)
      Views.push_back({nullptr, Mod.CodeBase, Mod.TombstoneSites});
    else
      Views.push_back({Mod.Obj.get(), Mod.CodeBase, 0});
  }
  return Views;
}

PolicyImage Linker::flattenPolicy(const CFGPolicy &P) const {
  PolicyImage Image;
  Image.TaryLimitBytes = M.codeTop() - Machine::CodeBase;
  Image.BaryCount = static_cast<uint32_t>(P.BranchECN.size());
  Image.TaryECN.reserve(P.TargetECN.size());
  for (const auto &[Addr, ECN] : P.TargetECN)
    Image.TaryECN.emplace(Addr - Machine::CodeBase, ECN);
  Image.BaryECN = P.BranchECN;
  return Image;
}

bool Linker::installPolicy(CFGPolicy &&NewPolicy, uint32_t BatchModules) {
  // Flatten the policy to table coordinates so the shadow can diff it
  // against what the tables currently hold.
  PolicyImage Image = flattenPolicy(NewPolicy);

  ShadowDelta Delta;
  if (Opts.IncrementalUpdates)
    Delta = Shadow.computeDelta(Image);
  else
    Delta.Reason = "incremental updates disabled";

  // The dlclose/dlopen ABA guard: an incremental install never bumps the
  // version, so it must not hand a *condemned* ECN (one owned by a
  // retired module still inside its grace period) to a fresh class — a
  // stale pre-unload ID would then pass the version-half comparison
  // against the new targets. Forcing the full path bumps the version,
  // which makes every stale snapshot fail.
  if (!Delta.FullRebuild &&
      (!Delta.TaryDirtyOffsets.empty() || !Delta.BaryDirty.empty())) {
    std::vector<uint32_t> FreshECNs;
    for (uint64_t Off : Delta.TaryDirtyOffsets) {
      auto It = Image.TaryECN.find(Off);
      if (It != Image.TaryECN.end())
        FreshECNs.push_back(It->second);
    }
    for (uint32_t I : Delta.BaryDirty) {
      int64_t ECN = I < Image.BaryECN.size() ? Image.BaryECN[I] : -1;
      if (ECN >= 0 && ECN != EmptyClassECN)
        FreshECNs.push_back(static_cast<uint32_t>(ECN));
    }
    if (M.reclaimer().anyCondemned(FreshECNs)) {
      Delta = ShadowDelta();
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
      for (const MappedModule &Mod : M.modules())
        if (!Mod.Retired && Mod.CodeBase <= Addr &&
            Addr < Mod.CodeBase + Mod.CodeSize)
          Owner = &Mod;
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

  Policy = std::move(NewPolicy);

  TxUpdateStats Stats;
  Stats.BatchModules = BatchModules;
  auto Start = std::chrono::steady_clock::now();
  TxUpdateStatus Status;
  if (!Delta.FullRebuild) {
    Status = M.tables().txUpdateIncremental(
        Image.TaryLimitBytes, Delta.TaryDirty,
        [this](uint64_t Off) {
          return Policy.getTaryECN(Machine::CodeBase + Off);
        },
        Image.BaryCount, Delta.BaryDirty,
        [this](uint32_t Index) { return Policy.getBaryECN(Index); },
        [this]() { updateGotEntries(); }, &Stats);
  } else {
    Status = M.tables().txUpdate(
        Image.TaryLimitBytes,
        [this](uint64_t Off) {
          return Policy.getTaryECN(Machine::CodeBase + Off);
        },
        Image.BaryCount,
        [this](uint32_t Index) { return Policy.getBaryECN(Index); },
        [this]() { updateGotEntries(); }, &Stats);
  }
  if (Status != TxUpdateStatus::Ok) {
    LastError = "ID-table update refused: version space exhausted "
                "without a quiescence point";
    return false;
  }
  Stats.Micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - Start)
          .count();
  UpdateHistory.push_back(Stats);

  Shadow.install(std::move(Image), M.tables().currentVersion());
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
  std::vector<MCFIObject> All;
  All.push_back(makeBootstrap());
  for (MCFIObject &O : Objects)
    All.push_back(std::move(O));

  std::vector<int> Indexes;
  for (MCFIObject &O : All) {
    int Idx = M.mapModule(std::move(O));
    if (Idx < 0) {
      Error = "machine region exhausted while mapping modules";
      return false;
    }
    Indexes.push_back(Idx);
  }

  // Resolve after all modules are mapped (the static linker sees every
  // definition).
  for (int Idx : Indexes)
    if (!resolveModule(Idx, Error))
      return false;

  std::vector<LoadedModuleView> Views = moduleViews();

  if (Opts.InstallPolicy) {
    CFGPolicy NewPolicy = generateCFG(Views, Opts.Refinement);
    patchBaryIndexes(NewPolicy);

    if (Opts.Verify) {
      for (const MappedModule &Mod : M.modules()) {
        const uint8_t *Code = M.codePtr(Mod.CodeBase, Mod.Obj->Code.size());
        VerifyResult VR =
            verifyModule(Code, Mod.Obj->Code.size(), *Mod.Obj);
        if (!VR.Ok) {
          Error = "verification failed for module '" + Mod.Obj->Name +
                  "': " + VR.Errors.front();
          return false;
        }
      }
    }

    for (int Idx : Indexes)
      M.sealModule(Idx);
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
  Registry.push_back(std::move(Obj));
  return static_cast<int>(Registry.size() - 1);
}

//===----------------------------------------------------------------------===//
// Dynamic linking (the paper's three steps, batched)
//===----------------------------------------------------------------------===//

int64_t Linker::dlopen(int64_t RegistryId) {
  return dlopenOne(RegistryId).Handle;
}

DlopenResult Linker::dlopenOne(int64_t RegistryId) {
  PendingDlopen Req;
  Req.Id = RegistryId;

  std::unique_lock<std::mutex> Lk(BatchLock);
  BatchQueue.push_back(&Req);
  if (LeaderActive) {
    // Another loader is mid-install; it (or its successor leader) will
    // drain the queue — this request included — as one batch. Follower
    // threads just wait for their slot's result.
    BatchCv.wait(Lk, [&] { return Req.Done; });
    return Req.Result;
  }

  // Leader: drain the queue in rounds. Requests arriving while a round
  // installs are coalesced into the next round's batch.
  LeaderActive = true;
  while (!BatchQueue.empty()) {
    std::vector<PendingDlopen *> Batch(BatchQueue.begin(), BatchQueue.end());
    BatchQueue.clear();
    Lk.unlock();
    {
      std::lock_guard<std::mutex> Guard(DlopenLock);
      processBatch(Batch);
    }
    Lk.lock();
    for (PendingDlopen *P : Batch)
      P->Done = true;
    BatchCv.notify_all();
  }
  LeaderActive = false;
  return Req.Result;
}

std::vector<DlopenResult>
Linker::dlopenBatch(const std::vector<int64_t> &RegistryIds) {
  std::vector<PendingDlopen> Reqs(RegistryIds.size());
  std::vector<PendingDlopen *> Batch;
  Batch.reserve(Reqs.size());
  for (size_t I = 0; I != RegistryIds.size(); ++I) {
    Reqs[I].Id = RegistryIds[I];
    Batch.push_back(&Reqs[I]);
  }
  // Bypasses the combiner queue so the batch shape is exactly the input
  // (benchmarks and tests depend on exact install counts); DlopenLock
  // still serializes against combiner-driven installs.
  std::lock_guard<std::mutex> Guard(DlopenLock);
  processBatch(Batch);
  std::vector<DlopenResult> Out;
  Out.reserve(Reqs.size());
  for (const PendingDlopen &R : Reqs)
    Out.push_back(R.Result);
  return Out;
}

void Linker::processBatch(std::vector<PendingDlopen *> &Batch) {
  // A drainReclaim on another thread (test harness, churn tool, or a
  // guest's quiescence hook) must not trim/zero Mapped while this
  // leader is mid-walk; applyReclaim takes the same lock.
  auto ReclaimGuard = M.lockReclaimApply();
  DlopenBatchStats BS;
  BS.Requested = static_cast<uint32_t>(Batch.size());

  // Step 1 per request: validate, map writable/not-executable, relocate.
  // A request failing here fails alone; the rest of the batch proceeds.
  std::vector<std::pair<PendingDlopen *, int>> Loaded;
  for (PendingDlopen *P : Batch) {
    if (P->Id < 0 || static_cast<size_t>(P->Id) >= Registry.size()) {
      LastError = "dlopen: unknown library id";
      continue;
    }
    int Idx = M.mapModule(Registry[static_cast<size_t>(P->Id)]);
    if (Idx < 0) {
      LastError = "dlopen: machine region exhausted";
      continue;
    }
    std::string Error;
    if (!resolveModule(Idx, Error)) {
      LastError = "dlopen: " + Error;
      continue;
    }
    Loaded.push_back({P, Idx});
  }
  BS.Loaded = static_cast<uint32_t>(Loaded.size());
  if (Loaded.empty()) {
    BatchHistory.push_back(BS);
    return;
  }

  // Step 2, once for the whole batch: regenerate the combined CFG, patch
  // every new module's Bary indexes while its pages are still writable,
  // verify, seal RX. Retired modules appear as tombstones: positionally
  // present, semantically absent.
  std::vector<LoadedModuleView> Views = moduleViews();
  auto MergeStart = std::chrono::steady_clock::now();
  CFGPolicy NewPolicy = generateCFG(Views, Opts.Refinement);
  BS.MergeMicros = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - MergeStart)
                       .count();
  patchBaryIndexes(NewPolicy);

  if (Opts.Verify) {
    for (const auto &[P, Idx] : Loaded) {
      const MappedModule &Mod = M.modules()[static_cast<size_t>(Idx)];
      const uint8_t *Code = M.codePtr(Mod.CodeBase, Mod.Obj->Code.size());
      VerifyResult VR = verifyModule(Code, Mod.Obj->Code.size(), *Mod.Obj);
      if (!VR.Ok) {
        // Fail the whole batch closed: the policy was generated against
        // every mapped module, so installing it with one member
        // unverified would admit edges into unvetted code. Nothing
        // seals, nothing installs, every request reports failure.
        LastError = "dlopen: verification failed for module '" +
                    Mod.Obj->Name + "': " + VR.Errors.front();
        BatchHistory.push_back(BS);
        return;
      }
    }
  }
  for (const auto &[P, Idx] : Loaded)
    M.sealModule(Idx);

  // Step 3, once for the whole batch: ONE update transaction — one
  // version bump, one Tary→GOT→Bary pass — installs every new module's
  // IDs (GOT updates run inside the transaction, between the phases).
  if (!installPolicy(std::move(NewPolicy), BS.Loaded)) {
    LastError = "dlopen: " + LastError;
    BatchHistory.push_back(BS);
    return;
  }
  const TxUpdateStats &Install = UpdateHistory.back();
  BS.Installed = true;
  BS.Incremental = Install.Incremental;
  BS.InstallMicros = Install.Micros;
  for (const auto &[P, Idx] : Loaded) {
    P->Result.Handle = Idx;
    P->Result.SiteIndexBase = Policy.SiteIndexBase[static_cast<size_t>(Idx)];
    P->Result.CodeBase = M.modules()[static_cast<size_t>(Idx)].CodeBase;
  }
  BatchHistory.push_back(BS);
}

//===----------------------------------------------------------------------===//
// Dynamic unloading (dlclose, batched)
//===----------------------------------------------------------------------===//

bool Linker::dlcloseOne(int64_t Handle) {
  PendingDlclose Req;
  Req.Handle = Handle;

  std::unique_lock<std::mutex> Lk(BatchLock);
  CloseQueue.push_back(&Req);
  if (CloseLeaderActive) {
    // Another thread is mid-retire; its leader drains the queue — this
    // request included — as one batch (one retire transaction).
    CloseCv.wait(Lk, [&] { return Req.Done; });
    return Req.Ok;
  }

  CloseLeaderActive = true;
  while (!CloseQueue.empty()) {
    std::vector<PendingDlclose *> Batch(CloseQueue.begin(), CloseQueue.end());
    CloseQueue.clear();
    Lk.unlock();
    {
      std::lock_guard<std::mutex> Guard(DlopenLock);
      processUnloadBatch(Batch);
    }
    Lk.lock();
    for (PendingDlclose *P : Batch)
      P->Done = true;
    CloseCv.notify_all();
  }
  CloseLeaderActive = false;
  return Req.Ok;
}

std::vector<bool> Linker::dlcloseBatch(const std::vector<int64_t> &Handles) {
  std::vector<PendingDlclose> Reqs(Handles.size());
  std::vector<PendingDlclose *> Batch;
  Batch.reserve(Reqs.size());
  for (size_t I = 0; I != Handles.size(); ++I) {
    Reqs[I].Handle = Handles[I];
    Batch.push_back(&Reqs[I]);
  }
  // Bypasses the combiner queue (exact batch shape for tests/benchmarks);
  // DlopenLock still serializes against every other link operation.
  std::lock_guard<std::mutex> Guard(DlopenLock);
  processUnloadBatch(Batch);
  std::vector<bool> Out;
  Out.reserve(Reqs.size());
  for (const PendingDlclose &R : Reqs)
    Out.push_back(R.Ok);
  return Out;
}

/// Do two flattened policies encode the same table state?
static bool sameImage(const PolicyImage &A, const PolicyImage &B) {
  return A.TaryLimitBytes == B.TaryLimitBytes && A.BaryCount == B.BaryCount &&
         A.TaryECN == B.TaryECN && A.BaryECN == B.BaryECN;
}

void Linker::processUnloadBatch(std::vector<PendingDlclose *> &Batch) {
  // Same serialization as processBatch: moduleViews and the validation
  // walk must see a stable Mapped while a concurrent drain applies.
  auto ReclaimGuard = M.lockReclaimApply();
  DlcloseBatchStats BS;
  BS.Requested = static_cast<uint32_t>(Batch.size());

  // Per-module state captured before anything is torn down.
  struct DyingModule {
    PendingDlclose *P = nullptr;
    int Idx = -1;
    uint64_t Serial = 0;
    uint64_t SigKey = 0;
    uint64_t CodeBegin = 0, CodeEnd = 0; ///< absolute address range
    uint32_t SiteBase = 0, SiteCount = 0; ///< global Bary index range
    std::vector<uint32_t> CondemnedECNs;
  };

  // Validate: in range, dynamically loaded, live, not a duplicate within
  // this batch. A bad handle fails alone; the rest proceed.
  std::vector<DyingModule> Dying;
  std::unordered_set<int64_t> SeenHandles;
  for (PendingDlclose *P : Batch) {
    int64_t H = P->Handle;
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
    assert(static_cast<size_t>(H) < Policy.SiteIndexBase.size() &&
           "policy is stale relative to the module list");
    DyingModule D;
    D.P = P;
    D.Idx = static_cast<int>(H);
    D.Serial = Mod.Serial;
    D.SigKey = hashModuleSigKey(*Mod.Obj);
    D.CodeBegin = Mod.CodeBase;
    D.CodeEnd = Mod.CodeBase + Mod.CodeSize;
    D.SiteBase = Policy.SiteIndexBase[static_cast<size_t>(H)];
    D.SiteCount = static_cast<uint32_t>(Mod.Obj->Aux.BranchSites.size());
    Dying.push_back(std::move(D));
  }
  BS.Closed = static_cast<uint32_t>(Dying.size());
  if (Dying.empty()) {
    UnloadHistory.push_back(BS);
    return;
  }

  auto InDyingTary = [&](uint64_t Off) {
    uint64_t Addr = Machine::CodeBase + Off;
    for (const DyingModule &D : Dying)
      if (Addr >= D.CodeBegin && Addr < D.CodeEnd)
        return true;
    return false;
  };
  auto DyingOwnerOfSite = [&](uint32_t Site) -> int {
    for (size_t I = 0; I != Dying.size(); ++I)
      if (Site >= Dying[I].SiteBase &&
          Site < Dying[I].SiteBase + Dying[I].SiteCount)
        return static_cast<int>(I);
    return -1;
  };

  // Exclusive-ECN computation, against the shadow BEFORE the scrub: an
  // ECN is condemned iff every occurrence across the installed image
  // (Tary values and live Bary values) lies inside the dying set. A
  // class shared with a surviving module stays live — its surviving
  // members keep matching, so its number is not up for reuse. The
  // reserved EmptyClassECN is shared by construction and never matches a
  // target; it is never condemned.
  {
    struct Occurrence {
      uint64_t Total = 0, InDying = 0;
      std::vector<int> Owners; ///< dying-module indexes holding it
    };
    std::unordered_map<uint32_t, Occurrence> Occ;
    const PolicyImage &Img = Shadow.image();
    for (const auto &[Off, ECN] : Img.TaryECN) {
      Occurrence &C = Occ[ECN];
      ++C.Total;
      if (InDyingTary(Off)) {
        ++C.InDying;
        // Tary occurrences are attributed below via the owning range.
        for (size_t I = 0; I != Dying.size(); ++I)
          if (Machine::CodeBase + Off >= Dying[I].CodeBegin &&
              Machine::CodeBase + Off < Dying[I].CodeEnd)
            if (C.Owners.empty() || C.Owners.back() != static_cast<int>(I))
              C.Owners.push_back(static_cast<int>(I));
      }
    }
    for (size_t Site = 0; Site != Img.BaryECN.size(); ++Site) {
      int64_t E = Img.BaryECN[Site];
      if (E < 0)
        continue;
      Occurrence &C = Occ[static_cast<uint32_t>(E)];
      ++C.Total;
      int Owner = DyingOwnerOfSite(static_cast<uint32_t>(Site));
      if (Owner >= 0) {
        ++C.InDying;
        if (C.Owners.empty() || C.Owners.back() != Owner)
          C.Owners.push_back(Owner);
      }
    }
    for (auto &[ECN, C] : Occ) {
      if (ECN == EmptyClassECN || C.InDying == 0 || C.InDying != C.Total)
        continue;
      // Exclusive to the dying set: condemn it on every dying module
      // that holds it (the reclaimer counts multiplicity, so the number
      // stays condemned until the LAST holder matures).
      std::sort(C.Owners.begin(), C.Owners.end());
      C.Owners.erase(std::unique(C.Owners.begin(), C.Owners.end()),
                     C.Owners.end());
      for (int Owner : C.Owners)
        Dying[static_cast<size_t>(Owner)].CondemnedECNs.push_back(ECN);
    }
    for (DyingModule &D : Dying)
      std::sort(D.CondemnedECNs.begin(), D.CondemnedECNs.end());
  }

  // Step 1 of the retire protocol: make the dying modules invisible to
  // symbol lookups BEFORE the table transaction, so the GOT-zeroing hook
  // running between its phases re-resolves imports without them.
  for (const DyingModule &D : Dying)
    M.markModuleRetired(D.Idx, D.SiteCount);

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
  TxUpdateStats Stats;
  Stats.BatchModules = BS.Closed;
  auto Start = std::chrono::steady_clock::now();
  TxUpdateStatus Status = M.tables().txUpdateRetire(
      Ranges, Sites, [this]() { updateGotEntries(); }, &Stats);
  assert(Status == TxUpdateStatus::Ok &&
         "retire transactions never exhaust version space");
  (void)Status;
  Stats.Micros = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  UpdateHistory.push_back(Stats);
  BS.RetireMicros = Stats.Micros;

  // Mirror the zeroing into the shadow so the next delta diffs against
  // what the tables actually hold now.
  for (const DyingModule &D : Dying) {
    std::vector<uint32_t> ModSites;
    ModSites.reserve(D.SiteCount);
    for (uint32_t S = 0; S != D.SiteCount; ++S)
      ModSites.push_back(D.SiteBase + S);
    Shadow.retireRange(D.CodeBegin - Machine::CodeBase,
                       D.CodeEnd - Machine::CodeBase, ModSites);
  }

  // Drop cached per-module signature sets and the patched-site record
  // (keyed by Serial, so a future occupant of the index re-patches).
  for (const DyingModule &D : Dying) {
    SigSetCache::global().drop(D.SigKey);
    BaryPatched.erase(D.Serial);
  }

  // Step 2 of the retire protocol: the code ranges + condemned ECNs
  // enter the reclaimer's grace period. The code stays mapped and
  // executable until every guest thread passes a quiescent point.
  for (DyingModule &D : Dying)
    M.retireModule(D.Idx, std::move(D.CondemnedECNs));

  // Regenerate the policy with the dying modules as tombstones. In the
  // common self-contained case the result flattens to exactly the
  // scrubbed shadow (survivors keep their classes and numbering), and no
  // second transaction is needed: the retire-only fast path. Otherwise
  // (class splits, renumbering) the full install's version bump makes
  // every stale pre-unload ID snapshot fail.
  auto MergeStart = std::chrono::steady_clock::now();
  CFGPolicy NewPolicy = generateCFG(moduleViews(), Opts.Refinement);
  BS.MergeMicros = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - MergeStart)
                       .count();
  if (sameImage(flattenPolicy(NewPolicy), Shadow.image())) {
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
  // docs/INTERNALS.md §17.
  for (const DyingModule &D : Dying)
    D.P->Ok = true;
  UnloadHistory.push_back(BS);
}
