//===- runtime/Machine.cpp - The MCFI runtime machine ---------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Machine.h"

#include "runtime/Dispatch.h"
#include "support/Assert.h"

#include <algorithm>
#include <cstring>

using namespace mcfi;

Machine::Machine(const MachineOptions &Opts)
    : CodeCapacity(Opts.CodeCapacity), DataCapacity(Opts.DataCapacity),
      StackSize(Opts.StackSize), CodeBytes(Opts.CodeCapacity),
      DataWords(Opts.DataCapacity / 8),
      Tables(Opts.CodeCapacity, Opts.BaryCapacity), Tier(Opts.Tier) {
  // Module globals and heap blocks share one bump pointer growing up from
  // the bottom of the data region; stacks grow down from the top.
  HeapNext.store(DataBase, std::memory_order_relaxed);
  StackNext.store(DataBase + DataCapacity, std::memory_order_relaxed);
}

Machine::~Machine() = default;

//===----------------------------------------------------------------------===//
// Module mapping
//===----------------------------------------------------------------------===//

int Machine::mapModule(std::shared_ptr<const MCFIObject> ObjPtr) {
  const MCFIObject &Obj = *ObjPtr;
  // Refuse, before anything is written, an initializer reaching past the
  // module's own globals onto a neighbour's: an in-memory object never
  // went through readObject's bounds.
  if (!dataInitsFit(Obj))
    return MapBadDataInit;
  uint64_t CodeSize = Obj.Code.size();
  uint64_t NeededCode = (CodeSize + 7) & ~7ull; // keep modules 8-aligned

  MappedModule M;
  // Globals come from the heap's allocator, so they can never land on a
  // live heap block; a dead module's range is reused first (it was zeroed
  // at reclaim, so its BSS reads 0).
  M.DataBase = DataBase;
  if (Obj.DataSize) {
    if (Obj.DataSize > DataCapacity)
      return MapNoRoom; // refuse before rounding can wrap
    M.DataSize = (Obj.DataSize + 7) & ~7ull;
    M.DataBase = Reclaimer.allocDataFromFree(M.DataSize);
    if (!M.DataBase)
      M.DataBase = allocHeap(M.DataSize);
    if (!M.DataBase)
      return MapNoRoom;
  }
  // Prefer a reclaimed hole: ranges reach the free list only after their
  // grace period, so reuse here can never alias a range a guest thread
  // still holds pre-retire state for.
  uint64_t ReusedBase = Reclaimer.allocFromFree(NeededCode, 8);
  if (ReusedBase) {
    M.CodeBase = ReusedBase;
    // An object with no code has a null Code.data(); memcpy from null is
    // undefined even at size 0.
    if (CodeSize)
      std::memcpy(CodeBytes.data() + (ReusedBase - CodeBase), Obj.Code.data(),
                  CodeSize);
  } else {
    uint64_t Used = CodeUsed.load(std::memory_order_relaxed);
    if (Used + NeededCode > CodeCapacity) {
      Reclaimer.addFreeDataRange(M.DataBase, M.DataSize); // still zero
      return MapNoRoom;
    }
    M.CodeBase = CodeBase + Used;
    if (CodeSize)
      std::memcpy(CodeBytes.data() + Used, Obj.Code.data(), CodeSize);
    // Publish the extension only after the bytes are in place: a guest
    // thread whose isCodeAddr sees the new extent must see the code too.
    CodeUsed.store(Used + NeededCode, std::memory_order_release);
  }
  M.CodeSize = NeededCode;

  for (const auto &[Off, Bytes] : Obj.DataInit)
    writeDataBytes(M.DataBase + Off, Bytes.data(), Bytes.size());

  M.Obj = std::move(ObjPtr);
  int Index;
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    M.Serial = NextModuleSerial++;
    Index = static_cast<int>(Mapped.size());
    for (const FunctionInfo &F : M.Obj->Aux.Functions)
      // A name repeated within the module keeps its first definition.
      if (!findSymbolLocked(F.Name, Index))
        Symbols.emplace(F.Name, SymbolDef{Index, M.CodeBase + F.CodeOffset});
    Mapped.push_back(std::move(M));
    Present.push_back(Index);
  }
  noteCodeChanged();
  return Index;
}

void Machine::sealModule(int Index, visa::Disassembly Dis) {
  uint64_t Serial, Base, Size;
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    assert(Index >= 0 && static_cast<size_t>(Index) < Mapped.size());
    const MappedModule &M = Mapped[Index];
    assert(!M.Sealed && Dis.IndexByOff.size() == M.Obj->Code.size() &&
           "the disassembly does not cover this module's bytes");
    Serial = M.Serial;
    Base = M.CodeBase;
    Size = M.CodeSize;
  }
  // The bytes are final (the module is unsealed, so only its own linker
  // batch writes them): build the decode outside the lock.
  std::shared_ptr<const DecodedModule> Decode =
      makeDecodedModule(std::move(Dis), Serial, Base, Size);
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    MappedModule &M = Mapped[Index];
    M.Decode = std::move(Decode);
    M.Sealed = true;
    recomputeSealedPrefixLocked();
  }
  VMTierStats St;
  St.ModulesDecoded = 1;
  creditTierStats(St);
  noteCodeChanged();
}

void Machine::sealModule(int Index) {
  const uint8_t *Code;
  const MCFIObject *Obj;
  uint64_t Base;
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    assert(Index >= 0 && static_cast<size_t>(Index) < Mapped.size());
    const MappedModule &M = Mapped[Index];
    Obj = M.Obj.get();
    Base = M.CodeBase;
    Code = codePtr(Base, Obj->Code.size());
  }
  sealModule(Index, disassembleModule(Code, Obj->Code.size(), *Obj, Base));
}

void Machine::recomputeSealedPrefixLocked() {
  // The contiguous sealed prefix (fast executable check). With free-list
  // reuse the Mapped order is no longer address order, and reclaimed
  // holes break contiguity: walk spans sorted by base address and stop
  // at the first gap, unsealed module, or reclaimed hole. Retired (but
  // not yet reclaimed) modules still count — their code stays mapped and
  // executable until the grace period elapses.
  std::vector<std::pair<uint64_t, uint64_t>> Spans; // {Base, End}, sealed
  Spans.reserve(Present.size());
  for (int Index : Present) {
    const MappedModule &M = Mapped[Index];
    if (M.Sealed)
      Spans.emplace_back(M.CodeBase, M.CodeBase + M.CodeSize);
  }
  std::sort(Spans.begin(), Spans.end());
  uint64_t End = CodeBase;
  for (const auto &[B, E] : Spans) {
    if (B != End)
      break;
    End = E;
  }
  SealedPrefix.store(End - CodeBase, std::memory_order_release);
}

void Machine::auditPatchTarget([[maybe_unused]] int Module,
                               [[maybe_unused]] uint64_t Addr,
                               [[maybe_unused]] uint64_t Width) const {
#ifndef NDEBUG
  // ModuleLock: a concurrent dlopen may grow Mapped. The patched module
  // is mid-install, so nothing else writes its entry; the audit is O(1).
  std::lock_guard<std::mutex> Guard(ModuleLock);
  assert(Module >= 0 && static_cast<size_t>(Module) < Mapped.size() &&
         "patching an unmapped module");
  const MappedModule &M = Mapped[Module];
  assert(!M.Sealed && !M.Retired &&
         "patching a sealed or retired module violates W^X");
  uint64_t Off = Addr - M.CodeBase, Size = M.Obj->Code.size();
  assert(Off <= Size && Width <= Size - Off && "patch outside its module");
#endif
}

void Machine::patchCode64(int Module, uint64_t Addr, uint64_t Value) {
  auditPatchTarget(Module, Addr, 8);
  uint64_t Off = Addr - CodeBase;
  for (unsigned I = 0; I != 8; ++I)
    CodeBytes[Off + I] = static_cast<uint8_t>(Value >> (8 * I));
}

void Machine::patchCode32(int Module, uint64_t Addr, uint32_t Value) {
  auditPatchTarget(Module, Addr, 4);
  uint64_t Off = Addr - CodeBase;
  for (unsigned I = 0; I != 4; ++I)
    CodeBytes[Off + I] = static_cast<uint8_t>(Value >> (8 * I));
}

const uint8_t *Machine::codePtr(uint64_t Addr, uint64_t Size) const {
  if (!isCodeAddr(Addr, Size))
    return nullptr;
  return CodeBytes.data() + (Addr - CodeBase);
}

//===----------------------------------------------------------------------===//
// Policy state
//===----------------------------------------------------------------------===//

void Machine::setSetjmpRetSites(std::vector<uint64_t> Sites) {
  std::lock_guard<std::mutex> Guard(SetjmpLock);
  SetjmpSites.clear();
  SetjmpSites.insert(Sites.begin(), Sites.end());
}

bool Machine::isSetjmpRetSite(uint64_t Addr) const {
  std::lock_guard<std::mutex> Guard(SetjmpLock);
  return SetjmpSites.count(Addr) != 0;
}

void Machine::noteSyscallBoundary(Thread &T) {
  uint64_t Gen = QuiesceGen.load(std::memory_order_acquire);
  if (T.QuiesceGen == Gen)
    return; // already counted this generation
  T.QuiesceGen = Gen;

  std::lock_guard<std::mutex> Guard(QuiesceLock);
  // The generation may have advanced while we waited for the lock; the
  // thread's stamp still marks it quiesced for the *new* generation only
  // if the stamps match.
  if (Gen != QuiesceGen.load(std::memory_order_relaxed))
    return;
  ++QuiescedThisGen;
  if (QuiescedThisGen < RunningThreads.load(std::memory_order_acquire))
    return;
  // Every thread currently inside the interpreter has crossed a syscall
  // boundary this generation: no in-flight check transaction can hold a
  // pre-generation version, so the ABA counter resets (Sec. 5.2).
  Tables.resetVersionEpoch();
  QuiescedThisGen = 0;
  QuiesceGen.store(Gen + 1, std::memory_order_release);
  // Generation completion is also the reclaimer's grace clock: regions
  // retired at generation R mature once Gen+1 >= R+2 (the completion of
  // R+1 proves every thread crossed a boundary strictly after the
  // retire). QuiesceLock is held; applyReclaim takes ModuleLock inside
  // it, which no path acquires in the opposite order.
  applyReclaim(Reclaimer.collect(Gen + 1));
  if (QuiesceEpochHook)
    QuiesceEpochHook(Gen);
}

//===----------------------------------------------------------------------===//
// Module unload
//===----------------------------------------------------------------------===//

void Machine::markModuleRetired(int Index, uint32_t TombstoneSites) {
  std::lock_guard<std::mutex> Guard(ModuleLock);
  assert(Index >= 0 && static_cast<size_t>(Index) < Mapped.size());
  MappedModule &M = Mapped[Index];
  assert(!M.Retired && "module retired twice");
  M.Retired = true;
  M.TombstoneSites = TombstoneSites;
  for (const FunctionInfo &F : M.Obj->Aux.Functions) {
    for (auto [It, End] = Symbols.equal_range(F.Name); It != End; ++It) {
      if (It->second.Module == Index) {
        Symbols.erase(It);
        break;
      }
    }
  }
}

void Machine::retireModule(int Index, std::vector<uint32_t> ExclusiveECNs) {
  RetiredRegion R;
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    assert(Index >= 0 && static_cast<size_t>(Index) < Mapped.size());
    MappedModule &M = Mapped[Index];
    assert(M.Retired && "retireModule without markModuleRetired");
    R.CodeBase = M.CodeBase;
    R.SizeBytes = M.CodeSize;
    R.DataBase = M.DataBase;
    R.DataSize = M.DataSize;
    R.Serial = M.Serial;
  }
  R.ECNs = std::move(ExclusiveECNs);
  // Stamp with the forming generation: threads already counted toward it
  // may still be mid-transaction, hence the R+2 maturity rule.
  R.RetireGen = QuiesceGen.load(std::memory_order_acquire);
  Reclaimer.retire(std::move(R));
}

void Machine::drainReclaim() {
  if (RunningThreads.load(std::memory_order_acquire) == 0) {
    // No guest thread is inside the interpreter: there are no readers,
    // so every pending region is trivially past grace.
    applyReclaim(Reclaimer.collectAll());
    return;
  }
  applyReclaim(
      Reclaimer.collect(QuiesceGen.load(std::memory_order_acquire)));
}

void Machine::applyReclaim(const std::vector<RetiredRegion> &Matured) {
  if (Matured.empty())
    return;
  // Serialize against the linker's link operations: their module reads
  // (GOT updates, Bary-index patching, the merge's views) span many
  // ModuleLock-sized critical sections and would otherwise observe the
  // tail-trim's pop_back mid-walk. Lock order: ReclaimApplyLock before
  // ModuleLock (the guest quiescence path adds QuiesceLock in front).
  auto ApplyGuard = lockReclaimApply();
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    for (const RetiredRegion &R : Matured) {
      // Mapped ascends by Serial (see MappedModule::Serial).
      auto It = std::lower_bound(
          Mapped.begin(), Mapped.end(), R.Serial,
          [](const MappedModule &M, uint64_t S) { return M.Serial < S; });
      if (It == Mapped.end() || It->Serial != R.Serial)
        continue;
      MappedModule &M = *It;
      assert(M.Retired && "reclaiming a live module");
      M.Reclaimed = true;
      // Drop this mapping's reference to the object (the linker's
      // registry may still hold it); the tombstone stays.
      M.Obj.reset();
      // A segment still holding the decode keeps it alive until the next
      // segment() replaces that segment.
      M.Decode.reset();
      int Index = static_cast<int>(It - Mapped.begin());
      auto P = std::lower_bound(Present.begin(), Present.end(), Index);
      assert(P != Present.end() && *P == Index && "reclaimed twice");
      Present.erase(P);
      // The W^X "unmap": the range is no longer executable content. A
      // stray fetch into the hole reads zeroes and traps on decode — it
      // can never execute stale module bytes.
      std::memset(CodeBytes.data() + (R.CodeBase - CodeBase), 0,
                  R.SizeBytes);
      // The globals go back as BSS for the next module. Word stores, as
      // Machine::store makes them: a guest thread holding a dangling
      // pointer into them may still race this.
      uint64_t *Words = DataWords.data() + (R.DataBase - DataBase) / 8;
      for (uint64_t I = 0; I != R.DataSize / 8; ++I)
        std::atomic_ref<uint64_t>(Words[I]).store(0,
                                                  std::memory_order_relaxed);
    }
    recomputeSealedPrefixLocked();
    // Publish the ranges for reuse only now that the bytes are zeroed:
    // a range on the free list is immediately allocatable by the next
    // mapModule, which must never have its freshly copied code or data
    // wiped by the zeroing above (collect() deliberately does not
    // publish).
    for (const RetiredRegion &R : Matured) {
      Reclaimer.addFreeRange(R.CodeBase, R.SizeBytes);
      Reclaimer.addFreeDataRange(R.DataBase, R.DataSize);
    }
    // Tail-trim cascade: peel matured holes off the top of the code
    // region and retreat CodeUsed, so a machine that unloads everything
    // it dlopened returns to its exact initial footprint (the churn
    // storm asserts this). Interior holes stay on the free list for
    // reuse by the next mapModule.
    FreeRange Top;
    while (Reclaimer.takeFreeRangeEndingAt(codeTop(), Top)) {
      CodeUsed.store(Top.Base - CodeBase, std::memory_order_release);
      while (!Mapped.empty() && Mapped.back().Reclaimed &&
             Mapped.back().CodeBase >= Top.Base)
        Mapped.pop_back();
    }
  }
  noteCodeChanged();
}

//===----------------------------------------------------------------------===//
// Guest memory
//===----------------------------------------------------------------------===//

std::string Machine::readString(uint64_t Addr) const {
  std::string S;
  for (uint64_t I = 0; I != 1u << 20; ++I) {
    uint64_t C;
    if (!load<1>(Addr + I, C))
      return S;
    if (!C)
      return S;
    S += static_cast<char>(C);
  }
  return S;
}

bool Machine::writeDataBytes(uint64_t Addr, const uint8_t *Bytes,
                             uint64_t Size) {
  if (!isDataAddr(Addr, std::max<uint64_t>(Size, 1)))
    return false;
  std::memcpy(reinterpret_cast<uint8_t *>(DataWords.data()) +
                  (Addr - DataBase),
              Bytes, Size);
  return true;
}

// allocHeap and allocStack use sequentially consistent atomics, and the
// heap always leaves one stack's worth of room below the lowest stack, so
// a heap and a stack allocation racing each other can never overlap.

uint64_t Machine::allocHeap(uint64_t Size) {
  if (Size > DataCapacity)
    return 0; // guest-chosen size: refuse before the bump can wrap
  uint64_t Aligned = (Size + 7) & ~7ull;
  // A refused request leaves the bump pointer where it was: module
  // globals share it, so an oversized guest malloc or module must not
  // starve every later load and stack.
  uint64_t Addr = HeapNext.load();
  do {
    // Keep room below the lowest allocated stack.
    if (Addr + Aligned > StackNext.load() - StackSize)
      return 0;
  } while (!HeapNext.compare_exchange_weak(Addr, Addr + Aligned));
  return Addr;
}

uint64_t Machine::allocStack() {
  // Threads may be created concurrently (guest pthread-create analogue).
  // HeapNext never drops below DataBase, so refusing to cross the heap's
  // high-water mark also refuses to wrap below the data region.
  uint64_t Top = StackNext.load();
  do {
    if (Top < HeapNext.load() + StackSize)
      return 0;
  } while (!StackNext.compare_exchange_weak(Top, Top - StackSize));
  return Top - 64; // small top redzone
}

//===----------------------------------------------------------------------===//
// Syscall output
//===----------------------------------------------------------------------===//

void Machine::appendOutput(const std::string &S) {
  std::lock_guard<std::mutex> Guard(OutputLock);
  Output += S;
}

std::string Machine::takeOutput() {
  std::lock_guard<std::mutex> Guard(OutputLock);
  return std::move(Output);
}

//===----------------------------------------------------------------------===//
// Threads
//===----------------------------------------------------------------------===//

const Machine::SymbolDef *Machine::findSymbolLocked(std::string_view Name,
                                                    int Module) const {
  const SymbolDef *First = nullptr;
  for (auto [It, End] = Symbols.equal_range(Name); It != End; ++It) {
    const SymbolDef &D = It->second;
    if (Module >= 0 && D.Module == Module)
      return &D;
    if (Module < 0 && (!First || D.Module < First->Module))
      First = &D;
  }
  return First;
}

uint64_t Machine::findFunction(const std::string &Name) const {
  std::lock_guard<std::mutex> Guard(ModuleLock);
  const SymbolDef *D = findSymbolLocked(Name, -1);
  return D ? D->Addr : 0;
}

size_t Machine::symbolIndexEntries() const {
  std::lock_guard<std::mutex> Guard(ModuleLock);
  return Symbols.size();
}

uint64_t Machine::dlsymLookup(int64_t Handle, const std::string &Name) const {
  std::lock_guard<std::mutex> Guard(ModuleLock);
  // A stale handle to a dlclosed module has no entries left.
  bool Scoped = Handle >= 0 && static_cast<size_t>(Handle) < Mapped.size();
  const SymbolDef *D =
      findSymbolLocked(Name, Scoped ? static_cast<int>(Handle) : -1);
  return D ? D->Addr : 0;
}

VMTierStats Machine::vmStats() const {
  VMTierStats S;
  S.InterpInstrs = StatInterpInstrs.load(std::memory_order_relaxed);
  S.ThreadedInstrs = StatThreadedInstrs.load(std::memory_order_relaxed);
  S.FusedChecks = StatFusedChecks.load(std::memory_order_relaxed);
  S.SegmentsBuilt = StatSegmentsBuilt.load(std::memory_order_relaxed);
  S.ModulesDecoded = StatModulesDecoded.load(std::memory_order_relaxed);
  return S;
}

void Machine::creditTierStats(const VMTierStats &S) {
  auto Add = [](std::atomic<uint64_t> &C, uint64_t V) {
    if (V)
      C.fetch_add(V, std::memory_order_relaxed);
  };
  Add(StatInterpInstrs, S.InterpInstrs);
  Add(StatThreadedInstrs, S.ThreadedInstrs);
  Add(StatFusedChecks, S.FusedChecks);
  Add(StatSegmentsBuilt, S.SegmentsBuilt);
  Add(StatModulesDecoded, S.ModulesDecoded);
}

bool Machine::makeThread(const std::string &Name, Thread &T) {
  uint64_t Entry = findFunction(Name);
  if (!Entry)
    return false;
  uint64_t SP = allocStack();
  if (!SP)
    return false;
  T = Thread();
  T.PC = Entry;
  T.Regs[visa::RegSP] = SP;
  return true;
}
