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

int Machine::mapModule(MCFIObject Obj) {
  uint64_t CodeSize = Obj.Code.size();
  uint64_t NeededCode = (CodeSize + 7) & ~7ull; // keep modules 8-aligned

  MappedModule M;
  // Globals come from the heap's allocator, so they can never land on a
  // live heap block; a dead module's range is reused first (it was zeroed
  // at reclaim, so its BSS reads 0).
  M.DataBase = DataBase;
  if (Obj.DataSize) {
    if (Obj.DataSize > DataCapacity)
      return -1; // refuse before rounding can wrap
    M.DataSize = (Obj.DataSize + 7) & ~7ull;
    M.DataBase = Reclaimer.allocDataFromFree(M.DataSize);
    if (!M.DataBase)
      M.DataBase = allocHeap(M.DataSize);
    if (!M.DataBase)
      return -1;
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
      return -1;
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

  M.Obj = std::make_unique<MCFIObject>(std::move(Obj));
  int Index;
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    M.Serial = NextModuleSerial++;
    Mapped.push_back(std::move(M));
    Index = static_cast<int>(Mapped.size() - 1);
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
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    assert(Index >= 0 && static_cast<size_t>(Index) < Mapped.size());
    const MappedModule &M = Mapped[Index];
    Obj = M.Obj.get();
    Code = codePtr(M.CodeBase, Obj->Code.size());
  }
  sealModule(Index, disassembleModule(Code, Obj->Code.size(), *Obj));
}

void Machine::recomputeSealedPrefixLocked() {
  // The contiguous sealed prefix (fast executable check). With free-list
  // reuse the Mapped order is no longer address order, and reclaimed
  // holes break contiguity: walk spans sorted by base address and stop
  // at the first gap, unsealed module, or reclaimed hole. Retired (but
  // not yet reclaimed) modules still count — their code stays mapped and
  // executable until the grace period elapses.
  std::vector<std::pair<uint64_t, uint64_t>> Spans; // {Base, End}, sealed
  Spans.reserve(Mapped.size());
  for (const MappedModule &M : Mapped) {
    if (M.Reclaimed || !M.Sealed)
      continue;
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

void Machine::auditPatchTarget(uint64_t Addr) {
  // ModuleLock: a concurrent drainReclaim mutates Mapped (Reclaimed
  // flags, Obj teardown, tail-trim pop_back) and a concurrent dlopen
  // grows it. The patched module itself is mid-install — unsealed,
  // unretired — so its bytes can't be concurrently reclaimed, but this
  // W^X audit walk must not race the bookkeeping. Retired modules are
  // skipped along with reclaimed ones: their entry may still claim a
  // range whose grace period matured onto the free list an instant ago
  // (collect publishes the range before applyReclaim flips Reclaimed),
  // and a new module legitimately patching that reused range must not
  // trip the old tombstone's Sealed flag.
  std::lock_guard<std::mutex> Guard(ModuleLock);
  for (const MappedModule &M : Mapped) {
    if (M.Reclaimed || M.Retired)
      continue;
    if (Addr >= M.CodeBase && Addr < M.CodeBase + M.Obj->Code.size()) {
      assert(!M.Sealed && "patching a sealed module violates W^X");
      break;
    }
  }
  (void)Addr;
}

void Machine::patchCode64(uint64_t Addr, uint64_t Value) {
  assert(isCodeAddr(Addr, 8) && "patch outside code region");
  auditPatchTarget(Addr);
  uint64_t Off = Addr - CodeBase;
  for (unsigned I = 0; I != 8; ++I)
    CodeBytes[Off + I] = static_cast<uint8_t>(Value >> (8 * I));
}

void Machine::patchCode32(uint64_t Addr, uint32_t Value) {
  assert(isCodeAddr(Addr, 4) && "patch outside code region");
  auditPatchTarget(Addr);
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
  // Serialize against the linker's batch leaders: their module walks
  // (moduleViews, GOT updates, Bary-index patching) span many
  // ModuleLock-sized critical sections and would otherwise observe the
  // tail-trim's pop_back mid-walk. Lock order: ReclaimApplyLock before
  // ModuleLock (the guest quiescence path adds QuiesceLock in front).
  auto ApplyGuard = lockReclaimApply();
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    for (const RetiredRegion &R : Matured) {
      for (MappedModule &M : Mapped) {
        if (M.Serial != R.Serial)
          continue;
        assert(M.Retired && "reclaiming a live module");
        M.Reclaimed = true;
        M.Obj.reset(); // drop symbols/metadata; the tombstone stays
        // A segment still holding the decode keeps it alive until the
        // next segment() replaces that segment.
        M.Decode.reset();
        // The W^X "unmap": the range is no longer executable content.
        // A stray fetch into the hole reads zeroes and traps on decode —
        // it can never execute stale module bytes.
        std::memset(CodeBytes.data() + (R.CodeBase - CodeBase), 0,
                    R.SizeBytes);
        // The globals go back as BSS for the next module. Word stores, as
        // Machine::store makes them: a guest thread holding a dangling
        // pointer into them may still race this.
        uint64_t *Words = DataWords.data() + (R.DataBase - DataBase) / 8;
        for (uint64_t I = 0; I != R.DataSize / 8; ++I)
          std::atomic_ref<uint64_t>(Words[I]).store(0,
                                                    std::memory_order_relaxed);
        break;
      }
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

bool Machine::load(uint64_t Addr, unsigned Size, uint64_t &Out) const {
  if (Addr & (Size - 1))
    return false; // naturally aligned accesses only
  if (isDataAddr(Addr, Size)) {
    uint8_t *Base =
        reinterpret_cast<uint8_t *>(DataWords.data()) + (Addr - DataBase);
    switch (Size) {
    case 1:
      Out = std::atomic_ref<uint8_t>(*Base).load(std::memory_order_relaxed);
      return true;
    case 2:
      Out = std::atomic_ref<uint16_t>(*reinterpret_cast<uint16_t *>(Base))
                .load(std::memory_order_relaxed);
      return true;
    case 4:
      Out = std::atomic_ref<uint32_t>(*reinterpret_cast<uint32_t *>(Base))
                .load(std::memory_order_relaxed);
      return true;
    case 8:
      Out = std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t *>(Base))
                .load(std::memory_order_relaxed);
      return true;
    default:
      return false;
    }
  }
  if (isCodeAddr(Addr, Size)) {
    // The code region is readable (jump tables live there); it is sealed
    // and immutable once executing, so plain reads suffice.
    const uint8_t *Base = CodeBytes.data() + (Addr - CodeBase);
    Out = 0;
    for (unsigned I = 0; I != Size; ++I)
      Out |= static_cast<uint64_t>(Base[I]) << (8 * I);
    return true;
  }
  return false;
}

bool Machine::store(uint64_t Addr, unsigned Size, uint64_t Value) {
  if (Addr & (Size - 1))
    return false;
  if (!isDataAddr(Addr, Size))
    return false; // code region and everything else is not writable
  uint8_t *Base =
      reinterpret_cast<uint8_t *>(DataWords.data()) + (Addr - DataBase);
  switch (Size) {
  case 1:
    std::atomic_ref<uint8_t>(*Base).store(static_cast<uint8_t>(Value),
                                          std::memory_order_relaxed);
    return true;
  case 2:
    std::atomic_ref<uint16_t>(*reinterpret_cast<uint16_t *>(Base))
        .store(static_cast<uint16_t>(Value), std::memory_order_relaxed);
    return true;
  case 4:
    std::atomic_ref<uint32_t>(*reinterpret_cast<uint32_t *>(Base))
        .store(static_cast<uint32_t>(Value), std::memory_order_relaxed);
    return true;
  case 8:
    std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t *>(Base))
        .store(Value, std::memory_order_relaxed);
    return true;
  default:
    return false;
  }
}

std::string Machine::readString(uint64_t Addr) const {
  std::string S;
  for (uint64_t I = 0; I != 1u << 20; ++I) {
    uint64_t C;
    if (!load(Addr + I, 1, C))
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

uint64_t Machine::findFunction(const std::string &Name) const {
  // Guest dlsym resolves symbols while dlopen may be appending to
  // Mapped from another thread; the walk must hold the module lock.
  std::lock_guard<std::mutex> Guard(ModuleLock);
  for (const MappedModule &M : Mapped) {
    if (M.Retired) // dlclosed modules are invisible to symbol lookup
      continue;
    if (const FunctionInfo *F = M.Obj->findFunction(Name))
      return M.CodeBase + F->CodeOffset;
  }
  return 0;
}

uint64_t Machine::dlsymLookup(int64_t Handle, const std::string &Name) const {
  {
    std::lock_guard<std::mutex> Guard(ModuleLock);
    if (Handle >= 0 && static_cast<size_t>(Handle) < Mapped.size()) {
      const MappedModule &M = Mapped[static_cast<size_t>(Handle)];
      if (M.Retired) // stale handle to a dlclosed module
        return 0;
      if (const FunctionInfo *F = M.Obj->findFunction(Name))
        return M.CodeBase + F->CodeOffset;
      return 0;
    }
  }
  return findFunction(Name);
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
