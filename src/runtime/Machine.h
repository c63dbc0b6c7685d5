//===- runtime/Machine.h - The MCFI runtime machine -------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MCFI runtime (paper Sec. 7, based on the MIP runtime): a sandboxed
/// machine with separate code and data regions, the W^X invariant ("no
/// memory regions are both writable and executable at the same time"),
/// the Bary/Tary ID tables, syscall interposition, and threads executing
/// VISA code through the engines in VM.cpp and Dispatch.cpp.
///
/// Layout (all inside the [0, 4 GiB) sandbox the instrumentation masks
/// addresses into):
///   [CodeBase, CodeBase+CodeCapacity)   code region; modules are loaded
///                                       writable, then sealed RX
///   [DataBase, DataBase+DataCapacity)   data region (globals, GOT, heap,
///                                       stacks); RW, never executable
/// Both regions, like the ID tables, are demand-zero reservations
/// (support/Region.h): a Machine commits only the pages it touches.
/// Module globals and heap blocks share one bump pointer growing up from
/// DataBase; stacks grow down from the top. When a dlclosed module's
/// grace period ends, its code and data ranges are zeroed and put on the
/// reclaimer's free lists, which the next mapModule checks first.
/// The ID tables live *outside* guest memory entirely (host side), which
/// is strictly stronger than the paper's segment-register protection: no
/// guest store can reach them at all. TableRead/BaryRead are the only
/// gateways, mirroring the %gs-relative reads of Fig. 4.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_RUNTIME_MACHINE_H
#define MCFI_RUNTIME_MACHINE_H

#include "module/MCFIObject.h"
#include "support/Region.h"
#include "tables/IDTables.h"
#include "tables/Reclaim.h"
#include "visa/ISA.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace mcfi {

class Machine;
struct DecodedModule;
struct DecodedSegment;

/// How Machine::run executes VISA bytes. Both tiers are RunResult-
/// identical (enforced by the differential tier harness); they differ
/// only in speed.
enum class ExecTier : uint8_t {
  Interpreter, ///< decode-per-step reference interpreter
  Threaded,    ///< predecoded stream + function-pointer handler dispatch
};

/// Counters for the execution tiers, reported in the metrics JSON.
struct VMTierStats {
  uint64_t InterpInstrs = 0;   ///< retired by decode-per-step fallback
  uint64_t ThreadedInstrs = 0; ///< retired by predecoded dispatch
  uint64_t FusedChecks = 0;    ///< fused TxCheck superinstruction runs
  uint64_t SegmentsBuilt = 0;  ///< predecoded segment constructions
  uint64_t ModulesDecoded = 0; ///< module decodes attached at seal
  /// Never written: the trace tier is gone, but the benchmark's per-layer
  /// metrics still read these, so they stay until it drops them.
  uint64_t TraceInstrs = 0, TraceHits = 0, TracesCompiled = 0,
           TracesInvalidated = 0;
};

/// Runtime syscall numbers. Values below 100 coincide with
/// minic::BuiltinKind (the compiler emits them); the rest are emitted
/// only by linker-synthesized code.
enum class SyscallNo : uint8_t {
  Malloc = 1,
  Free = 2,
  Setjmp = 3,
  Longjmp = 4,
  Signal = 5,
  Raise = 6,
  PrintInt = 7,
  PrintStr = 8,
  Exit = 9,
  Dlopen = 10,
  Dlsym = 11,
  Dlclose = 12,
  SigReturn = 100,
};

/// Why a thread stopped executing.
enum class StopReason : uint8_t {
  Exited,       ///< exit() syscall
  CfiViolation, ///< a check transaction executed hlt, or a runtime-
                ///< mediated transfer (longjmp/signal) failed validation
  Trap,         ///< memory fault, W^X violation, invalid opcode, ...
  OutOfFuel,    ///< instruction budget exhausted
};

struct RunResult {
  StopReason Reason = StopReason::Trap;
  int64_t ExitCode = 0;
  uint64_t Instructions = 0;
  std::string Message;
};

/// One guest thread: registers plus program counter. Threads share the
/// Machine's memory and tables; run several Thread objects on separate
/// host threads for multithreaded guests.
struct Thread {
  uint64_t Regs[visa::NumRegs] = {};
  uint64_t PC = 0;
  uint64_t Instructions = 0;
  /// Saved resume points for nested signal dispatches.
  std::vector<uint64_t> SignalReturnStack;
  /// Last quiescence generation this thread was observed crossing a
  /// syscall boundary in (see Machine::noteSyscallBoundary).
  uint64_t QuiesceGen = 0;
};

/// A module mapped into the machine.
///
/// Obj is the registered object itself, shared with the linker's registry
/// (no copy is made per mapping) and immutable: relocation and Bary
/// patching write guest memory, never the object.
///
/// Unload lifecycle (docs/INTERNALS.md §16): live -> Retired (dlclose ran
/// its retire transaction; code still mapped because a guest thread may
/// still be executing in it) -> Reclaimed (grace period elapsed; this
/// mapping's reference to Obj dropped — the object itself lives on while
/// the registry holds it — code bytes zeroed, range on the reclaimer's
/// free list).
/// Reclaimed entries stay in Mapped as tombstones so surviving module
/// indices — and the linker's positional site bookkeeping — never shift;
/// only trailing tombstones are popped by the tail-trim cascade. The
/// walks a load, unload, reclaim or segment build makes skip them: they
/// go over the machine's present list (see Machine::Present), not Mapped.
struct MappedModule {
  std::shared_ptr<const MCFIObject> Obj;
  uint64_t CodeBase = 0; ///< absolute
  uint64_t DataBase = 0; ///< absolute
  uint64_t CodeSize = 0; ///< 8-aligned mapped size (outlives Obj)
  uint64_t DataSize = 0; ///< 8-aligned globals size (outlives Obj)
  /// Monotonic, never-reused identity. Module *indices* are reused once
  /// trailing tombstones are popped; anything keyed across an unload
  /// must key on Serial instead. Mapped ascends by Serial: mapModule
  /// appends with the next Serial and only the tail-trim removes, from
  /// the back, so an index is reused only after every later one is gone.
  uint64_t Serial = 0;
  bool Sealed = false;   ///< code is RX (executable, not writable)
  bool Retired = false;  ///< dlclosed; out of the symbol index
  bool Reclaimed = false; ///< grace elapsed; Obj reference dropped, code zeroed
  /// The module's decode (runtime/Dispatch.h): attached by sealModule,
  /// dropped at reclaim, so it is set exactly while the module is sealed
  /// and unreclaimed.
  std::shared_ptr<const DecodedModule> Decode;
  /// Branch-site slot count captured by the linker at dlclose, so policy
  /// regeneration can emit a positionally-stable tombstone view after
  /// Obj has been dropped.
  uint32_t TombstoneSites = 0;
};

struct MachineOptions {
  uint64_t CodeCapacity = 8ull << 20;
  uint64_t DataCapacity = 64ull << 20;
  uint64_t StackSize = 1ull << 20;
  uint32_t BaryCapacity = 1u << 18;
  ExecTier Tier = ExecTier::Threaded;
};

/// The machine. See file comment for the memory model.
class Machine {
public:
  static constexpr uint64_t CodeBase = 0x10000;
  static constexpr uint64_t DataBase = 0x10000000; ///< 256 MiB mark

  explicit Machine(const MachineOptions &Opts = MachineOptions());
  ~Machine();

  //===--------------------------------------------------------------------===//
  // Module mapping (used by the linker)
  //===--------------------------------------------------------------------===//

  /// mapModule's refusals. Nothing is written for either.
  static constexpr int MapNoRoom = -1; ///< the code or data region is full
  /// A data initializer reaches past the object's DataSize (dataInitsFit).
  static constexpr int MapBadDataInit = -2;

  /// Copies \p Obj's code and data into the regions and keeps \p Obj
  /// itself (shared, never copied) as the module's object. The module
  /// starts *unsealed* (code writable for relocation patching, not
  /// executable). Returns the module index, or MapNoRoom/MapBadDataInit.
  int mapModule(std::shared_ptr<const MCFIObject> Obj);

  /// Seals module \p Index: code becomes executable and immutable, and
  /// the module gets its decode, made from \p Dis — the disassembly of
  /// its final bytes at its CodeBase (disassembleModule), the one the
  /// verifier checked at the object's first mapping — by moving its
  /// stream in, so the bytes are neither decoded nor copied a second
  /// time. Per the W^X invariant this is a
  /// one-way transition.
  void sealModule(int Index, visa::Disassembly Dis);

  /// Seals an unverified module: disassembles its bytes, then seals as
  /// above.
  void sealModule(int Index);

  const std::vector<MappedModule> &modules() const { return Mapped; }
  MappedModule &module(int Index) { return Mapped[Index]; }

  /// Next free code address (the load point for the next module).
  uint64_t codeTop() const {
    return CodeBase + CodeUsed.load(std::memory_order_acquire);
  }

  /// Host access to module bytes for relocation patching: writes the 8
  /// or 4 bytes at \p Addr, which must lie inside the code of module
  /// \p Module while it is unsealed and unretired. The W^X audit checks
  /// exactly that entry (asserts otherwise); the linker refuses a
  /// relocation that would reach past its module before it patches.
  void patchCode64(int Module, uint64_t Addr, uint64_t Value);
  void patchCode32(int Module, uint64_t Addr, uint32_t Value);

  /// Reads code bytes (for the verifier and the interpreter).
  const uint8_t *codePtr(uint64_t Addr, uint64_t Size) const;

  //===--------------------------------------------------------------------===//
  // Policy installation (called by the linker inside TxUpdate)
  //===--------------------------------------------------------------------===//

  IDTables &tables() { return Tables; }
  const IDTables &tables() const { return Tables; }

  /// Replaces the longjmp-validation set (absolute setjmp return sites).
  void setSetjmpRetSites(std::vector<uint64_t> Sites);

  /// Sec. 5.2's quiescence scheme: "if every thread is observed to
  /// finish using old-version IDs (e.g., when each thread invokes a
  /// system call), the counter is reset to zero." The interpreter calls
  /// this at every syscall while versionSpaceLow(); a thread at a
  /// syscall boundary holds no in-flight check transaction, so once all
  /// running threads have crossed one in the current generation, stale
  /// versions are unreachable and the tables' epoch counter resets.
  void noteSyscallBoundary(Thread &T);

  /// Installed by the linker: services the guest's dlopen syscall with
  /// Linker::dlopenOne. Guest threads that dlopen concurrently install
  /// one after another, one table installation each.
  std::function<int64_t(Machine &, int64_t)> DlopenHook;

  /// Installed by the linker: services the guest's dlclose syscall
  /// (returns 0 on success, -1 on a bad handle).
  std::function<int64_t(Machine &, int64_t)> DlcloseHook;

  //===--------------------------------------------------------------------===//
  // Module unload (called by the linker's dlclose path)
  //===--------------------------------------------------------------------===//

  /// Step 1 of unload: marks module \p Index retired, making it
  /// invisible to findFunction/dlsymLookup — the linker calls this
  /// *before* its table retire transaction so the transaction's GOT-
  /// zeroing hook re-resolves imports without the dying module. Records
  /// \p TombstoneSites for later policy regeneration.
  void markModuleRetired(int Index, uint32_t TombstoneSites);

  /// Step 2 of unload (after the table retire transaction): hands the
  /// module's code range plus its exclusive ECNs to the epoch reclaimer,
  /// stamped with the current quiescence generation. The code stays
  /// mapped and executable until the grace period elapses — a guest
  /// thread may still be running in it.
  void retireModule(int Index, std::vector<uint32_t> ExclusiveECNs);

  /// Opportunistically matures retired regions: with no running guest
  /// threads everything pending is drained (no readers exist); otherwise
  /// only regions past the R+2 grace rule are reclaimed. Safe to call at
  /// any time; tests and the churn benchmark call it between cycles.
  void drainReclaim();

  /// True while any retired region awaits its grace period. The VM keeps
  /// taking the quiescence path at syscall boundaries while set, so grace
  /// generations keep advancing.
  bool reclaimPending() const { return Reclaimer.pendingReclaim(); }

  EpochReclaimer &reclaimer() { return Reclaimer; }
  const EpochReclaimer &reclaimer() const { return Reclaimer; }
  ReclaimStats reclaimStats() const { return Reclaimer.stats(); }

  /// Current quiescence generation (see noteSyscallBoundary).
  uint64_t quiesceGeneration() const {
    return QuiesceGen.load(std::memory_order_acquire);
  }

  /// Fired after each quiescence-point epoch reset with the generation
  /// that just completed. Lets metrics and the schedule checker observe
  /// exactly when the version space was reclaimed without polling
  /// updatesSinceEpoch(). Called under the quiescence lock; keep it
  /// cheap and do not re-enter the Machine.
  std::function<void(uint64_t)> QuiesceEpochHook;

  //===--------------------------------------------------------------------===//
  // Guest memory (atomic; threads may race per the paper's threat model)
  //===--------------------------------------------------------------------===//

  /// True when [Addr, Addr + Size) lies inside the data region. The test
  /// is on the offset from the region's base, so no Addr or Size wraps it.
  bool isDataAddr(uint64_t Addr, uint64_t Size) const {
    return Size <= DataCapacity && Addr - DataBase <= DataCapacity - Size;
  }
  /// True when [Addr, Addr + Size) lies inside the mapped code; wrap-free
  /// like isDataAddr.
  bool isCodeAddr(uint64_t Addr, uint64_t Size) const {
    uint64_t Used = CodeUsed.load(std::memory_order_acquire);
    return Size <= Used && Addr - CodeBase <= Used - Size;
  }

  /// The guest loads and stores of \p Size bytes (1, 2, 4 or 8), inline
  /// for the execution tiers. Return false on a fault (unmapped,
  /// misaligned, or a store outside the data region); loads zero-extend
  /// into \p Out. Data accesses are relaxed atomics; the code region is
  /// readable (jump tables live there) and immutable while it executes.
  template <unsigned Size> bool load(uint64_t Addr, uint64_t &Out) const {
    if (Addr & (Size - 1))
      return false; // naturally aligned accesses only
    if (isDataAddr(Addr, Size)) {
      Out = std::atomic_ref<GuestWord<Size>>(*dataWord<Size>(Addr))
                .load(std::memory_order_relaxed);
      return true;
    }
    if (!isCodeAddr(Addr, Size))
      return false;
    const uint8_t *Base = CodeBytes.data() + (Addr - CodeBase);
    Out = 0;
    for (unsigned I = 0; I != Size; ++I)
      Out |= static_cast<uint64_t>(Base[I]) << (8 * I);
    return true;
  }
  template <unsigned Size> bool store(uint64_t Addr, uint64_t Value) {
    if ((Addr & (Size - 1)) || !isDataAddr(Addr, Size))
      return false; // code region and everything else is not writable
    std::atomic_ref<GuestWord<Size>>(*dataWord<Size>(Addr))
        .store(static_cast<GuestWord<Size>>(Value), std::memory_order_relaxed);
    return true;
  }

  /// The same accesses with a size known only at run time (syscalls,
  /// host tools, tests); any other \p Size faults.
  bool load(uint64_t Addr, unsigned Size, uint64_t &Out) const {
    switch (Size) {
    case 1:
      return load<1>(Addr, Out);
    case 2:
      return load<2>(Addr, Out);
    case 4:
      return load<4>(Addr, Out);
    case 8:
      return load<8>(Addr, Out);
    default:
      return false;
    }
  }
  bool store(uint64_t Addr, unsigned Size, uint64_t Value) {
    switch (Size) {
    case 1:
      return store<1>(Addr, Value);
    case 2:
      return store<2>(Addr, Value);
    case 4:
      return store<4>(Addr, Value);
    case 8:
      return store<8>(Addr, Value);
    default:
      return false;
    }
  }

  /// Reads a NUL-terminated guest string (bounded); empty on fault.
  std::string readString(uint64_t Addr) const;

  /// Host-side data initialization during module load (bypasses the
  /// executable check but must stay within the data region).
  bool writeDataBytes(uint64_t Addr, const uint8_t *Bytes, uint64_t Size);

  /// Bump-allocates \p Size bytes of heap (8-aligned); 0, and nothing
  /// consumed, when exhausted. mapModule takes module globals from the
  /// same bump pointer.
  uint64_t allocHeap(uint64_t Size);

  /// Allocates a stack and returns its initial stack pointer (top); 0
  /// when the stack would reach into the heap (or below DataBase).
  uint64_t allocStack();

  //===--------------------------------------------------------------------===//
  // Syscall state
  //===--------------------------------------------------------------------===//

  void appendOutput(const std::string &S);
  std::string takeOutput();

  /// Registered signal handlers (absolute code addresses).
  std::unordered_map<int, uint64_t> SignalHandlers;
  std::mutex SignalLock;

  /// Absolute address of the sigreturn trampoline ("sig$return").
  uint64_t SigReturnAddr = 0;

  bool isSetjmpRetSite(uint64_t Addr) const;

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  /// Creates a thread starting at the entry of function \p Name (searched
  /// across sealed modules), with a fresh stack. Returns false if the
  /// symbol is unknown or no stack space is left.
  bool makeThread(const std::string &Name, Thread &T);

  /// Resolves a function symbol to its absolute address in the first
  /// live module (lowest index) that defines it; 0 if none does. One
  /// lookup in the symbol index.
  uint64_t findFunction(const std::string &Name) const;

  /// Definitions the symbol index holds: one per distinct function name
  /// of each mapped, unretired module.
  size_t symbolIndexEntries() const;

  /// Runs \p T until it stops or \p Fuel instructions retire, on the
  /// machine's current execution tier.
  RunResult run(Thread &T, uint64_t Fuel = ~0ull);

  ExecTier tier() const { return Tier; }
  void setTier(ExecTier T) { Tier = T; }

  /// Executes exactly one fully-checked instruction at T.PC (fetch,
  /// W^X, decode, dispatch). Returns false with \p Out filled when the
  /// thread stopped. This is both the interpreter tier's step and the
  /// threaded tier's fallback for PCs outside the decoded segment
  /// (mid-instruction gadget targets, jump-table data), so
  /// both tiers funnel uncovered PCs through identical checks.
  bool interpretStep(Thread &T, RunResult &Out);

  /// Dlsym resolution: scoped to module \p Handle when it names a slot
  /// of modules(), else global like findFunction. Reads the symbol index
  /// under ModuleLock, since a dlopen may update it concurrently with
  /// executing guest threads.
  uint64_t dlsymLookup(int64_t Handle, const std::string &Name) const;

  /// Bumped whenever the code layout changes (map, seal, reclaim); the
  /// threaded engine rechecks it between blocks and re-checks out its
  /// segment when it moves.
  uint64_t codeEpoch() const {
    return CodeEpoch.load(std::memory_order_acquire);
  }

  /// The predecoded segment for the current code epoch: on a miss, a
  /// snapshot of the decodes every sealed, unreclaimed module carries
  /// (MappedModule::Decode), cached; null when the layout changed during
  /// the build. Decodes nothing. Defined in Dispatch.cpp.
  std::shared_ptr<const DecodedSegment> segment();

  /// Caches \p S unless the code epoch moved since it was built. Returns
  /// false (and caches nothing) for a stale build.
  bool installSegment(std::shared_ptr<const DecodedSegment> S);

  /// Tier counters (relaxed; exact only when no thread is running).
  VMTierStats vmStats() const;
  void creditTierStats(const VMTierStats &S);

  uint64_t codeCapacity() const { return CodeCapacity; }

  /// Serializes applyReclaim's layout mutation (Reclaimed flags, code
  /// zeroing, tail-trim pop_back) against the linker's link operations,
  /// whose module walks span many ModuleLock-sized critical sections
  /// (and some, like the patch audit, take ModuleLock themselves —
  /// hence a separate, coarser mutex). drainReclaim may be called from
  /// any thread, so the linker holds this for the whole of
  /// linkProgram/processBatch/processUnloadBatch. Lock order:
  /// QuiesceLock -> ReclaimApplyLock -> ModuleLock.
  std::unique_lock<std::mutex> lockReclaimApply() const {
    return std::unique_lock<std::mutex>(ReclaimApplyLock);
  }

private:
  friend class Interpreter;

  template <unsigned Size>
  using GuestWord = std::conditional_t<
      Size == 1, uint8_t,
      std::conditional_t<Size == 2, uint16_t,
                         std::conditional_t<Size == 4, uint32_t, uint64_t>>>;

  /// The host word behind data address \p Addr (isDataAddr holds).
  template <unsigned Size> GuestWord<Size> *dataWord(uint64_t Addr) const {
    static_assert(Size == 1 || Size == 2 || Size == 4 || Size == 8,
                  "guest accesses are 1, 2, 4 or 8 bytes");
    return reinterpret_cast<GuestWord<Size> *>(
        reinterpret_cast<uint8_t *>(DataWords.data()) + (Addr - DataBase));
  }

  RunResult runInterpreter(Thread &T, uint64_t Fuel);

  /// Bumps CodeEpoch, which invalidates the cached segment. Called by
  /// mapModule/sealModule (dlopen changes the code layout) and by the
  /// reclamation path (unload changes it back).
  void noteCodeChanged() {
    CodeEpoch.fetch_add(1, std::memory_order_release);
  }

  /// Runtime half of reclamation for regions past grace: find each
  /// region's module by binary search on Serial, zero its code bytes (the
  /// W^X "unmap"), drop its object and decode and take it off the present
  /// list; then recompute the hole-aware sealed prefix, invalidate the
  /// predecoded segment, and run the tail-trim cascade so a fully
  /// unloaded machine returns to its initial code footprint.
  void applyReclaim(const std::vector<RetiredRegion> &Matured);

  /// Recomputes SealedPrefix as the contiguous sealed span from CodeBase,
  /// stopping at the first hole or unsealed module; walks Present.
  /// Requires ModuleLock.
  void recomputeSealedPrefixLocked();

  /// Debug audit for patchCode32/64: asserts that module \p Module is
  /// unsealed and unretired (W^X) and that its code holds all \p Width
  /// bytes at \p Addr. One entry, under ModuleLock.
  void auditPatchTarget(int Module, uint64_t Addr, uint64_t Width) const;

  uint64_t CodeCapacity;
  uint64_t DataCapacity;
  uint64_t StackSize;

  Region<uint8_t> CodeBytes;   ///< [0, CodeCapacity), demand-zero
  Region<uint64_t> DataWords;  ///< DataCapacity/8 words, demand-zero
  /// Extent of mapped code. Written by the linker (release, after the
  /// module's bytes are copied in), read by executing guest threads
  /// (acquire): passing isCodeAddr implies the bytes are visible.
  std::atomic<uint64_t> CodeUsed{0};
  std::atomic<uint64_t> HeapNext{0}; ///< globals + heap bump pointer
  std::atomic<uint64_t> StackNext{0}; ///< allocated downward from the top

  /// Guards Mapped and Present against dlopen mutating them (push_back
  /// may relocate a vector) while a guest thread reads them in the
  /// interpreter's slow executable check.
  mutable std::mutex ModuleLock;
  /// See lockReclaimApply(); held by applyReclaim around its whole
  /// mutation and by the linker across batch processing.
  mutable std::mutex ReclaimApplyLock;
  std::vector<MappedModule> Mapped;
  /// The present modules — mapped and not yet reclaimed — as ascending
  /// indexes into Mapped: mapModule appends, applyReclaim erases. The
  /// sealed prefix, the segment snapshot and the slow executable check
  /// walk this list, so reclaimed tombstones cost them nothing. Guarded
  /// by ModuleLock.
  std::vector<int> Present;
  /// Bytes of contiguously sealed code: interpretStep's fast executable
  /// check (release/acquire like CodeUsed).
  std::atomic<uint64_t> SealedPrefix{0};
  /// Next MappedModule::Serial (monotonic; guarded by ModuleLock).
  uint64_t NextModuleSerial = 1;

  /// One live definition of a function name.
  struct SymbolDef {
    int Module;    ///< index into Mapped
    uint64_t Addr; ///< absolute entry address
  };
  /// The symbol index: one entry per distinct function name of each live
  /// module, keyed by a view of the name in that module's object. The
  /// object outlives the entry: markModuleRetired erases a module's
  /// entries, and only a retired module is ever reclaimed or trimmed.
  /// mapModule adds the entries. Guarded by ModuleLock.
  std::unordered_multimap<std::string_view, SymbolDef> Symbols;

  /// \p Name's entry for module \p Module, or with \p Module < 0 its
  /// first live definition (the lowest module index); null if none.
  /// Requires ModuleLock.
  const SymbolDef *findSymbolLocked(std::string_view Name, int Module) const;

  IDTables Tables;

  /// Epoch-based reclamation of dlclosed code/table ranges and ECNs
  /// (tables/Reclaim.h); advanced at quiescence-generation completion.
  EpochReclaimer Reclaimer;

  /// Quiescence tracking (noteSyscallBoundary). Generations start at 1
  /// so a fresh Thread (QuiesceGen 0) always counts as unobserved.
  std::atomic<uint64_t> QuiesceGen{1};
  std::atomic<int> RunningThreads{0};
  std::mutex QuiesceLock;
  int QuiescedThisGen = 0;

  mutable std::mutex SetjmpLock;
  std::unordered_set<uint64_t> SetjmpSites;

  std::mutex OutputLock;
  std::string Output;

  ExecTier Tier;
  /// Generation counter for the code layout (mapped/sealed modules).
  std::atomic<uint64_t> CodeEpoch{1};
  /// The segment()/installSegment() cache; may hold a stale segment
  /// until the next segment() call replaces it.
  std::mutex SegLock;
  std::shared_ptr<const DecodedSegment> Seg;

  std::atomic<uint64_t> StatInterpInstrs{0};
  std::atomic<uint64_t> StatThreadedInstrs{0};
  std::atomic<uint64_t> StatFusedChecks{0};
  std::atomic<uint64_t> StatSegmentsBuilt{0};
  std::atomic<uint64_t> StatModulesDecoded{0};
};

} // namespace mcfi

#endif // MCFI_RUNTIME_MACHINE_H
