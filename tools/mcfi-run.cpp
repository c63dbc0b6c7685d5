//===- tools/mcfi-run.cpp - Link and run MCFI modules ----------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// mcfi-run: statically links .mcfo modules (the MCFI static linker +
/// loader + verifier) and runs the program on the sandboxed VM.
///
///   mcfi-run [options] prog.mcfo [more.mcfo ...]
///     --register <lib.mcfo>  make a library dlopen-able (ids in order)
///     --fuel <n>             instruction budget (default: 100000000, about
///                            a second of guest time; raise it for longer
///                            programs)
///     --no-verify            skip the modular verifier (debugging only)
///     --tier <t>             execution tier: interp or threaded
///                            (default: threaded; RunResult-identical)
///     --stats                print policy statistics, retired instrs,
///                            and the execution-tier counters
///     --dlclose-churn <n>    while the guest runs, a host thread cycles
///                            dlopenBatch/dlcloseBatch over every
///                            --register library n times; after the run,
///                            all retired ranges must reclaim (exit 2 if
///                            any open/close fails or regions leak)
///
/// Exit code: the guest's exit code; 124 on CFI violation; 125 on trap;
/// 126 when the instruction budget runs out (so a looping or corrupted
/// module never hangs the host).
///
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"
#include "metrics/UpdateMetrics.h"
#include "toolchain/Toolchain.h"
#include "tools/ToolCommon.h"

#include <atomic>
#include <thread>

using namespace mcfi;
using namespace mcfi::tools;

/// Far above every example and test program, yet a guest that never exits
/// stops within seconds.
constexpr uint64_t DefaultFuel = 100'000'000;

int main(int argc, char **argv) {
  std::vector<std::string> Modules, Libraries;
  uint64_t Fuel = DefaultFuel, Churn = 0;
  bool Verify = true, Stats = false;
  ExecTier Tier = ExecTier::Threaded;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--register" && I + 1 < argc) {
      Libraries.push_back(argv[++I]);
    } else if (Arg == "--fuel" && I + 1 < argc) {
      Fuel = std::stoull(argv[++I]);
    } else if (Arg == "--no-verify") {
      Verify = false;
    } else if (Arg == "--tier" && I + 1 < argc) {
      std::string T = argv[++I];
      if (T == "interp" || T == "interpreter")
        Tier = ExecTier::Interpreter;
      else if (T == "threaded")
        Tier = ExecTier::Threaded;
      else
        usage("mcfi-run: --tier takes interp or threaded");
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--dlclose-churn" && I + 1 < argc) {
      Churn = std::stoull(argv[++I]);
    } else if (!Arg.empty() && Arg[0] == '-') {
      usage("mcfi-run: unknown option; see the file header for usage");
    } else {
      Modules.push_back(Arg);
    }
  }
  if (Modules.empty())
    usage("usage: mcfi-run [options] prog.mcfo [more.mcfo ...]");

  auto loadObj = [](const std::string &Path, MCFIObject &Obj) {
    std::vector<uint8_t> Bytes;
    if (!readFileBytes(Path, Bytes) || !readObject(Bytes, Obj)) {
      std::fprintf(stderr, "mcfi-run: cannot load %s\n", Path.c_str());
      return false;
    }
    return true;
  };

  MachineOptions MO;
  MO.Tier = Tier;
  Machine M(MO);
  LinkOptions LO;
  LO.Verify = Verify;
  Linker L(M, LO);

  std::vector<MCFIObject> Objs;
  for (const std::string &Path : Modules) {
    MCFIObject Obj;
    if (!loadObj(Path, Obj))
      return 2;
    Objs.push_back(std::move(Obj));
  }
  std::string Error;
  if (!L.linkProgram(std::move(Objs), Error)) {
    std::fprintf(stderr, "mcfi-run: link failed: %s\n", Error.c_str());
    return 2;
  }
  std::vector<int64_t> LibIds;
  for (const std::string &Path : Libraries) {
    MCFIObject Obj;
    if (!loadObj(Path, Obj))
      return 2;
    LibIds.push_back(L.registerLibrary(std::move(Obj)));
  }

  if (Churn && LibIds.empty())
    usage("mcfi-run: --dlclose-churn needs at least one --register library");

  // The churn thread exercises module unload against the live guest:
  // each cycle opens every registered library as one batch, closes the
  // batch, and drains whatever reclaim grace has already elapsed.
  std::thread ChurnThread;
  std::atomic<uint64_t> ChurnFailures{0};
  if (Churn)
    ChurnThread = std::thread([&] {
      for (uint64_t C = 0; C < Churn; ++C) {
        std::vector<int64_t> Handles;
        for (const DlopenResult &DR : L.dlopenBatch(LibIds)) {
          if (DR.Handle >= 0)
            Handles.push_back(DR.Handle);
          else
            ChurnFailures.fetch_add(1, std::memory_order_relaxed);
        }
        for (bool Ok : L.dlcloseBatch(Handles))
          if (!Ok)
            ChurnFailures.fetch_add(1, std::memory_order_relaxed);
        M.drainReclaim();
      }
    });

  RunResult R = runProgram(M, Fuel);
  if (ChurnThread.joinable())
    ChurnThread.join();
  std::fputs(M.takeOutput().c_str(), stdout);

  if (Churn) {
    // All guest threads are done: every retired range is past grace.
    M.drainReclaim();
    ReclaimStats RS = M.reclaimStats();
    UpdateSummary US = summarizeUpdates(L, M.tables(), &RS);
    std::fprintf(stderr, "[mcfi-run] dlclose-churn: %llu cycles x %zu libs; %s\n",
                 static_cast<unsigned long long>(Churn), LibIds.size(),
                 updateSummaryJSON(US, "churn").c_str());
    // Leftover FreeRanges are legitimate when the guest's own dlopens
    // pin modules above the churned ranges (tail-trim can't run); a real
    // leak shows as pending regions or condemned ECNs after a full
    // drain with zero guest threads.
    uint64_t Failures = ChurnFailures.load(std::memory_order_relaxed);
    if (Failures || RS.PendingRegions || RS.CondemnedECNs) {
      std::fprintf(stderr,
                   "mcfi-run: dlclose-churn leak: failures=%llu pending=%llu "
                   "condemned=%llu\n",
                   static_cast<unsigned long long>(Failures),
                   static_cast<unsigned long long>(RS.PendingRegions),
                   static_cast<unsigned long long>(RS.CondemnedECNs));
      return 2;
    }
  }

  if (Stats) {
    std::fprintf(stderr,
                 "[mcfi-run] %llu instructions; policy: %llu IBs, %llu "
                 "IBTs, %llu classes; CFG version %u\n",
                 static_cast<unsigned long long>(R.Instructions),
                 static_cast<unsigned long long>(L.policy().NumIBs),
                 static_cast<unsigned long long>(L.policy().NumIBTs),
                 static_cast<unsigned long long>(L.policy().NumEQCs),
                 M.tables().currentVersion());
    const char *TierName =
        Tier == ExecTier::Interpreter ? "interpreter" : "threaded";
    std::fprintf(stderr, "[mcfi-run] %s\n",
                 vmStatsJSON(M.vmStats(), TierName).c_str());
  }

  switch (R.Reason) {
  case StopReason::Exited:
    return static_cast<int>(R.ExitCode);
  case StopReason::CfiViolation:
    std::fprintf(stderr, "mcfi-run: CFI violation: %s\n", R.Message.c_str());
    return 124;
  case StopReason::Trap:
    std::fprintf(stderr, "mcfi-run: trap: %s\n", R.Message.c_str());
    return 125;
  case StopReason::OutOfFuel:
    std::fprintf(stderr, "mcfi-run: instruction budget exhausted\n");
    return 126;
  }
  return 125;
}
