//===- tests/MetricsTest.cpp - AIR, gadgets, hash-Tary tests ---------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "metrics/Harness.h"
#include "metrics/Metrics.h"
#include "metrics/UpdateMetrics.h"
#include "tables/HashTary.h"
#include "tables/ID.h"
#include "visa/Assembler.h"

#include <gtest/gtest.h>

using namespace mcfi;
using namespace mcfi::visa;

namespace {

//===----------------------------------------------------------------------===//
// Gadget scanner
//===----------------------------------------------------------------------===//

Instr mk(Opcode Op) {
  Instr I;
  I.Op = Op;
  return I;
}

std::vector<uint8_t> assembleSnippet(const std::vector<Instr> &Instrs) {
  AsmFunction Fn;
  Fn.Name = "f";
  for (const Instr &I : Instrs)
    Fn.Items.push_back(AsmItem::instr(I));
  return assemble({Fn}).Bytes;
}

TEST(Gadgets, FindsRetTerminatedSequences) {
  // nop; nop; ret — gadgets: decode from offsets 0, 1, 2 (three unique
  // byte strings ending at the ret).
  std::vector<uint8_t> Code =
      assembleSnippet({mk(Opcode::Nop), mk(Opcode::Nop), mk(Opcode::Ret)});
  CFGPolicy Empty;
  GadgetReport R = countGadgets(Code.data(), Code.size(), Code.data(),
                                Code.size(), Empty, 0);
  EXPECT_EQ(R.OriginalGadgets, 3u);
  // With no valid Tary targets, the hardened count is zero.
  EXPECT_EQ(R.HardenedGadgets, 0u);
  EXPECT_EQ(R.ReductionPct, 100.0);
}

TEST(Gadgets, MidInstructionGadgetsExist) {
  // movi r1, imm64 where the imm bytes themselves decode as
  // instructions ending in ret: classic data-as-code gadget.
  Instr Mv = mk(Opcode::MovImm);
  Mv.Rd = 1;
  // imm64 bytes: nop(0x39) x7 + ret(0x36) in the high byte.
  Mv.Imm = 0x3639393939393939ull;
  std::vector<uint8_t> Code = assembleSnippet({Mv});
  CFGPolicy Empty;
  GadgetReport R = countGadgets(Code.data(), Code.size(), Code.data(),
                                Code.size(), Empty, 0);
  // Offsets 2..9 all start inside the immediate and reach the 0x36 ret.
  EXPECT_GE(R.OriginalGadgets, 7u);
}

TEST(Gadgets, HardenedCountsOnlyValidTargets) {
  std::vector<uint8_t> Code =
      assembleSnippet({mk(Opcode::Nop), mk(Opcode::Nop), mk(Opcode::Nop),
                       mk(Opcode::Nop), mk(Opcode::Ret)});
  CFGPolicy Policy;
  Policy.TargetECN = TargetECNTable({{100 + 0, 1}}); // only offset 0 is an IBT
  GadgetReport R = countGadgets(Code.data(), Code.size(), Code.data(),
                                Code.size(), Policy, /*HardBase=*/100);
  EXPECT_EQ(R.HardenedGadgets, 1u);
  EXPECT_GT(R.OriginalGadgets, R.HardenedGadgets);
}

//===----------------------------------------------------------------------===//
// AIR
//===----------------------------------------------------------------------===//

TEST(AIR, PerfectConfinementApproachesOne) {
  CFGPolicy Policy;
  Policy.BranchClassSize = {1, 1, 1};
  AIRReport R = computeAIR(Policy, {}, /*CodeSize=*/100000);
  EXPECT_GT(R.MCFI, 0.9999);
}

TEST(AIR, WiderClassesLowerAIR) {
  CFGPolicy Tight, Loose;
  Tight.BranchClassSize = {2, 2};
  Loose.BranchClassSize = {5000, 5000};
  double CodeSize = 10000;
  AIRReport TR = computeAIR(Tight, {}, static_cast<uint64_t>(CodeSize));
  AIRReport LR = computeAIR(Loose, {}, static_cast<uint64_t>(CodeSize));
  EXPECT_GT(TR.MCFI, LR.MCFI);
  EXPECT_NEAR(LR.MCFI, 0.5, 1e-9);
}

TEST(AIR, MCFIBeatsCoarsePoliciesOnRealPrograms) {
  const BenchProfile &P = specProfiles()[1]; // bzip2-shaped: fast
  std::string Source = generateWorkload(P, WorkloadVariant::Fixed);
  BuiltProgram BP = buildProgram({Source});
  ASSERT_TRUE(BP.Ok) << BP.Error;
  std::vector<LoadedModuleView> Views;
  for (const MappedModule &Mod : BP.M->modules())
    Views.push_back({Mod.Obj.get(), Mod.CodeBase});
  AIRReport R = computeAIR(BP.L->policy(), Views, BP.CodeBytes);
  EXPECT_GT(R.MCFI, R.BinCFI);
  EXPECT_GT(R.BinCFI, R.NaCl);
  EXPECT_GT(R.MCFI, 0.99);
}

//===----------------------------------------------------------------------===//
// Hash-Tary (the ablation data structure)
//===----------------------------------------------------------------------===//

TEST(HashTary, ReadBackAfterUpdate) {
  HashTaryTable T(64);
  T.update(
      512, [](uint64_t Off) -> int64_t { return Off % 16 ? -1 : 5; },
      /*Version=*/3);
  for (uint64_t Off = 0; Off < 512; Off += 4) {
    uint32_t ID = T.read(Off);
    if (Off % 16 == 0) {
      EXPECT_TRUE(isValidID(ID)) << Off;
      EXPECT_EQ(idECN(ID), 5u);
      EXPECT_EQ(idVersion(ID), 3u);
    } else {
      EXPECT_EQ(ID, 0u) << Off;
    }
  }
  EXPECT_EQ(T.read(3), 0u);      // misaligned
  EXPECT_EQ(T.read(99992), 0u);  // absent
}

TEST(HashTary, UpdateReplacesInPlace) {
  HashTaryTable T(16);
  auto ECN = [](uint64_t) -> int64_t { return 7; };
  T.update(64, ECN, 1);
  T.update(64, ECN, 2);
  for (uint64_t Off = 0; Off < 64; Off += 4)
    EXPECT_EQ(idVersion(T.read(Off)), 2u);
}

TEST(HashTary, CollisionsResolveByProbing) {
  // A tiny table forces probe chains; every key must still be found.
  HashTaryTable T(4);
  T.update(
      64, [](uint64_t) -> int64_t { return 1; }, 1);
  for (uint64_t Off = 0; Off < 64; Off += 4)
    EXPECT_TRUE(isValidID(T.read(Off))) << Off;
}

//===----------------------------------------------------------------------===//
// Update-transaction summary
//===----------------------------------------------------------------------===//

TEST(UpdateSummaryMetrics, JSONCarriesInFlightFlag) {
  UpdateSummary S;
  S.Installs = 3;
  S.SlowRetries = 7;
  std::string Idle = updateSummaryJSON(S, "full");
  EXPECT_NE(Idle.find("\"slow_retries\":7"), std::string::npos) << Idle;
  EXPECT_NE(Idle.find("\"update_in_flight\":false"), std::string::npos)
      << Idle;
  S.UpdateInFlight = true;
  std::string Busy = updateSummaryJSON(S, "full");
  EXPECT_NE(Busy.find("\"update_in_flight\":true"), std::string::npos) << Busy;
}

TEST(UpdateSummaryMetrics, JSONCarriesReclaimCounters) {
  UpdateSummary S;
  S.UnloadBatches = 2;
  S.BatchedDlcloses = 5;
  S.Reinstalls = 1;
  S.Reclaim.Retired = 5;
  S.Reclaim.Reclaimed = 4;
  S.Reclaim.BytesReclaimed = 4096;
  S.Reclaim.CondemnedECNs = 3;
  S.Reclaim.FreeRanges = 1;
  S.Reclaim.Reused = 2;
  std::string J = updateSummaryJSON(S, "churn");
  EXPECT_NE(J.find("\"unload_batches\":2"), std::string::npos) << J;
  EXPECT_NE(J.find("\"batched_dlcloses\":5"), std::string::npos) << J;
  EXPECT_NE(J.find("\"reinstalls\":1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"retired\":5"), std::string::npos) << J;
  EXPECT_NE(J.find("\"reclaimed\":4"), std::string::npos) << J;
  EXPECT_NE(J.find("\"bytes_reclaimed\":4096"), std::string::npos) << J;
  EXPECT_NE(J.find("\"condemned_ecns\":3"), std::string::npos) << J;
  EXPECT_NE(J.find("\"free_ranges\":1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"reused\":2"), std::string::npos) << J;
}

TEST(UpdateSummaryMetrics, InFlightSamplesSeqlockParity) {
  // The flag is a point sample of the update seqlock: false at rest,
  // true when read from inside an update's between-tables window.
  IDTables T(64, 4);
  EXPECT_FALSE(T.updateInFlight());
  bool Mid = false;
  T.txUpdate(
      16, [](uint64_t O) -> int64_t { return O % 4 ? -1 : 1; }, 1,
      [](uint32_t) -> int64_t { return 1; },
      [&] { Mid = T.updateInFlight(); });
  EXPECT_TRUE(Mid);
  EXPECT_FALSE(T.updateInFlight());
}

} // namespace
