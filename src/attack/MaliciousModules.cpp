//===- attack/MaliciousModules.cpp - Hand-built malicious modules ---------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The malicious-module class: plugins built by hand to pass for
/// compiled ones while breaking a rule that no check transaction guards,
/// so the loader's verifier is the only defence:
///
///  - jump-table-base: a switch dispatch whose table-entry and
///    table-address relocations are all shifted by one delta, so the
///    dispatch loads its target from a data array the plugin filled with
///    `secret`'s address. Every entry still agrees on one base.
///  - direct-escape: plugin_fn starts `movi r15, &secret; jmp <the
///    host's calli r15>` with no relocation, a direct jump out of the
///    module past the host's check; jz-escape does the same with a jz.
///  - callsym-on-jz, callsym-on-movi: a CallSym relocation on a field
///    that is not the rel32 of a call or tail-call jmp.
///  - reloc-over-opcode, reloc-spanning: relocations that rewrite an
///    opcode byte, or straddle two instructions.
///  - relocated-validity: a relocation on a check's `movi r11, 1`.
///  - entry-in-check: a declared function entry inside a check sequence,
///    where another module's direct call would land past the check.
///
/// Each module is laid out for where a dlopen into a fresh host build
/// maps library 0 (same sources and options, same layout), goes through
/// writeObject/readObject, and is dlopened into a fresh host build. The
/// only acceptable verdict is RefusedAtLoad; a module the loader accepts
/// is Survived, whatever it then does.
///
//===----------------------------------------------------------------------===//

#include "attack/AttackInternal.h"

#include "toolchain/Toolchain.h"

#include <algorithm>

using namespace mcfi;
using namespace mcfi::attack;
using namespace mcfi::visa;

namespace {

constexpr uint64_t ProbeFuel = 1'000'000;

/// Where a dlopen into a fresh host build maps a plugin, and the host
/// addresses the escapes aim at.
struct Placement {
  uint64_t CodeBase = 0, DataBase = 0;
  uint64_t Secret = 0; ///< the host's secret
  uint64_t Calli = 0;  ///< the host's checked calli r15
};

bool place(const MCFIObject &Plugin, Placement &P, std::string &Error) {
  PluginHost H;
  if (!buildPluginHost(H, ExecTier::Threaded, LinkOptions(), Error))
    return false;
  int64_t Handle = H.L->dlopen(H.L->registerLibrary(Plugin));
  if (Handle < 0) {
    Error = "clean plugin refused: " + H.L->lastError();
    return false;
  }
  const MappedModule &Mod = H.M->modules()[static_cast<size_t>(Handle)];
  P.CodeBase = Mod.CodeBase;
  P.DataBase = Mod.DataBase;
  P.Secret = H.M->findFunction("secret");
  const MappedModule &Host = H.M->modules()[1]; // after the bootstrap
  for (const BranchSite &BS : Host.Obj->Aux.BranchSites)
    if (BS.Kind == BranchKind::IndirectCall)
      P.Calli = Host.CodeBase + BS.BranchOffset;
  if (!P.Secret || !P.Calli) {
    Error = "host has no secret or no indirect call";
    return false;
  }
  return true;
}

Instr movi(uint8_t Rd, uint64_t Imm) {
  Instr I;
  I.Op = Opcode::MovImm;
  I.Rd = Rd;
  I.Imm = Imm;
  return I;
}

Instr branch(Opcode Op, uint8_t Ra, int32_t Rel) {
  Instr I;
  I.Op = Op;
  I.Ra = Ra;
  I.Off = Rel;
  return I;
}

/// rel32 of the branch \p Op at module offset \p Off, mapped at
/// \p Base, that lands on \p Target.
int32_t relTo(uint64_t Target, uint64_t Base, uint64_t Off, Opcode Op) {
  return static_cast<int32_t>(static_cast<int64_t>(Target) -
                              static_cast<int64_t>(Base + Off +
                                                   opcodeLength(Op)));
}

/// \p Clean with the start of plugin_fn overwritten by \p Prefix, padded
/// with nops to the next instruction start of the clean code. Each
/// prefix instruction's offset goes to \p At. Fails if the overwritten
/// bytes carried a relocation.
bool overwriteEntry(const MCFIObject &Clean, const std::vector<Instr> &Prefix,
                    MCFIObject &Out, std::vector<uint64_t> &At,
                    std::string &Error) {
  const FunctionInfo *F = Clean.findFunction("plugin_fn");
  uint64_t Off = F->CodeOffset;
  std::vector<uint8_t> Bytes;
  for (const Instr &I : Prefix) {
    At.push_back(Off + Bytes.size());
    encode(I, Bytes);
  }
  Disassembly Dis =
      disassembleModule(Clean.Code.data(), Clean.Code.size(), Clean);
  while (Dis.indexAt(Off + Bytes.size()) < 0)
    Bytes.push_back(static_cast<uint8_t>(Opcode::Nop));
  uint64_t End = Off + Bytes.size();
  for (const RelocEntry &R : Clean.Relocs)
    if (R.Offset < End && R.Offset + 8 > Off &&
        R.Kind != RelocKind::DataFuncAddr64 &&
        R.Kind != RelocKind::DataGlobalAddr64) {
      Error = "plugin_fn's first bytes carry a relocation";
      return false;
    }
  Out = Clean;
  std::copy(Bytes.begin(), Bytes.end(),
            Out.Code.begin() + static_cast<ptrdiff_t>(Off));
  return true;
}

/// Offset of the first \p Op in plugin_fn's return check sequence that
/// satisfies \p Pred.
template <typename PredT>
uint64_t findInReturnCheck(const MCFIObject &Obj, Opcode Op, PredT Pred) {
  Disassembly Dis = disassembleModule(Obj.Code.data(), Obj.Code.size(), Obj);
  for (const BranchSite &BS : Obj.Aux.BranchSites) {
    if (BS.Kind != BranchKind::Return || BS.Function != "plugin_fn")
      continue;
    for (uint64_t Off = BS.SeqStart; Off < BS.BranchOffset;) {
      const Instr *I = Dis.at(Off);
      if (I->Op == Op && Pred(*I))
        return Off;
      Off += I->Length;
    }
  }
  return ~0ull;
}

/// The clean plugin the escapes overwrite: plain arithmetic, with no
/// relocation in plugin_fn's first bytes.
const char *escapePluginSource() {
  return R"(
    long plugin_fn(long x) {
      long a = x * 3;
      long b = a + 7;
      return a * b - x;
    }
  )";
}

} // namespace

const char *mcfi::attack::pluginHostSource() {
  return R"(
    long secret(long x) { print_int(666); return x; }
    long ok(long x) { return x + 1; }
    long (*fp)(long) = ok;
    int main() { print_int(fp(1)); return 0; }
  )";
}

const char *mcfi::attack::jumpTablePluginSource() {
  return R"(
    long secret(long x);
    long tbl[8];
    long sel(long x) {
      switch (x) {
      case 0: return 11;
      case 1: return 22;
      case 2: return 33;
      case 3: return 44;
      case 4: return 55;
      case 5: return 66;
      case 6: return 77;
      default: return 0;
      }
    }
    long plugin_fn(long x) { tbl[3] = (long)secret; return sel(3) + x; }
  )";
}

bool mcfi::attack::buildPluginHost(PluginHost &H, ExecTier Tier,
                                   const LinkOptions &Opts,
                                   std::string &Error) {
  CompileResult CR = compileModule(pluginHostSource(), {.ModuleName = "host"});
  if (!CR.Ok) {
    Error = "host: " + CR.Errors.front();
    return false;
  }
  MachineOptions MO;
  MO.CodeCapacity = 1ull << 20;
  MO.DataCapacity = 8ull << 20;
  MO.StackSize = 256ull << 10;
  MO.BaryCapacity = 1u << 14;
  MO.Tier = Tier;
  H.M = std::make_unique<Machine>(MO);
  H.L = std::make_unique<Linker>(*H.M, Opts);
  std::vector<MCFIObject> Objs;
  Objs.push_back(std::move(CR.Obj));
  return H.L->linkProgram(std::move(Objs), Error);
}

void mcfi::attack::shiftJumpTables(MCFIObject &Obj, uint64_t Delta) {
  for (RelocEntry &R : Obj.Relocs)
    if (R.Kind == RelocKind::JumpTable64 || R.Kind == RelocKind::CodeAddr64)
      R.Addend += Delta;
}

bool mcfi::attack::buildMaliciousModules(std::vector<MaliciousModule> &Out,
                                         std::string &Error) {
  CompileResult JT =
      compileModule(jumpTablePluginSource(), {.ModuleName = "jt-plugin"});
  CompileResult Esc =
      compileModule(escapePluginSource(), {.ModuleName = "escape-plugin"});
  if (!JT.Ok || !Esc.Ok) {
    Error = "plugin: " + (JT.Ok ? Esc : JT).Errors.front();
    return false;
  }
  Placement JP, EP;
  if (!place(JT.Obj, JP, Error) || !place(Esc.Obj, EP, Error))
    return false;

  {
    // The dispatch loads tbl[3], which plugin_fn set to secret.
    MaliciousModule MM{"jump-table-base", JT.Obj, 0};
    const JumpTableInfo &Table = MM.Obj.Aux.JumpTables.front();
    uint64_t Tbl = JP.DataBase + MM.Obj.DataSymbols.at("tbl");
    shiftJumpTables(MM.Obj, Tbl - (JP.CodeBase + Table.TableOffset));
    MM.BadOffset = Table.TableOffset;
    Out.push_back(std::move(MM));
  }

  /// A module whose plugin_fn starts with \p Prefix; \p Bad picks the
  /// offset the refusal must name from the prefix offsets, and \p Fix
  /// adds relocations.
  auto Overwritten = [&](const char *Name, const std::vector<Instr> &Prefix,
                         auto Bad, auto Fix) {
    MaliciousModule MM{Name, {}, 0};
    std::vector<uint64_t> At;
    if (!overwriteEntry(Esc.Obj, Prefix, MM.Obj, At, Error))
      return false;
    MM.BadOffset = Bad(At);
    Fix(MM.Obj, At);
    Out.push_back(std::move(MM));
    return true;
  };
  auto NoFix = [](MCFIObject &, const std::vector<uint64_t> &) {};
  auto Reloc = [](RelocKind K, size_t Instr, uint64_t Field) {
    return [=](MCFIObject &Obj, const std::vector<uint64_t> &At) {
      Obj.Relocs.push_back({K, At[Instr] + Field, "secret", 0, 0});
    };
  };
  // movi r15, &secret is 10 bytes, so the jmp starts at entry + 10 and
  // the jz, after a movi r0, 0, at entry + 20.
  uint64_t Entry = Esc.Obj.findFunction("plugin_fn")->CodeOffset;
  bool Ok =
      Overwritten("direct-escape",
                  {movi(RegTarget, EP.Secret),
                   branch(Opcode::Jmp, 0,
                          relTo(EP.Calli, EP.CodeBase, Entry + 10,
                                Opcode::Jmp))},
                  [](const std::vector<uint64_t> &At) { return At[1]; },
                  NoFix) &&
      Overwritten("jz-escape",
                  {movi(RegRet, 0), movi(RegTarget, EP.Secret),
                   branch(Opcode::Jz, RegRet,
                          relTo(EP.Calli, EP.CodeBase, Entry + 20,
                                Opcode::Jz))},
                  [](const std::vector<uint64_t> &At) { return At[2]; },
                  NoFix) &&
      Overwritten("callsym-on-jz",
                  {movi(RegRet, 0), branch(Opcode::Jz, RegRet, 0)},
                  [](const std::vector<uint64_t> &At) { return At[1] + 2; },
                  Reloc(RelocKind::CallSym, 1, 2)) &&
      Overwritten("callsym-on-movi", {movi(RegTarget, 0)},
                  [](const std::vector<uint64_t> &At) { return At[0] + 2; },
                  Reloc(RelocKind::CallSym, 0, 2)) &&
      Overwritten("reloc-over-opcode", {movi(RegTarget, 0)},
                  [](const std::vector<uint64_t> &At) { return At[0]; },
                  Reloc(RelocKind::FuncAddr64, 0, 0)) &&
      Overwritten("reloc-spanning", {movi(RegTarget, 0), movi(RegTarget, 0)},
                  [](const std::vector<uint64_t> &At) { return At[0] + 6; },
                  Reloc(RelocKind::FuncAddr64, 0, 6));
  if (!Ok)
    return false;

  {
    MaliciousModule MM{"relocated-validity", Esc.Obj, 0};
    MM.BadOffset =
        findInReturnCheck(MM.Obj, Opcode::MovImm, [](const Instr &I) {
          return I.Rd == RegIDDiff && I.Imm == 1;
        });
    MM.Obj.Relocs.push_back(
        {RelocKind::FuncAddr64, MM.BadOffset + 2, "secret", 0, 0});
    Out.push_back(std::move(MM));
  }
  {
    MaliciousModule MM{"entry-in-check", Esc.Obj, 0};
    MM.BadOffset = findInReturnCheck(MM.Obj, Opcode::TableRead,
                                     [](const Instr &) { return true; });
    FunctionInfo Gadget = *MM.Obj.findFunction("plugin_fn");
    Gadget.Name = "gadget";
    Gadget.CodeOffset = MM.BadOffset;
    MM.Obj.Aux.Functions.push_back(std::move(Gadget));
    computeIBTOffsets(MM.Obj.Aux);
    Out.push_back(std::move(MM));
  }
  return true;
}

std::vector<AttackRecord>
mcfi::attack::runMaliciousModuleAttacks(ExecTier Tier) {
  std::vector<AttackRecord> Out;
  auto Record = [&](const std::string &Name, Verdict V,
                    const std::string &Detail) {
    AttackRecord R;
    R.Class = AttackClass::MaliciousModule;
    R.Tier = Tier;
    R.Victim = "plugin-host";
    R.Name = "malicious-module:" + Name;
    R.V = V;
    R.Detail = Detail;
    Out.push_back(std::move(R));
  };
  std::vector<MaliciousModule> Mods;
  std::string Error;
  if (!buildMaliciousModules(Mods, Error)) {
    Record("build", Verdict::Survived, "setup: " + Error);
    return Out;
  }
  for (const MaliciousModule &MM : Mods) {
    PluginHost H;
    if (!buildPluginHost(H, Tier, LinkOptions(), Error)) {
      Record(MM.Name, Verdict::Survived, "setup: " + Error);
      continue;
    }
    MCFIObject Loaded;
    if (!readObject(writeObject(MM.Obj), Loaded)) {
      Record(MM.Name, Verdict::RefusedAtLoad, "readObject refused it");
      continue;
    }
    int64_t Handle = H.L->dlopen(H.L->registerLibrary(std::move(Loaded)));
    if (Handle < 0) {
      Record(MM.Name, Verdict::RefusedAtLoad, H.L->lastError());
      continue;
    }
    // The loader admitted a module that breaks the verifier's rules;
    // what its entry then does is only reported.
    Thread T;
    T.PC = H.M->findFunction("plugin_fn");
    T.Regs[RegSP] = H.M->allocStack();
    RunResult R = H.M->run(T, ProbeFuel);
    Record(MM.Name, Verdict::Survived,
           "dlopen accepted it; plugin_fn printed '" + H.M->takeOutput() +
               "', then: " + R.Message);
  }
  return Out;
}
