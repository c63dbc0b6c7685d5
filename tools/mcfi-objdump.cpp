//===- tools/mcfi-objdump.cpp - Inspect .mcfo modules ----------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// mcfi-objdump: disassembles an MCFI module and dumps its auxiliary
/// info — the complete-disassembly property the verifier relies on (aux
/// info identifies every jump table and branch sequence, so a linear
/// sweep covers every byte).
///
///   mcfi-objdump [options] module.mcfo
///     --no-disasm   only print the aux-info summary
///     --aux         print the full auxiliary info listing
///
//===----------------------------------------------------------------------===//

#include "module/MCFIObject.h"
#include "tools/ToolCommon.h"
#include "visa/ISA.h"

#include <algorithm>
#include <map>

using namespace mcfi;
using namespace mcfi::tools;

namespace {

const char *branchKindName(BranchKind K) {
  switch (K) {
  case BranchKind::Return:
    return "return";
  case BranchKind::IndirectCall:
    return "indirect-call";
  case BranchKind::IndirectJump:
    return "indirect-jump";
  case BranchKind::PltJump:
    return "plt-jump";
  }
  return "?";
}

void disassemble(const MCFIObject &Obj) {
  // Function starts, sorted by offset, for labeling.
  std::map<uint64_t, std::string> FuncAt;
  for (const FunctionInfo &F : Obj.Aux.Functions)
    FuncAt[F.CodeOffset] = F.Name;
  std::map<uint64_t, const BranchSite *> SeqAt;
  for (const BranchSite &BS : Obj.Aux.BranchSites)
    SeqAt[BS.SeqStart] = &BS;
  auto Label = [&](uint64_t Off) {
    if (auto It = FuncAt.find(Off); It != FuncAt.end())
      std::printf("\n<%s>:\n", It->second.c_str());
    if (auto It = SeqAt.find(Off); It != SeqAt.end())
      std::printf("          ; %s check transaction (%s)\n",
                  branchKindName(It->second->Kind),
                  It->second->TypeSig.empty()
                      ? It->second->Function.c_str()
                      : It->second->TypeSig.c_str());
  };

  // Bytes between decoded instructions are declared jump tables, which
  // the sweep skips, or undecodable bytes.
  uint64_t Off = 0;
  auto Gap = [&](uint64_t End) {
    while (Off < End) {
      auto JT = std::find_if(
          Obj.Aux.JumpTables.begin(), Obj.Aux.JumpTables.end(),
          [&](const JumpTableInfo &T) {
            return Off >= T.TableOffset &&
                   Off < T.TableOffset + 8 * T.Targets.size();
          });
      if (JT != Obj.Aux.JumpTables.end()) {
        std::printf("%08llx:  <jump table, %zu entries>\n",
                    static_cast<unsigned long long>(JT->TableOffset),
                    JT->Targets.size());
        Off = JT->TableOffset + 8 * JT->Targets.size();
        continue;
      }
      Label(Off);
      std::printf("%08llx:  <undecodable byte 0x%02x>\n",
                  static_cast<unsigned long long>(Off), Obj.Code[Off]);
      ++Off;
    }
  };

  visa::Disassembly Dis =
      disassembleModule(Obj.Code.data(), Obj.Code.size(), Obj);
  for (size_t K = 0; K != Dis.Instrs.size(); ++K) {
    Gap(Dis.offsetOf(K));
    Off = Dis.offsetOf(K);
    Label(Off);
    std::printf("%08llx:  %s\n", static_cast<unsigned long long>(Off),
                visa::printInstr(Dis.Instrs[K].I).c_str());
    Off += Dis.Instrs[K].I.Length;
  }
  Gap(Obj.Code.size());
}

void dumpAux(const MCFIObject &Obj) {
  std::printf("\nfunctions:\n");
  for (const FunctionInfo &F : Obj.Aux.Functions)
    std::printf("  %08llx %-24s %s%s%s\n",
                static_cast<unsigned long long>(F.CodeOffset),
                F.Name.c_str(), F.PrettyType.c_str(),
                F.AddressTaken ? " [address-taken]" : "",
                F.Variadic ? " [variadic]" : "");
  std::printf("branch sites:\n");
  for (const BranchSite &BS : Obj.Aux.BranchSites)
    std::printf("  %08llx %-14s in %-20s %s%s\n",
                static_cast<unsigned long long>(BS.BranchOffset),
                branchKindName(BS.Kind), BS.Function.c_str(),
                BS.TypeSig.c_str(), BS.PltSymbol.empty()
                                        ? ""
                                        : (" -> " + BS.PltSymbol).c_str());
  std::printf("call sites (return-site IBTs):\n");
  for (const CallSiteInfo &CS : Obj.Aux.CallSites)
    std::printf("  %08llx in %-20s -> %s%s\n",
                static_cast<unsigned long long>(CS.RetSiteOffset),
                CS.Caller.c_str(),
                CS.Direct ? CS.Callee.c_str() : CS.TypeSig.c_str(),
                CS.IsSetjmp ? " [setjmp]" : "");
  for (const TailCallInfo &TC : Obj.Aux.TailCalls)
    std::printf("tail call: %s -> %s\n", TC.Caller.c_str(),
                TC.Direct ? TC.Callee.c_str() : TC.TypeSig.c_str());
  for (const std::string &S : Obj.Aux.AddressTakenImports)
    std::printf("address-taken import: %s\n", S.c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::string Input;
  bool Disasm = true, Aux = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--no-disasm")
      Disasm = false;
    else if (Arg == "--aux")
      Aux = true;
    else if (!Arg.empty() && Arg[0] == '-')
      usage("mcfi-objdump: unknown option");
    else if (Input.empty())
      Input = Arg;
    else
      usage("mcfi-objdump: exactly one input expected");
  }
  if (Input.empty())
    usage("usage: mcfi-objdump [--no-disasm] [--aux] module.mcfo");

  std::vector<uint8_t> Bytes;
  MCFIObject Obj;
  if (!readFileBytes(Input, Bytes) || !readObject(Bytes, Obj)) {
    std::fprintf(stderr, "mcfi-objdump: cannot load %s\n", Input.c_str());
    return 1;
  }

  std::printf("%s: module '%s', %zu bytes code, %llu bytes data, "
              "%zu functions, %zu branch sites, %zu call sites, "
              "%zu jump tables, %zu imports, entry '%s'\n",
              Input.c_str(), Obj.Name.c_str(), Obj.Code.size(),
              static_cast<unsigned long long>(Obj.DataSize),
              Obj.Aux.Functions.size(), Obj.Aux.BranchSites.size(),
              Obj.Aux.CallSites.size(), Obj.Aux.JumpTables.size(),
              Obj.Imports.size(),
              Obj.EntryFunction.empty() ? "-" : Obj.EntryFunction.c_str());
  if (Disasm)
    disassemble(Obj);
  if (Aux)
    dumpAux(Obj);
  return 0;
}
