//===- visa/Assembler.cpp - Symbolic assembly and layout ------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "visa/Assembler.h"

#include "support/Assert.h"

#include <algorithm>

using namespace mcfi;
using namespace mcfi::visa;

namespace {

unsigned itemLength(const AsmItem &It, uint64_t Offset) {
  switch (It.K) {
  case AsmItem::Kind::Instr:
    return opcodeLength(It.I.Op);
  case AsmItem::Kind::Label:
    return 0;
  case AsmItem::Kind::Align4:
    return static_cast<unsigned>((4 - (Offset + It.I.Imm) % 4) % 4);
  case AsmItem::Kind::Align8:
    return static_cast<unsigned>((8 - Offset % 8) % 8);
  case AsmItem::Kind::Data64:
    // Data64 runs are 8-aligned by an implicit pad on the first entry.
    return static_cast<unsigned>((8 - Offset % 8) % 8) + 8;
  }
  mcfi_unreachable("covered switch");
}

void emitPad(unsigned N, std::vector<uint8_t> &Out) {
  for (unsigned I = 0; I != N; ++I)
    Out.push_back(static_cast<uint8_t>(Opcode::Nop));
}

} // namespace

AssembledCode mcfi::visa::assemble(const std::vector<AsmFunction> &Functions) {
  AssembledCode Result;
  Result.LabelOffsets.resize(Functions.size());

  // Pass 1: layout. Compute the offset of every label. All instruction
  // lengths are fixed by opcode and alignment padding depends only on
  // preceding offsets, so a single in-order pass suffices; pass 2 walks
  // the same offsets again as the byte count it has emitted.
  uint64_t Offset = 0;
  for (size_t F = 0; F != Functions.size(); ++F) {
    Offset += (4 - Offset % 4) % 4; // align function entries
    Result.FunctionOffsets[Functions[F].Name] = Offset;
    Result.LabelOffsets[F].assign(
        static_cast<size_t>(std::max(Functions[F].NextLabel, 0)),
        AssembledCode::NoOffset);
    for (const AsmItem &It : Functions[F].Items) {
      if (It.K == AsmItem::Kind::Label) {
        assert(It.Label >= 0 && It.Label < Functions[F].NextLabel &&
               "label id not allocated by newLabel");
        Result.LabelOffsets[F][It.Label] = Offset;
      }
      Offset += itemLength(It, Offset);
    }
  }
  Result.Bytes.reserve(Offset + 4);

  // Pass 2: emit bytes, resolving local labels and intra-module calls.
  for (size_t F = 0; F != Functions.size(); ++F) {
    const AsmFunction &Fn = Functions[F];
    const auto &Labels = Result.LabelOffsets[F];
    auto labelAt = [&](int Label) {
      assert(Label >= 0 && static_cast<size_t>(Label) < Labels.size() &&
             Labels[Label] != AssembledCode::NoOffset &&
             "reference to unknown label");
      return Labels[Label];
    };
    emitPad(static_cast<unsigned>((4 - Result.Bytes.size() % 4) % 4),
            Result.Bytes);
    for (const AsmItem &It : Fn.Items) {
      uint64_t ItOff = Result.Bytes.size();
      switch (It.K) {
      case AsmItem::Kind::Label:
        assert(Labels[It.Label] == ItOff && "layout/emit divergence");
        break;
      case AsmItem::Kind::Align4:
      case AsmItem::Kind::Align8:
        emitPad(itemLength(It, ItOff), Result.Bytes);
        break;
      case AsmItem::Kind::Data64: {
        emitPad(itemLength(It, ItOff) - 8, Result.Bytes);
        ItOff = Result.Bytes.size();
        uint64_t Target = labelAt(It.Label);
        // Stored as a module-relative offset; the loader adds the code
        // base when the module is mapped.
        for (unsigned B = 0; B != 8; ++B)
          Result.Bytes.push_back(static_cast<uint8_t>(Target >> (8 * B)));
        Result.Relocs.push_back(
            {RelocKind::JumpTable64, ItOff, "", Target, 0});
        break;
      }
      case AsmItem::Kind::Instr: {
        Instr I = It.I;
        unsigned Len = opcodeLength(I.Op);

        // Resolve local branch targets.
        if (It.Label >= 0 && It.Reloc == RelocKind::None &&
            (I.Op == Opcode::Jmp || I.Op == Opcode::Jz ||
             I.Op == Opcode::Jnz || I.Op == Opcode::Call)) {
          I.Off = static_cast<int32_t>(static_cast<int64_t>(labelAt(It.Label)) -
                                       static_cast<int64_t>(ItOff + Len));
        }

        // Resolve direct calls to symbols defined in this module;
        // otherwise leave a CallSym relocation for the linker.
        if (It.Reloc == RelocKind::CallSym) {
          assert((I.Op == Opcode::Call || I.Op == Opcode::Jmp) &&
                 "CallSym on non-branch");
          auto SIt = Result.FunctionOffsets.find(It.Symbol);
          if (SIt != Result.FunctionOffsets.end()) {
            I.Off = static_cast<int32_t>(static_cast<int64_t>(SIt->second) -
                                         static_cast<int64_t>(ItOff + Len));
          } else {
            I.Off = 0;
            Result.Relocs.push_back(
                {RelocKind::CallSym, ItOff + 1, It.Symbol, 0, 0});
          }
        }

        switch (It.Reloc) {
        case RelocKind::None:
        case RelocKind::CallSym:
          break;
        case RelocKind::FuncAddr64:
        case RelocKind::GlobalAddr64:
        case RelocKind::GotSlot64:
          assert(I.Op == Opcode::MovImm && "addr reloc on non-movi");
          Result.Relocs.push_back({It.Reloc, ItOff + 2, It.Symbol, I.Imm, 0});
          break;
        case RelocKind::BaryIndex32:
          assert(I.Op == Opcode::BaryRead && "bary reloc on non-baryread");
          Result.Relocs.push_back(
              {RelocKind::BaryIndex32, ItOff + 2, "", 0, It.SiteId});
          break;
        case RelocKind::CodeAddr64: {
          assert(I.Op == Opcode::MovImm && "code-addr reloc on non-movi");
          I.Imm = labelAt(It.Label); // module-relative until loader adds base
          Result.Relocs.push_back(
              {RelocKind::CodeAddr64, ItOff + 2, "", I.Imm, 0});
          break;
        }
        case RelocKind::JumpTable64:
        case RelocKind::DataFuncAddr64:
        case RelocKind::DataGlobalAddr64:
          mcfi_unreachable("reloc kind not valid on instructions");
        }

        encode(I, Result.Bytes);
        assert(Result.Bytes.size() == ItOff + Len && "encode length mismatch");
        break;
      }
      }
    }
  }
  // Trailing alignment so the next module in the code region starts clean.
  emitPad(static_cast<unsigned>((4 - Result.Bytes.size() % 4) % 4),
          Result.Bytes);
  return Result;
}
