//===- rewriter/Rewriter.cpp - MCFI instrumentation pass ------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rewriter/Rewriter.h"

#include "support/Assert.h"

using namespace mcfi;
using namespace mcfi::visa;

namespace {

Instr mk(Opcode Op) {
  Instr I;
  I.Op = Op;
  return I;
}

/// Emits the common core of a check transaction (Fig. 4): assumes the
/// candidate target address is already in RegTarget (r15). Appends:
///
///   andi r15, 0xffffffff        ; sandbox mask ("movl %ecx,%ecx")
///   Try:
///   baryread r12, [site]        ; branch ID (patched index)
///   tableread r13, [r15]        ; target ID
///   xor  r11, r12, r13
///   jz   r11, Go                ; IDs equal: allowed
///   movi r11, 1
///   and  r11, r11, r13
///   jz   r11, Halt              ; reserved bit clear: invalid target
///   xor  r11, r12, r13
///   andi r11, 0xffff
///   jnz  r11, Try               ; version mismatch: update in flight
///   Halt: hlt                   ; same version, different ECN: violation
///   Go:
///
/// Returns the Go label; the caller appends the final jmpi/calli and
/// registers the branch site with \p SiteId.
int emitCheckCore(AsmFunction &Fn, std::vector<AsmItem> &Items,
                  uint32_t SiteId, const RewriteOptions &Opts) {
  int Try = Fn.newLabel();
  int Halt = Fn.newLabel();
  int Go = Fn.newLabel();

  {
    Instr I = mk(Opcode::AndImm);
    I.Rd = RegTarget;
    I.Imm = 0xffffffffull;
    Items.push_back(AsmItem::instr(I));
  }
  if (Opts.AlignTargetsByMasking) {
    // Footnote-1 variant: force 4-byte alignment with an extra and.
    Instr I = mk(Opcode::AndImm);
    I.Rd = RegTarget;
    I.Imm = 0xfffffffcull;
    Items.push_back(AsmItem::instr(I));
  }
  Items.push_back(AsmItem::label(Try));
  {
    Instr I = mk(Opcode::BaryRead);
    I.Rd = RegBranchID;
    AsmItem It = AsmItem::instr(I);
    It.Reloc = RelocKind::BaryIndex32;
    It.SiteId = SiteId;
    Items.push_back(It);
  }
  {
    Instr I = mk(Opcode::TableRead);
    I.Rd = RegTargetID;
    I.Ra = RegTarget;
    Items.push_back(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::Xor);
    I.Rd = RegIDDiff;
    I.Ra = RegBranchID;
    I.Rb = RegTargetID;
    Items.push_back(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::Jz);
    I.Ra = RegIDDiff;
    AsmItem It = AsmItem::instr(I);
    It.Label = Go;
    Items.push_back(It);
  }
  // Slow path: validity test ("testb $1, %sil").
  {
    Instr I = mk(Opcode::MovImm);
    I.Rd = RegIDDiff;
    I.Imm = 1;
    Items.push_back(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::And);
    I.Rd = RegIDDiff;
    I.Ra = RegIDDiff;
    I.Rb = RegTargetID;
    Items.push_back(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::Jz);
    I.Ra = RegIDDiff;
    AsmItem It = AsmItem::instr(I);
    It.Label = Halt;
    Items.push_back(It);
  }
  // Version comparison ("cmpw %di,%si; jne Try").
  {
    Instr I = mk(Opcode::Xor);
    I.Rd = RegIDDiff;
    I.Ra = RegBranchID;
    I.Rb = RegTargetID;
    Items.push_back(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::AndImm);
    I.Rd = RegIDDiff;
    I.Imm = 0xffffull;
    Items.push_back(AsmItem::instr(I));
  }
  {
    Instr I = mk(Opcode::Jnz);
    I.Ra = RegIDDiff;
    AsmItem It = AsmItem::instr(I);
    It.Label = Try;
    Items.push_back(It);
  }
  Items.push_back(AsmItem::label(Halt));
  Items.push_back(AsmItem::instr(mk(Opcode::Halt)));
  Items.push_back(AsmItem::label(Go));
  return Go;
}

class RewriterImpl {
public:
  RewriterImpl(PendingModule &PM, const RewriteOptions &Opts)
      : PM(PM), Opts(Opts) {}

  void run() {
    for (uint32_t F = 0; F != PM.Functions.size(); ++F)
      rewriteFunction(F);
  }

private:
  uint32_t newSite(uint32_t FuncIndex, BranchKind Kind, int SeqStart,
                   int Branch, const SiteMeta *Meta) {
    PendingBranchSite BS;
    BS.FuncIndex = FuncIndex;
    BS.Kind = Kind;
    BS.SeqStartLabel = SeqStart;
    BS.BranchLabel = Branch;
    if (Meta) {
      BS.TypeSig = Meta->TypeSig;
      BS.VariadicPointer = Meta->VariadicPointer;
    }
    PM.BranchSites.push_back(std::move(BS));
    return static_cast<uint32_t>(PM.BranchSites.size() - 1);
  }

  void rewriteFunction(uint32_t FuncIndex) {
    AsmFunction &Fn = PM.Functions[FuncIndex];
    std::vector<AsmItem> Old = std::move(Fn.Items);
    std::vector<AsmItem> New;
    New.reserve(Old.size() * 2);

    for (AsmItem &It : Old) {
      if (It.K != AsmItem::Kind::Instr) {
        New.push_back(std::move(It));
        continue;
      }
      const SiteMeta *Meta = It.Meta >= 0 ? &PM.Meta[It.Meta] : nullptr;

      switch (It.I.Op) {
      case Opcode::Ret: {
        // Fig. 4: popq %rcx; movl %ecx,%ecx; checks; jmpq *%rcx.
        int SeqStart = Fn.newLabel();
        New.push_back(AsmItem::label(SeqStart));
        {
          Instr I = mk(Opcode::Pop);
          I.Rd = RegTarget;
          I.Ra = RegTarget;
          New.push_back(AsmItem::instr(I));
        }
        uint32_t Site = static_cast<uint32_t>(PM.BranchSites.size());
        emitCheckCore(Fn, New, Site, Opts);
        int Branch = Fn.newLabel();
        New.push_back(AsmItem::label(Branch));
        {
          Instr I = mk(Opcode::JmpInd);
          I.Ra = RegTarget;
          New.push_back(AsmItem::instr(I));
        }
        newSite(FuncIndex, BranchKind::Return, SeqStart, Branch, nullptr);
        continue;
      }
      case Opcode::CallInd: {
        assert(Meta && Meta->K == SiteMeta::Kind::IndirectCall &&
               "untagged indirect call");
        int SeqStart = Fn.newLabel();
        New.push_back(AsmItem::label(SeqStart));
        {
          Instr I = mk(Opcode::Mov);
          I.Rd = RegTarget;
          I.Ra = It.I.Ra; // staged target register
          New.push_back(AsmItem::instr(I));
        }
        uint32_t Site = static_cast<uint32_t>(PM.BranchSites.size());
        emitCheckCore(Fn, New, Site, Opts);
        // Align the return site: pad before the calli so the address
        // right after it is 4-byte aligned. The branch label comes after
        // the padding so that it names the calli itself.
        New.push_back(AsmItem::align4(opcodeLength(Opcode::CallInd)));
        int Branch = Fn.newLabel();
        New.push_back(AsmItem::label(Branch));
        {
          Instr I = mk(Opcode::CallInd);
          I.Ra = RegTarget;
          New.push_back(AsmItem::instr(I));
        }
        int RetSite = Fn.newLabel();
        New.push_back(AsmItem::label(RetSite));
        newSite(FuncIndex, BranchKind::IndirectCall, SeqStart, Branch, Meta);

        PendingCallSite CS;
        CS.FuncIndex = FuncIndex;
        CS.RetSiteLabel = RetSite;
        CS.Direct = false;
        CS.TypeSig = Meta->TypeSig;
        CS.VariadicPointer = Meta->VariadicPointer;
        PM.CallSites.push_back(std::move(CS));
        continue;
      }
      case Opcode::Call: {
        // Direct call: align its return site and record it.
        New.push_back(AsmItem::align4(opcodeLength(Opcode::Call)));
        std::string Callee = Meta ? Meta->Callee : It.Symbol;
        New.push_back(std::move(It));
        int RetSite = Fn.newLabel();
        New.push_back(AsmItem::label(RetSite));

        PendingCallSite CS;
        CS.FuncIndex = FuncIndex;
        CS.RetSiteLabel = RetSite;
        CS.Direct = true;
        CS.Callee = Callee;
        PM.CallSites.push_back(std::move(CS));
        continue;
      }
      case Opcode::JmpInd: {
        if (Meta && Meta->K == SiteMeta::Kind::JumpTableJump) {
          // Intraprocedural jump-table jump: statically verified, no
          // runtime check (paper Sec. 6).
          New.push_back(std::move(It));
          continue;
        }
        assert(Meta && Meta->K == SiteMeta::Kind::IndirectTailCall &&
               "untagged indirect jump");
        int SeqStart = Fn.newLabel();
        New.push_back(AsmItem::label(SeqStart));
        {
          Instr I = mk(Opcode::Mov);
          I.Rd = RegTarget;
          I.Ra = It.I.Ra;
          New.push_back(AsmItem::instr(I));
        }
        uint32_t Site = static_cast<uint32_t>(PM.BranchSites.size());
        emitCheckCore(Fn, New, Site, Opts);
        int Branch = Fn.newLabel();
        New.push_back(AsmItem::label(Branch));
        {
          Instr I = mk(Opcode::JmpInd);
          I.Ra = RegTarget;
          New.push_back(AsmItem::instr(I));
        }
        newSite(FuncIndex, BranchKind::IndirectJump, SeqStart, Branch, Meta);
        continue;
      }
      case Opcode::Syscall: {
        bool IsSetjmp = Meta && Meta->K == SiteMeta::Kind::SetjmpCall;
        New.push_back(std::move(It));
        if (IsSetjmp) {
          int RetSite = Fn.newLabel();
          New.push_back(AsmItem::label(RetSite));
          PendingCallSite CS;
          CS.FuncIndex = FuncIndex;
          CS.RetSiteLabel = RetSite;
          CS.Direct = true;
          CS.Callee = "setjmp";
          CS.IsSetjmp = true;
          PM.CallSites.push_back(std::move(CS));
        }
        continue;
      }
      case Opcode::Store:
      case Opcode::Store8:
      case Opcode::Store16:
      case Opcode::Store32: {
        // Sandbox memory writes: mask the address register unless it is
        // the (trusted) stack pointer.
        if (It.I.Rd != RegSP) {
          Instr M = mk(Opcode::AndImm);
          M.Rd = It.I.Rd;
          M.Imm = 0xffffffffull;
          New.push_back(AsmItem::instr(M));
        }
        New.push_back(std::move(It));
        continue;
      }
      default:
        New.push_back(std::move(It));
        continue;
      }
    }
    Fn.Items = std::move(New);
  }

  PendingModule &PM;
  RewriteOptions Opts;
};

} // namespace

void mcfi::instrumentModule(PendingModule &PM, const RewriteOptions &Opts) {
  assert(!Opts.Optimize && "RewriteOptions::Optimize is not supported");
  RewriterImpl(PM, Opts).run();
}

void mcfi::addPltEntries(PendingModule &PM, const RewriteOptions &Opts) {
  assert(!Opts.Optimize && "RewriteOptions::Optimize is not supported");
  for (const std::string &Sym : PM.Imports) {
    // GOT slot in the data section.
    PM.DataSize = (PM.DataSize + 7) & ~7ull;
    uint64_t GotOff = PM.DataSize;
    PM.DataSymbols["got$" + Sym] = GotOff;
    PM.DataSize += 8;

    AsmFunction Fn;
    Fn.Name = "plt$" + Sym;
    int SeqStart = Fn.newLabel();
    Fn.Items.push_back(AsmItem::label(SeqStart));
    int Reload = Fn.newLabel();
    Fn.Items.push_back(AsmItem::label(Reload));
    {
      // r15 = &got$sym; r15 = *r15. Reloaded from the GOT on every retry
      // so that a concurrent update transaction's new GOT value is seen
      // (paper: PLT instrumentation "needs to reload the target address
      // from GOT when a transaction is retried").
      Instr I = mk(Opcode::MovImm);
      I.Rd = RegTarget;
      AsmItem It = AsmItem::instr(I);
      It.Reloc = RelocKind::GotSlot64;
      It.Symbol = "got$" + Sym;
      Fn.Items.push_back(It);
    }
    {
      Instr I = mk(Opcode::Load);
      I.Rd = RegTarget;
      I.Ra = RegTarget;
      Fn.Items.push_back(AsmItem::instr(I));
    }
    uint32_t Site = static_cast<uint32_t>(PM.BranchSites.size());
    // Build the check core, but retry to the GOT reload point instead of
    // the plain Try label: emitCheckCore's internal Try reloads only the
    // IDs, so splice a jump back to Reload for the retry path by reusing
    // the core and then fixing the Jnz target.
    size_t CoreBegin = Fn.Items.size();
    emitCheckCore(Fn, Fn.Items, Site, Opts);
    for (size_t I = CoreBegin; I != Fn.Items.size(); ++I) {
      AsmItem &It = Fn.Items[I];
      if (It.K == AsmItem::Kind::Instr && It.I.Op == Opcode::Jnz)
        It.Label = Reload;
    }
    int Branch = Fn.newLabel();
    Fn.Items.push_back(AsmItem::label(Branch));
    {
      Instr I = mk(Opcode::JmpInd);
      I.Ra = RegTarget;
      Fn.Items.push_back(AsmItem::instr(I));
    }

    PendingBranchSite BS;
    BS.FuncIndex = static_cast<uint32_t>(PM.Functions.size());
    BS.Kind = BranchKind::PltJump;
    BS.SeqStartLabel = SeqStart;
    BS.BranchLabel = Branch;
    BS.PltSymbol = Sym;
    PM.BranchSites.push_back(std::move(BS));

    FunctionInfo Info;
    Info.Name = Fn.Name;
    Info.TypeSig = "plt";
    Info.PrettyType = "plt entry for " + Sym;
    PM.FunctionInfos.push_back(std::move(Info));

    PM.Functions.push_back(std::move(Fn));
  }
}
