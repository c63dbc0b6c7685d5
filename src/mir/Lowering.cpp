//===- mir/Lowering.cpp - MiniC AST to MIR lowering -----------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ctypes/Layout.h"
#include "mir/MIR.h"
#include "support/Assert.h"
#include "support/StringUtils.h"

#include <unordered_map>

using namespace mcfi;
using namespace mcfi::mir;
using namespace mcfi::minic;

namespace {

class LoweringImpl {
public:
  LoweringImpl(Program &Prog, const LowerOptions &Opts, MirModule &Out,
               std::vector<std::string> &Errors)
      : Prog(Prog), Ctx(Prog.getTypes()), Opts(Opts), Out(Out),
        Errors(Errors) {}

  bool run() {
    Out.Name = Out.Name.empty() ? "module" : Out.Name;

    for (VarDecl *G : Prog.Globals)
      lowerGlobal(G);

    for (FuncDecl *F : Prog.Functions) {
      if (F->isDefined())
        lowerFunction(F);
      else if (!F->isBuiltin())
        Out.Imports.push_back(F->getName());
    }
    // Address-taken prototypes: the definition lives elsewhere, but this
    // module turns it into an indirect-branch target.
    for (FuncDecl *F : Prog.Functions)
      if (!F->isDefined() && !F->isBuiltin() && F->isAddressTaken())
        Out.AddressTakenImports.push_back(F->getName());

    if (Prog.findFunction("main") && Prog.findFunction("main")->isDefined())
      Out.EntryFunction = "main";
    return !HadError;
  }

private:
  void error(minic::SourceLoc Loc, const std::string &Msg) {
    HadError = true;
    Errors.push_back(formatString("line %u: %s", Loc.Line, Msg.c_str()));
  }

  //===--------------------------------------------------------------------===//
  // Globals
  //===--------------------------------------------------------------------===//

  /// Evaluates a constant initializer expression into raw bytes and/or a
  /// symbol-address initializer. Returns false for non-constant inits.
  bool evalConstInit(const Expr *E, uint64_t Size, std::vector<uint8_t> &Bytes,
                     uint64_t Offset, std::vector<GlobalAddrInit> &AddrInits) {
    // Walk through implicit/explicit casts.
    while (const auto *C = dyn_cast<CastExpr>(E))
      E = C->getSub();
    if (const auto *IL = dyn_cast<IntLitExpr>(E)) {
      uint64_t V = static_cast<uint64_t>(IL->getValue());
      for (uint64_t B = 0; B != Size && B != 8; ++B)
        Bytes[Offset + B] = static_cast<uint8_t>(V >> (8 * B));
      return true;
    }
    if (const auto *U = dyn_cast<UnaryExpr>(E)) {
      if (U->getOp() == UnaryOp::AddrOf)
        return evalConstInit(U->getSub(), Size, Bytes, Offset, AddrInits);
      if (U->getOp() == UnaryOp::Neg) {
        const Expr *Sub = U->getSub();
        while (const auto *C = dyn_cast<CastExpr>(Sub))
          Sub = C->getSub();
        if (const auto *IL = dyn_cast<IntLitExpr>(Sub)) {
          uint64_t V = -static_cast<uint64_t>(IL->getValue()); // wraps
          for (uint64_t B = 0; B != Size && B != 8; ++B)
            Bytes[Offset + B] = static_cast<uint8_t>(V >> (8 * B));
          return true;
        }
      }
      return false;
    }
    if (const auto *FR = dyn_cast<FuncRefExpr>(E)) {
      if (FR->getDecl()->isBuiltin())
        return false;
      FR->getDecl()->setAddressTaken();
      AddrInits.push_back({Offset, FR->getDecl()->getName(), true});
      return true;
    }
    if (const auto *SL = dyn_cast<StrLitExpr>(E)) {
      AddrInits.push_back({Offset, internString(SL->getValue()), false});
      return true;
    }
    return false;
  }

  void lowerGlobal(VarDecl *G) {
    MirGlobal MG;
    MG.Name = G->getName();
    MG.Size = alignTo(std::max<uint64_t>(sizeOf(G->getType()), 1), 8);
    if (G->getInit()) {
      MG.Init.assign(MG.Size, 0);
      uint64_t ScalarSize = std::min<uint64_t>(sizeOf(G->getType()), 8);
      if (!evalConstInit(G->getInit(), std::max<uint64_t>(ScalarSize, 1),
                         MG.Init, 0, MG.AddrInits)) {
        error(G->getLoc(),
              "global initializer must be a constant in MiniC");
      }
    }
    GlobalSyms[G] = MG.Name;
    Out.Globals.push_back(std::move(MG));
  }

  std::string internString(const std::string &S) {
    auto It = StringSyms.find(S);
    if (It != StringSyms.end())
      return It->second;
    std::string Sym = formatString("str$%zu", StringSyms.size());
    MirGlobal MG;
    MG.Name = Sym;
    MG.Init.assign(S.begin(), S.end());
    MG.Init.push_back(0);
    MG.Size = alignTo(MG.Init.size(), 8);
    Out.Globals.push_back(std::move(MG));
    StringSyms.emplace(S, Sym);
    return Sym;
  }

  //===--------------------------------------------------------------------===//
  // Function state
  //===--------------------------------------------------------------------===//

  MirFunction *F = nullptr;
  uint32_t CurBlock = 0;
  bool Terminated = false;
  std::unordered_map<const VarDecl *, uint32_t> FrameIndex;
  std::unordered_map<std::string, uint32_t> LabelBlocks;
  std::vector<uint32_t> BreakTargets;
  std::vector<uint32_t> ContinueTargets;

  MirInst &emit(MirInst &&I) {
    if (Terminated) {
      // Unreachable code after a terminator: give it its own block.
      CurBlock = F->newBlock();
      Terminated = false;
    }
    F->Blocks[CurBlock].Insts.push_back(std::move(I));
    return F->Blocks[CurBlock].Insts.back();
  }

  void terminate(MirInst &&I) {
    emit(std::move(I));
    Terminated = true;
  }

  void switchTo(uint32_t Block) {
    if (!Terminated) {
      MirInst Br;
      Br.Op = MirOp::Br;
      Br.BlockA = Block;
      emit(std::move(Br));
    }
    CurBlock = Block;
    Terminated = false;
  }

  uint32_t constInt(int64_t V) {
    MirInst I;
    I.Op = MirOp::ConstInt;
    I.Dst = F->newVReg();
    I.Imm = V;
    return emit(std::move(I)).Dst;
  }

  uint32_t binOp(MirOp Op, uint32_t A, uint32_t B) {
    MirInst I;
    I.Op = Op;
    I.Dst = F->newVReg();
    I.A = A;
    I.B = B;
    return emit(std::move(I)).Dst;
  }

  static bool isScalar(const Type *T) {
    return T->isInt() || T->isFloat() || T->isPointer();
  }

  uint32_t frameObject(const VarDecl *V) {
    auto It = FrameIndex.find(V);
    if (It != FrameIndex.end())
      return It->second;
    uint64_t Size = alignTo(std::max<uint64_t>(sizeOf(V->getType()), 1), 8);
    uint32_t Idx = static_cast<uint32_t>(F->FrameObjects.size());
    F->FrameObjects.push_back(Size);
    FrameIndex[V] = Idx;
    return Idx;
  }

  //===--------------------------------------------------------------------===//
  // Function lowering
  //===--------------------------------------------------------------------===//

  void lowerFunction(FuncDecl *FD) {
    MirFunction MF;
    MF.Name = FD->getName();
    MF.Ty = FD->getType();
    MF.TypeSig = Ctx.canonicalSignature(FD->getType());
    MF.PrettyType = FD->getType()->print();
    MF.Variadic = FD->getType()->isVariadic();
    MF.AddressTaken = FD->isAddressTaken();

    Out.Functions.push_back(std::move(MF));
    F = &Out.Functions.back();
    FrameIndex.clear();
    LabelBlocks.clear();
    CurBlock = F->newBlock();
    Terminated = false;

    if (FD->getParams().size() > 5) {
      error(FD->getLoc(), "MiniC supports at most 5 parameters");
      return;
    }
    for (VarDecl *P : FD->getParams())
      frameObject(P);
    F->NumParams = static_cast<uint32_t>(FD->getParams().size());

    lowerStmt(FD->getBody());

    // Implicit return (value 0 for non-void, to keep the VM total).
    if (!Terminated) {
      MirInst Ret;
      Ret.Op = MirOp::Ret;
      if (!FD->getType()->getReturnType()->isVoid()) {
        Ret.A = constInt(0);
        Ret.HasValue = true;
      }
      terminate(std::move(Ret));
    }
    F = nullptr;
  }

  //===--------------------------------------------------------------------===//
  // L-value addresses
  //===--------------------------------------------------------------------===//

  uint32_t lowerAddr(const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::VarRef: {
      const VarDecl *V = cast<VarRefExpr>(E)->getDecl();
      if (V->isGlobal()) {
        MirInst I;
        I.Op = MirOp::GlobalAddr;
        I.Dst = F->newVReg();
        I.Sym = GlobalSyms.at(V);
        return emit(std::move(I)).Dst;
      }
      MirInst I;
      I.Op = MirOp::FrameAddr;
      I.Dst = F->newVReg();
      I.Imm = frameObject(V);
      return emit(std::move(I)).Dst;
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      assert(U->getOp() == UnaryOp::Deref && "address of non-deref unary");
      return lowerValue(U->getSub());
    }
    case ExprKind::Index: {
      const auto *Ix = cast<IndexExpr>(E);
      uint32_t Base = lowerValue(Ix->getBase());
      uint32_t Idx = lowerValue(Ix->getIdx());
      uint64_t ElemSize = sizeOf(Ix->getType());
      uint32_t Scaled =
          ElemSize == 1 ? Idx : binOp(MirOp::Mul, Idx, constInt(ElemSize));
      return binOp(MirOp::Add, Base, Scaled);
    }
    case ExprKind::Member: {
      const auto *M = cast<MemberExpr>(E);
      uint32_t Base = M->isArrow() ? lowerValue(M->getBase())
                                   : lowerAddr(M->getBase());
      uint64_t Off = fieldOffset(M->getRecord(), M->getFieldIndex());
      if (Off == 0)
        return Base;
      return binOp(MirOp::Add, Base, constInt(Off));
    }
    case ExprKind::StrLit: {
      MirInst I;
      I.Op = MirOp::GlobalAddr;
      I.Dst = F->newVReg();
      I.Sym = internString(cast<StrLitExpr>(E)->getValue());
      return emit(std::move(I)).Dst;
    }
    default:
      error(E->getLoc(), "expression is not addressable");
      return constInt(0);
    }
  }

  //===--------------------------------------------------------------------===//
  // R-values
  //===--------------------------------------------------------------------===//

  /// Loads the value at \p Addr with the size/signedness of \p Ty.
  uint32_t loadTyped(uint32_t Addr, const Type *Ty) {
    // Arrays and records "load" as their address (decay / aggregate ref).
    if (Ty->isArray() || Ty->isRecord())
      return Addr;
    MirInst I;
    I.Op = MirOp::Load;
    I.Dst = F->newVReg();
    I.A = Addr;
    I.Size = static_cast<uint8_t>(std::max<uint64_t>(sizeOf(Ty), 1));
    if (const auto *IT = dyn_cast<IntType>(Ty))
      I.SignExtend = IT->isSigned();
    return emit(std::move(I)).Dst;
  }

  void storeTyped(uint32_t Addr, uint32_t Value, const Type *Ty) {
    MirInst I;
    I.Op = MirOp::Store;
    I.A = Addr;
    I.B = Value;
    I.Size = static_cast<uint8_t>(std::max<uint64_t>(sizeOf(Ty), 1));
    emit(std::move(I));
  }

  uint32_t lowerValue(const Expr *E) {
    switch (E->getKind()) {
    case ExprKind::IntLit:
      return constInt(cast<IntLitExpr>(E)->getValue());
    case ExprKind::StrLit:
      return lowerAddr(E);
    case ExprKind::NameRef:
      mcfi_unreachable("NameRef survived Sema");
    case ExprKind::VarRef: {
      // Scalar locals load directly from their stack slot (the register
      // allocator's job in a real backend); everything else goes through
      // an address.
      const VarDecl *V = cast<VarRefExpr>(E)->getDecl();
      if (!V->isGlobal() && isScalar(E->getType())) {
        MirInst I;
        I.Op = MirOp::FrameLoad;
        I.Dst = F->newVReg();
        I.Imm = frameObject(V);
        I.Size = static_cast<uint8_t>(std::max<uint64_t>(sizeOf(E->getType()), 1));
        if (const auto *IT = dyn_cast<IntType>(E->getType()))
          I.SignExtend = IT->isSigned();
        return emit(std::move(I)).Dst;
      }
      uint32_t Addr = lowerAddr(E);
      return loadTyped(Addr, E->getType());
    }
    case ExprKind::FuncRef: {
      // A bare function reference in value position (callee handling
      // happens in lowerCall); produce its address.
      const FuncDecl *FD = cast<FuncRefExpr>(E)->getDecl();
      if (FD->isBuiltin()) {
        error(E->getLoc(),
              "cannot take the address of builtin '" + FD->getName() + "'");
        return constInt(0);
      }
      MirInst I;
      I.Op = MirOp::FuncAddr;
      I.Dst = F->newVReg();
      I.Sym = FD->getName();
      return emit(std::move(I)).Dst;
    }
    case ExprKind::Unary:
      return lowerUnary(cast<UnaryExpr>(E));
    case ExprKind::Binary:
      return lowerBinary(cast<BinaryExpr>(E));
    case ExprKind::Assign: {
      const auto *A = cast<AssignExpr>(E);
      if (const auto *VR = dyn_cast<VarRefExpr>(A->getLHS());
          VR && !VR->getDecl()->isGlobal() &&
          isScalar(A->getLHS()->getType())) {
        uint32_t Value = lowerValue(A->getRHS());
        MirInst I;
        I.Op = MirOp::FrameStore;
        I.A = Value;
        I.Imm = frameObject(VR->getDecl());
        I.Size = static_cast<uint8_t>(
            std::max<uint64_t>(sizeOf(A->getLHS()->getType()), 1));
        emit(std::move(I));
        return Value;
      }
      uint32_t Addr = lowerAddr(A->getLHS());
      uint32_t Value = lowerValue(A->getRHS());
      storeTyped(Addr, Value, A->getLHS()->getType());
      return Value;
    }
    case ExprKind::Cond:
      return lowerCond(cast<CondExpr>(E));
    case ExprKind::Call:
      return lowerCall(cast<CallExpr>(E), /*TailPosition=*/false);
    case ExprKind::Index:
    case ExprKind::Member: {
      uint32_t Addr = lowerAddr(E);
      return loadTyped(Addr, E->getType());
    }
    case ExprKind::Cast:
      return lowerCast(cast<CastExpr>(E));
    case ExprKind::SizeofType:
      return constInt(
          static_cast<int64_t>(sizeOf(cast<SizeofExpr>(E)->getOperand())));
    }
    mcfi_unreachable("covered switch");
  }

  uint32_t lowerUnary(const UnaryExpr *U) {
    switch (U->getOp()) {
    case UnaryOp::Neg: {
      MirInst I;
      I.Op = MirOp::Neg;
      I.Dst = F->newVReg();
      I.A = lowerValue(U->getSub());
      return emit(std::move(I)).Dst;
    }
    case UnaryOp::BitNot: {
      MirInst I;
      I.Op = MirOp::Not;
      I.Dst = F->newVReg();
      I.A = lowerValue(U->getSub());
      return emit(std::move(I)).Dst;
    }
    case UnaryOp::LogicalNot:
      return binOp(MirOp::CmpEq, lowerValue(U->getSub()), constInt(0));
    case UnaryOp::Deref: {
      uint32_t Addr = lowerValue(U->getSub());
      return loadTyped(Addr, U->getType());
    }
    case UnaryOp::AddrOf:
      if (const auto *FR = dyn_cast<FuncRefExpr>(U->getSub()))
        return lowerValue(FR); // &f == f's address
      return lowerAddr(U->getSub());
    }
    mcfi_unreachable("covered switch");
  }

  bool isSignedCompare(const BinaryExpr *B) {
    const Type *T = B->getLHS()->getType();
    if (const auto *IT = dyn_cast<IntType>(T))
      return IT->isSigned();
    return false; // pointers compare unsigned
  }

  uint32_t lowerBinary(const BinaryExpr *B) {
    switch (B->getOp()) {
    case BinaryOp::LogicalAnd:
    case BinaryOp::LogicalOr:
      return lowerShortCircuit(B);
    default:
      break;
    }

    uint32_t L = lowerValue(B->getLHS());
    uint32_t R = lowerValue(B->getRHS());

    // Pointer arithmetic scaling.
    const Type *LT = B->getLHS()->getType();
    const Type *RT = B->getRHS()->getType();
    if ((B->getOp() == BinaryOp::Add || B->getOp() == BinaryOp::Sub)) {
      if (LT->isPointer() && !RT->isPointer()) {
        uint64_t Elem =
            std::max<uint64_t>(sizeOf(cast<PointerType>(LT)->getPointee()), 1);
        if (Elem != 1)
          R = binOp(MirOp::Mul, R, constInt(Elem));
      } else if (RT->isPointer() && !LT->isPointer()) {
        uint64_t Elem =
            std::max<uint64_t>(sizeOf(cast<PointerType>(RT)->getPointee()), 1);
        if (Elem != 1)
          L = binOp(MirOp::Mul, L, constInt(Elem));
      } else if (LT->isPointer() && RT->isPointer() &&
                 B->getOp() == BinaryOp::Sub) {
        uint32_t Diff = binOp(MirOp::Sub, L, R);
        uint64_t Elem =
            std::max<uint64_t>(sizeOf(cast<PointerType>(LT)->getPointee()), 1);
        return Elem == 1 ? Diff : binOp(MirOp::DivS, Diff, constInt(Elem));
      }
    }

    switch (B->getOp()) {
    case BinaryOp::Add:
      return binOp(MirOp::Add, L, R);
    case BinaryOp::Sub:
      return binOp(MirOp::Sub, L, R);
    case BinaryOp::Mul:
      return binOp(MirOp::Mul, L, R);
    case BinaryOp::Div:
      return binOp(MirOp::DivS, L, R);
    case BinaryOp::Mod:
      return binOp(MirOp::ModS, L, R);
    case BinaryOp::And:
      return binOp(MirOp::And, L, R);
    case BinaryOp::Or:
      return binOp(MirOp::Or, L, R);
    case BinaryOp::Xor:
      return binOp(MirOp::Xor, L, R);
    case BinaryOp::Shl:
      return binOp(MirOp::Shl, L, R);
    case BinaryOp::Shr: {
      const auto *IT = dyn_cast<IntType>(B->getLHS()->getType());
      return binOp(IT && !IT->isSigned() ? MirOp::ShrL : MirOp::ShrA, L, R);
    }
    case BinaryOp::Eq:
      return binOp(MirOp::CmpEq, L, R);
    case BinaryOp::Ne:
      return binOp(MirOp::CmpNe, L, R);
    case BinaryOp::Lt:
      return binOp(isSignedCompare(B) ? MirOp::CmpLtS : MirOp::CmpLtU, L, R);
    case BinaryOp::Le:
      return binOp(isSignedCompare(B) ? MirOp::CmpLeS : MirOp::CmpLeU, L, R);
    case BinaryOp::Gt:
      return binOp(isSignedCompare(B) ? MirOp::CmpLtS : MirOp::CmpLtU, R, L);
    case BinaryOp::Ge:
      return binOp(isSignedCompare(B) ? MirOp::CmpLeS : MirOp::CmpLeU, R, L);
    case BinaryOp::LogicalAnd:
    case BinaryOp::LogicalOr:
      break;
    }
    mcfi_unreachable("covered switch");
  }

  uint32_t lowerShortCircuit(const BinaryExpr *B) {
    bool IsAnd = B->getOp() == BinaryOp::LogicalAnd;
    uint32_t Result = F->newVReg();
    uint32_t RHSBlock = F->newBlock();
    uint32_t ShortBlock = F->newBlock();
    uint32_t EndBlock = F->newBlock();

    uint32_t L = lowerValue(B->getLHS());
    MirInst CB;
    CB.Op = MirOp::CondBr;
    CB.A = L;
    CB.BlockA = IsAnd ? RHSBlock : ShortBlock;
    CB.BlockB = IsAnd ? ShortBlock : RHSBlock;
    terminate(std::move(CB));

    CurBlock = RHSBlock;
    Terminated = false;
    uint32_t R = lowerValue(B->getRHS());
    uint32_t Norm = binOp(MirOp::CmpNe, R, constInt(0));
    MirInst Mv;
    Mv.Op = MirOp::Mov;
    Mv.Dst = Result;
    Mv.A = Norm;
    emit(std::move(Mv));
    switchTo(EndBlock);

    CurBlock = ShortBlock;
    Terminated = false;
    MirInst Cst;
    Cst.Op = MirOp::ConstInt;
    Cst.Dst = Result;
    Cst.Imm = IsAnd ? 0 : 1;
    emit(std::move(Cst));
    switchTo(EndBlock);

    CurBlock = EndBlock;
    Terminated = false;
    return Result;
  }

  uint32_t lowerCond(const CondExpr *C) {
    uint32_t Result = F->newVReg();
    uint32_t ThenB = F->newBlock();
    uint32_t ElseB = F->newBlock();
    uint32_t EndB = F->newBlock();

    uint32_t Cond = lowerValue(C->getCond());
    MirInst CB;
    CB.Op = MirOp::CondBr;
    CB.A = Cond;
    CB.BlockA = ThenB;
    CB.BlockB = ElseB;
    terminate(std::move(CB));

    CurBlock = ThenB;
    Terminated = false;
    uint32_t TV = lowerValue(C->getThen());
    MirInst M1;
    M1.Op = MirOp::Mov;
    M1.Dst = Result;
    M1.A = TV;
    emit(std::move(M1));
    switchTo(EndB);

    CurBlock = ElseB;
    Terminated = false;
    uint32_t EV = lowerValue(C->getElse());
    MirInst M2;
    M2.Op = MirOp::Mov;
    M2.Dst = Result;
    M2.A = EV;
    emit(std::move(M2));
    switchTo(EndB);

    CurBlock = EndB;
    Terminated = false;
    return Result;
  }

  uint32_t lowerCast(const CastExpr *C) {
    uint32_t V = lowerValue(C->getSub());
    const Type *To = C->getType();
    const Type *From = C->getSub()->getType();
    // Integer narrowing/extension; everything else is value-preserving in
    // the VM's 64-bit registers.
    const auto *ToInt = dyn_cast<IntType>(To);
    if (!ToInt || ToInt->getBitWidth() >= 64)
      return V;
    const auto *FromInt = dyn_cast<IntType>(From);
    bool FromWider = !FromInt || FromInt->getBitWidth() > ToInt->getBitWidth();
    if (!FromWider && FromInt->isSigned() == ToInt->isSigned())
      return V;
    unsigned Shift = 64 - ToInt->getBitWidth();
    uint32_t Shifted = binOp(MirOp::Shl, V, constInt(Shift));
    return binOp(ToInt->isSigned() ? MirOp::ShrA : MirOp::ShrL, Shifted,
                 constInt(Shift));
  }

  uint32_t lowerCall(const CallExpr *Call, bool TailPosition) {
    const auto &Args = Call->getArgs();
    if (Args.size() > 5) {
      error(Call->getLoc(), "MiniC supports at most 5 call arguments");
      return constInt(0);
    }
    std::vector<uint32_t> ArgRegs;
    for (const Expr *A : Args)
      ArgRegs.push_back(lowerValue(A));

    bool HasResult = !Call->getType()->isVoid();

    if (Call->isDirect()) {
      FuncDecl *Callee = Call->getDirectCallee();
      if (Callee->isBuiltin()) {
        MirInst I;
        I.Op = MirOp::Syscall;
        I.Imm = static_cast<int64_t>(Callee->getBuiltin());
        I.Args = std::move(ArgRegs);
        I.IsSetjmp = Callee->getBuiltin() == BuiltinKind::Setjmp;
        if (HasResult)
          I.Dst = F->newVReg();
        uint32_t Dst = I.Dst;
        emit(std::move(I));
        return HasResult ? Dst : NoVReg;
      }
      MirInst I;
      I.Op = TailPosition ? MirOp::TailCall : MirOp::Call;
      I.Sym = Callee->getName();
      I.Args = std::move(ArgRegs);
      if (!TailPosition && HasResult)
        I.Dst = F->newVReg();
      uint32_t Dst = I.Dst;
      if (TailPosition) {
        terminate(std::move(I));
        return NoVReg;
      }
      emit(std::move(I));
      return HasResult ? Dst : NoVReg;
    }

    // Indirect call: resolve the function-pointer value. "(*fp)(...)"
    // derefs to a *function* type, whose value is fp itself; a deref
    // that yields another pointer (e.g. "(*slot)(...)" with slot of
    // type fnptr*) must load through normally.
    const Expr *Callee = Call->getCallee();
    uint32_t FnPtr;
    if (const auto *U = dyn_cast<UnaryExpr>(Callee);
        U && U->getOp() == UnaryOp::Deref && U->getType()->isFunction())
      FnPtr = lowerValue(U->getSub()); // (*fp)(...) => fp's value
    else
      FnPtr = lowerValue(Callee);

    const FunctionType *FT = Call->getCalleeFnType();
    MirInst I;
    I.Op = TailPosition ? MirOp::TailCallInd : MirOp::CallInd;
    I.A = FnPtr;
    I.Args = std::move(ArgRegs);
    I.TypeSig = Ctx.canonicalSignature(FT);
    I.PrettyType = FT->print();
    I.VariadicPtr = FT->isVariadic();
    if (!TailPosition && HasResult)
      I.Dst = F->newVReg();
    uint32_t Dst = I.Dst;
    if (TailPosition) {
      terminate(std::move(I));
      return NoVReg;
    }
    emit(std::move(I));
    return HasResult ? Dst : NoVReg;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  uint32_t labelBlock(const std::string &Name) {
    auto It = LabelBlocks.find(Name);
    if (It != LabelBlocks.end())
      return It->second;
    uint32_t B = F->newBlock();
    LabelBlocks.emplace(Name, B);
    return B;
  }

  void lowerStmt(const Stmt *S) {
    switch (S->getKind()) {
    case StmtKind::Block:
      for (const Stmt *Sub : cast<BlockStmt>(S)->getStmts())
        lowerStmt(Sub);
      return;
    case StmtKind::Decl: {
      const VarDecl *V = cast<DeclStmt>(S)->getDecl();
      frameObject(V);
      if (V->getInit()) {
        uint32_t Value = lowerValue(V->getInit());
        if (isScalar(V->getType())) {
          MirInst I;
          I.Op = MirOp::FrameStore;
          I.A = Value;
          I.Imm = frameObject(V);
          I.Size =
              static_cast<uint8_t>(std::max<uint64_t>(sizeOf(V->getType()), 1));
          emit(std::move(I));
        } else {
          MirInst I;
          I.Op = MirOp::FrameAddr;
          I.Dst = F->newVReg();
          I.Imm = frameObject(V);
          uint32_t Addr = emit(std::move(I)).Dst;
          storeTyped(Addr, Value, V->getType());
        }
      }
      return;
    }
    case StmtKind::Expr:
      lowerValue(cast<ExprStmt>(S)->getExpr());
      return;
    case StmtKind::If: {
      const auto *If = cast<IfStmt>(S);
      uint32_t ThenB = F->newBlock();
      uint32_t ElseB = If->getElse() ? F->newBlock() : 0;
      uint32_t EndB = F->newBlock();
      if (!If->getElse())
        ElseB = EndB;

      uint32_t Cond = lowerValue(If->getCond());
      MirInst CB;
      CB.Op = MirOp::CondBr;
      CB.A = Cond;
      CB.BlockA = ThenB;
      CB.BlockB = ElseB;
      terminate(std::move(CB));

      CurBlock = ThenB;
      Terminated = false;
      lowerStmt(If->getThen());
      switchTo(EndB);

      if (If->getElse()) {
        CurBlock = ElseB;
        Terminated = false;
        lowerStmt(If->getElse());
        switchTo(EndB);
      }
      CurBlock = EndB;
      Terminated = false;
      return;
    }
    case StmtKind::While:
    case StmtKind::DoWhile: {
      const auto *W = cast<WhileStmt>(S);
      bool IsDo = S->getKind() == StmtKind::DoWhile;
      uint32_t CondB = F->newBlock();
      uint32_t BodyB = F->newBlock();
      uint32_t EndB = F->newBlock();

      switchTo(IsDo ? BodyB : CondB);
      if (!IsDo)
        CurBlock = CondB;

      // Condition block.
      {
        uint32_t Save = CurBlock;
        CurBlock = CondB;
        Terminated = false;
        uint32_t Cond = lowerValue(W->getCond());
        MirInst CB;
        CB.Op = MirOp::CondBr;
        CB.A = Cond;
        CB.BlockA = BodyB;
        CB.BlockB = EndB;
        terminate(std::move(CB));
        CurBlock = Save;
      }

      CurBlock = BodyB;
      Terminated = false;
      BreakTargets.push_back(EndB);
      ContinueTargets.push_back(CondB);
      lowerStmt(W->getBody());
      BreakTargets.pop_back();
      ContinueTargets.pop_back();
      switchTo(CondB); // loop back through the condition
      CurBlock = EndB;
      Terminated = false;
      return;
    }
    case StmtKind::For: {
      const auto *For = cast<ForStmt>(S);
      if (For->getInit())
        lowerStmt(For->getInit());
      uint32_t CondB = F->newBlock();
      uint32_t BodyB = F->newBlock();
      uint32_t IncB = F->newBlock();
      uint32_t EndB = F->newBlock();

      switchTo(CondB);
      if (For->getCond()) {
        uint32_t Cond = lowerValue(For->getCond());
        MirInst CB;
        CB.Op = MirOp::CondBr;
        CB.A = Cond;
        CB.BlockA = BodyB;
        CB.BlockB = EndB;
        terminate(std::move(CB));
      } else {
        switchTo(BodyB);
      }

      CurBlock = BodyB;
      Terminated = false;
      BreakTargets.push_back(EndB);
      ContinueTargets.push_back(IncB);
      lowerStmt(For->getBody());
      BreakTargets.pop_back();
      ContinueTargets.pop_back();
      switchTo(IncB);
      if (For->getInc())
        lowerValue(For->getInc());
      switchTo(CondB);
      CurBlock = EndB;
      Terminated = false;
      return;
    }
    case StmtKind::Return: {
      const auto *R = cast<ReturnStmt>(S);
      // Tail-call optimization: "return f(...);" where the value needs no
      // conversion becomes a tail call (x86-64 mode of Table 3).
      if (Opts.TailCalls && R->getValue()) {
        if (const auto *Call = dyn_cast<CallExpr>(R->getValue())) {
          bool Builtin = Call->isDirect() && Call->getDirectCallee()->isBuiltin();
          if (!Builtin) {
            lowerCall(Call, /*TailPosition=*/true);
            return;
          }
        }
      }
      MirInst I;
      I.Op = MirOp::Ret;
      if (R->getValue()) {
        I.A = lowerValue(R->getValue());
        I.HasValue = true;
      }
      terminate(std::move(I));
      return;
    }
    case StmtKind::Break: {
      if (BreakTargets.empty()) {
        error(S->getLoc(), "break outside of a loop or switch");
        return;
      }
      MirInst I;
      I.Op = MirOp::Br;
      I.BlockA = BreakTargets.back();
      terminate(std::move(I));
      return;
    }
    case StmtKind::Continue: {
      if (ContinueTargets.empty()) {
        error(S->getLoc(), "continue outside of a loop");
        return;
      }
      MirInst I;
      I.Op = MirOp::Br;
      I.BlockA = ContinueTargets.back();
      terminate(std::move(I));
      return;
    }
    case StmtKind::Switch:
      lowerSwitch(cast<SwitchStmt>(S));
      return;
    case StmtKind::Goto: {
      MirInst I;
      I.Op = MirOp::Br;
      I.BlockA = labelBlock(cast<GotoStmt>(S)->getLabel());
      terminate(std::move(I));
      return;
    }
    case StmtKind::Label:
      switchTo(labelBlock(cast<LabelStmt>(S)->getName()));
      return;
    case StmtKind::Asm: {
      MirInst I;
      I.Op = MirOp::AsmInline;
      I.Imm = 2; // placeholder no-ops standing in for the assembly body
      emit(std::move(I));
      return;
    }
    }
    mcfi_unreachable("covered switch");
  }

  void lowerSwitch(const SwitchStmt *Sw) {
    uint32_t Cond = lowerValue(Sw->getCond());

    const auto &Arms = Sw->getArms();
    uint32_t EndB = F->newBlock();
    std::vector<uint32_t> ArmBlocks;
    ArmBlocks.reserve(Arms.size());
    for (size_t I = 0; I != Arms.size(); ++I)
      ArmBlocks.push_back(F->newBlock());

    MirInst I;
    I.Op = MirOp::Switch;
    I.A = Cond;
    I.BlockB = EndB;
    for (size_t A = 0; A != Arms.size(); ++A) {
      if (Arms[A].Value)
        I.SwitchCases.emplace_back(*Arms[A].Value, ArmBlocks[A]);
      else
        I.BlockB = ArmBlocks[A];
    }
    terminate(std::move(I));

    BreakTargets.push_back(EndB);
    for (size_t A = 0; A != Arms.size(); ++A) {
      CurBlock = ArmBlocks[A];
      Terminated = false;
      for (const Stmt *Sub : Arms[A].Stmts)
        lowerStmt(Sub);
      // Fallthrough to the next arm, or exit.
      switchTo(A + 1 < Arms.size() ? ArmBlocks[A + 1] : EndB);
    }
    BreakTargets.pop_back();

    CurBlock = EndB;
    Terminated = false;
  }

  Program &Prog;
  TypeContext &Ctx;
  const LowerOptions &Opts;
  MirModule &Out;
  std::vector<std::string> &Errors;
  bool HadError = false;

  std::unordered_map<const VarDecl *, std::string> GlobalSyms;
  std::unordered_map<std::string, std::string> StringSyms;
};

} // namespace

bool mcfi::mir::lowerToMIR(Program &Prog, const std::string &ModuleName,
                           const LowerOptions &Opts, MirModule &Out,
                           std::vector<std::string> &Errors) {
  Out.Name = ModuleName;
  LoweringImpl L(Prog, Opts, Out, Errors);
  return L.run();
}
