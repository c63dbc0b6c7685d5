//===- module/Serialize.cpp - .mcfo binary serialization ------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Binary serialization of MCFIObject. The format is a straightforward
/// length-prefixed encoding with a magic header; the reader bounds-checks
/// everything so that a corrupted module file fails cleanly rather than
/// crashing the loader.
///
//===----------------------------------------------------------------------===//

#include "module/MCFIObject.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

using namespace mcfi;

namespace {

constexpr uint32_t Magic = 0x4f46434d; // "MCFO"
constexpr uint32_t Version = 5;

class Writer {
public:
  void u8(uint8_t V) { Out.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.insert(Out.end(), S.begin(), S.end());
  }
  void bytes(const std::vector<uint8_t> &B) {
    u64(B.size());
    Out.insert(Out.end(), B.begin(), B.end());
  }

  std::vector<uint8_t> Out;
};

class Reader {
public:
  Reader(const std::vector<uint8_t> &Blob) : Blob(Blob) {}

  bool u8(uint8_t &V) {
    if (Pos + 1 > Blob.size())
      return false;
    V = Blob[Pos++];
    return true;
  }
  bool u32(uint32_t &V) {
    if (Pos + 4 > Blob.size())
      return false;
    V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(Blob[Pos++]) << (8 * I);
    return true;
  }
  bool u64(uint64_t &V) {
    if (Pos + 8 > Blob.size())
      return false;
    V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Blob[Pos++]) << (8 * I);
    return true;
  }
  bool str(std::string &S) {
    uint32_t N;
    if (!u32(N) || N > Blob.size() - Pos)
      return false;
    S.assign(reinterpret_cast<const char *>(Blob.data()) + Pos, N);
    Pos += N;
    return true;
  }
  bool bytes(std::vector<uint8_t> &B) {
    uint64_t N;
    // Compared against what is left, so a length near 2^64 cannot wrap.
    if (!u64(N) || N > Blob.size() - Pos)
      return false;
    B.assign(Blob.begin() + static_cast<ptrdiff_t>(Pos),
             Blob.begin() + static_cast<ptrdiff_t>(Pos + N));
    Pos += N;
    return true;
  }
  bool done() const { return Pos == Blob.size(); }

private:
  const std::vector<uint8_t> &Blob;
  size_t Pos = 0;
};

} // namespace

uint64_t mcfi::relocWidth(visa::RelocKind K) {
  return K == visa::RelocKind::CallSym || K == visa::RelocKind::BaryIndex32
             ? 4
             : 8;
}

bool mcfi::relocationFits(const visa::RelocEntry &R, const MCFIObject &Obj) {
  using visa::RelocKind;
  // None patches nothing, but names a code byte.
  uint64_t Width = R.Kind == RelocKind::None ? 1 : relocWidth(R.Kind);
  uint64_t Limit = R.Kind == RelocKind::DataFuncAddr64 ||
                           R.Kind == RelocKind::DataGlobalAddr64
                       ? Obj.DataSize
                       : Obj.Code.size();
  return Width <= Limit && R.Offset <= Limit - Width;
}

bool mcfi::dataInitsFit(const MCFIObject &Obj) {
  return std::all_of(Obj.DataInit.begin(), Obj.DataInit.end(),
                     [&Obj](const auto &Init) {
                       uint64_t Size = Init.second.size();
                       return Size <= Obj.DataSize &&
                              Init.first <= Obj.DataSize - Size;
                     });
}

std::vector<uint8_t> mcfi::writeObject(const MCFIObject &Obj) {
  Writer W;
  W.u32(Magic);
  W.u32(Version);
  W.str(Obj.Name);
  W.bytes(Obj.Code);
  W.u64(Obj.DataSize);

  W.u32(static_cast<uint32_t>(Obj.DataInit.size()));
  for (const auto &[Off, Bytes] : Obj.DataInit) {
    W.u64(Off);
    W.bytes(Bytes);
  }

  W.u32(static_cast<uint32_t>(Obj.DataSymbols.size()));
  for (const auto &[Name, Off] : Obj.DataSymbols) {
    W.str(Name);
    W.u64(Off);
  }

  W.u32(static_cast<uint32_t>(Obj.Relocs.size()));
  for (const visa::RelocEntry &R : Obj.Relocs) {
    W.u8(static_cast<uint8_t>(R.Kind));
    W.u64(R.Offset);
    W.str(R.Symbol);
    W.u64(R.Addend);
    W.u32(R.SiteId);
  }

  W.u32(static_cast<uint32_t>(Obj.Aux.Functions.size()));
  for (const FunctionInfo &F : Obj.Aux.Functions) {
    W.str(F.Name);
    W.str(F.TypeSig);
    W.str(F.PrettyType);
    W.u64(F.CodeOffset);
    W.u8(F.AddressTaken);
    W.u8(F.Variadic);
  }

  W.u32(static_cast<uint32_t>(Obj.Aux.BranchSites.size()));
  for (const BranchSite &B : Obj.Aux.BranchSites) {
    W.u8(static_cast<uint8_t>(B.Kind));
    W.u64(B.SeqStart);
    W.u64(B.BranchOffset);
    W.str(B.Function);
    W.str(B.TypeSig);
    W.u8(B.VariadicPointer);
    W.str(B.PltSymbol);
  }

  W.u32(static_cast<uint32_t>(Obj.Aux.CallSites.size()));
  for (const CallSiteInfo &C : Obj.Aux.CallSites) {
    W.str(C.Caller);
    W.u64(C.RetSiteOffset);
    W.u8(C.Direct);
    W.str(C.Callee);
    W.str(C.TypeSig);
    W.u8(C.VariadicPointer);
    W.u8(C.IsSetjmp);
  }

  W.u32(static_cast<uint32_t>(Obj.Aux.TailCalls.size()));
  for (const TailCallInfo &T : Obj.Aux.TailCalls) {
    W.str(T.Caller);
    W.u8(T.Direct);
    W.str(T.Callee);
    W.str(T.TypeSig);
    W.u8(T.VariadicPointer);
  }

  W.u32(static_cast<uint32_t>(Obj.Aux.JumpTables.size()));
  for (const JumpTableInfo &J : Obj.Aux.JumpTables) {
    W.str(J.Function);
    W.u64(J.JmpOffset);
    W.u64(J.TableOffset);
    W.u32(static_cast<uint32_t>(J.Targets.size()));
    for (uint64_t T : J.Targets)
      W.u64(T);
  }

  W.u32(static_cast<uint32_t>(Obj.Imports.size()));
  for (const std::string &S : Obj.Imports)
    W.str(S);

  W.u32(static_cast<uint32_t>(Obj.Aux.AddressTakenImports.size()));
  for (const std::string &S : Obj.Aux.AddressTakenImports)
    W.str(S);

  W.str(Obj.EntryFunction);
  return std::move(W.Out);
}

bool mcfi::readObject(const std::vector<uint8_t> &Blob, MCFIObject &Out) {
  Reader R(Blob);
  uint32_t M, V;
  if (!R.u32(M) || M != Magic || !R.u32(V) || V != Version)
    return false;
  Out = MCFIObject();
  if (!R.str(Out.Name) || !R.bytes(Out.Code) || !R.u64(Out.DataSize))
    return false;

  uint32_t N;
  if (!R.u32(N))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    uint64_t Off;
    std::vector<uint8_t> Bytes;
    if (!R.u64(Off) || !R.bytes(Bytes))
      return false;
    Out.DataInit.emplace_back(Off, std::move(Bytes));
  }
  if (!dataInitsFit(Out))
    return false;

  if (!R.u32(N))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    std::string Name;
    uint64_t Off;
    if (!R.str(Name) || !R.u64(Off) || Off >= std::max<uint64_t>(Out.DataSize, 1))
      return false;
    Out.DataSymbols.emplace(std::move(Name), Off);
  }

  if (!R.u32(N))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    visa::RelocEntry E;
    uint8_t K;
    if (!R.u8(K) ||
        K > static_cast<uint8_t>(visa::RelocKind::CodeAddr64) ||
        !R.u64(E.Offset) || !R.str(E.Symbol) || !R.u64(E.Addend) ||
        !R.u32(E.SiteId))
      return false;
    E.Kind = static_cast<visa::RelocKind>(K);
    if (!relocationFits(E, Out))
      return false;
    Out.Relocs.push_back(std::move(E));
  }

  if (!R.u32(N))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    FunctionInfo F;
    uint8_t AT, Va;
    if (!R.str(F.Name) || !R.str(F.TypeSig) || !R.str(F.PrettyType) ||
        !R.u64(F.CodeOffset) || !R.u8(AT) || !R.u8(Va) ||
        F.CodeOffset >= Out.Code.size())
      return false;
    F.AddressTaken = AT;
    F.Variadic = Va;
    Out.Aux.Functions.push_back(std::move(F));
  }

  if (!R.u32(N))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    BranchSite B;
    uint8_t K, VP;
    if (!R.u8(K) || K > static_cast<uint8_t>(BranchKind::PltJump) ||
        !R.u64(B.SeqStart) || !R.u64(B.BranchOffset) || !R.str(B.Function) ||
        !R.str(B.TypeSig) || !R.u8(VP) || !R.str(B.PltSymbol) ||
        B.BranchOffset >= Out.Code.size())
      return false;
    B.Kind = static_cast<BranchKind>(K);
    B.VariadicPointer = VP;
    Out.Aux.BranchSites.push_back(std::move(B));
  }

  if (!R.u32(N))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    CallSiteInfo C;
    uint8_t D, VP, SJ;
    if (!R.str(C.Caller) || !R.u64(C.RetSiteOffset) || !R.u8(D) ||
        !R.str(C.Callee) || !R.str(C.TypeSig) || !R.u8(VP) || !R.u8(SJ) ||
        C.RetSiteOffset > Out.Code.size())
      return false;
    C.Direct = D;
    C.VariadicPointer = VP;
    C.IsSetjmp = SJ;
    Out.Aux.CallSites.push_back(std::move(C));
  }

  if (!R.u32(N))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    TailCallInfo T;
    uint8_t D, VP;
    if (!R.str(T.Caller) || !R.u8(D) || !R.str(T.Callee) || !R.str(T.TypeSig) ||
        !R.u8(VP))
      return false;
    T.Direct = D;
    T.VariadicPointer = VP;
    Out.Aux.TailCalls.push_back(std::move(T));
  }

  if (!R.u32(N))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    JumpTableInfo J;
    uint32_t NT;
    if (!R.str(J.Function) || !R.u64(J.JmpOffset) || !R.u64(J.TableOffset) ||
        !R.u32(NT) || J.JmpOffset >= Out.Code.size() ||
        J.TableOffset > Out.Code.size() ||
        NT > (Out.Code.size() - J.TableOffset) / 8)
      return false;
    for (uint32_t T = 0; T != NT; ++T) {
      uint64_t Target;
      if (!R.u64(Target) || Target >= Out.Code.size())
        return false;
      J.Targets.push_back(Target);
    }
    Out.Aux.JumpTables.push_back(std::move(J));
  }

  if (!R.u32(N))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    std::string S;
    if (!R.str(S))
      return false;
    Out.Imports.push_back(std::move(S));
  }

  if (!R.u32(N))
    return false;
  for (uint32_t I = 0; I != N; ++I) {
    std::string S;
    if (!R.str(S))
      return false;
    Out.Aux.AddressTakenImports.push_back(std::move(S));
  }

  if (!R.str(Out.EntryFunction))
    return false;
  if (!R.done())
    return false;
  // Derived field, not part of the wire format.
  computeIBTOffsets(Out.Aux);
  return true;
}
