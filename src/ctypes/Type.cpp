//===- ctypes/Type.cpp - C type system implementation ---------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ctypes/Type.h"

#include "support/Assert.h"

#include <unordered_set>

using namespace mcfi;

//===----------------------------------------------------------------------===//
// Type predicates and printing
//===----------------------------------------------------------------------===//

Type::~Type() = default;

bool Type::isFunctionPointer() const {
  const auto *PT = dyn_cast<PointerType>(this);
  return PT && PT->getPointee()->isFunction();
}

namespace {

bool containsFnPtrImpl(const Type *T,
                       std::unordered_set<const Type *> &Visited) {
  if (!Visited.insert(T).second)
    return false;
  switch (T->getKind()) {
  case TypeKind::Void:
  case TypeKind::Int:
  case TypeKind::Float:
  case TypeKind::Function:
    return false;
  case TypeKind::Pointer:
    return cast<PointerType>(T)->getPointee()->isFunction();
  case TypeKind::Array:
    return containsFnPtrImpl(cast<ArrayType>(T)->getElement(), Visited);
  case TypeKind::Record: {
    const auto *RT = cast<RecordType>(T);
    if (!RT->isComplete())
      return false;
    for (const RecordField &F : RT->getFields())
      if (containsFnPtrImpl(F.FieldType, Visited))
        return true;
    return false;
  }
  }
  mcfi_unreachable("covered switch");
}

void printImpl(const Type *T, std::string &Out) {
  switch (T->getKind()) {
  case TypeKind::Void:
    Out += "void";
    return;
  case TypeKind::Int: {
    const auto *IT = cast<IntType>(T);
    if (!IT->isSigned())
      Out += "unsigned ";
    switch (IT->getBitWidth()) {
    case 8:
      Out += "char";
      return;
    case 16:
      Out += "short";
      return;
    case 32:
      Out += "int";
      return;
    case 64:
      Out += "long";
      return;
    default:
      Out += "int" + std::to_string(IT->getBitWidth());
      return;
    }
  }
  case TypeKind::Float:
    Out += cast<FloatType>(T)->getBitWidth() == 32 ? "float" : "double";
    return;
  case TypeKind::Pointer: {
    const Type *Pointee = cast<PointerType>(T)->getPointee();
    if (const auto *FT = dyn_cast<FunctionType>(Pointee)) {
      // Function pointers render as C-style "ret(*)(params)".
      printImpl(FT->getReturnType(), Out);
      Out += "(*)(";
      const auto &Params = FT->getParams();
      for (size_t I = 0; I != Params.size(); ++I) {
        if (I != 0)
          Out += ",";
        printImpl(Params[I], Out);
      }
      if (FT->isVariadic())
        Out += Params.empty() ? "..." : ",...";
      Out += ")";
      return;
    }
    printImpl(Pointee, Out);
    Out += "*";
    return;
  }
  case TypeKind::Array: {
    const auto *AT = cast<ArrayType>(T);
    printImpl(AT->getElement(), Out);
    Out += "[" + std::to_string(AT->getCount()) + "]";
    return;
  }
  case TypeKind::Function: {
    const auto *FT = cast<FunctionType>(T);
    printImpl(FT->getReturnType(), Out);
    Out += "(";
    const auto &Params = FT->getParams();
    for (size_t I = 0; I != Params.size(); ++I) {
      if (I != 0)
        Out += ",";
      printImpl(Params[I], Out);
    }
    if (FT->isVariadic())
      Out += Params.empty() ? "..." : ",...";
    Out += ")";
    return;
  }
  case TypeKind::Record: {
    const auto *RT = cast<RecordType>(T);
    Out += RT->isUnion() ? "union " : "struct ";
    Out += RT->getTag();
    return;
  }
  }
  mcfi_unreachable("covered switch");
}

} // namespace

bool Type::containsFunctionPointer() const {
  std::unordered_set<const Type *> Visited;
  return containsFnPtrImpl(this, Visited);
}

std::string Type::print() const {
  std::string Out;
  printImpl(this, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// RecordType
//===----------------------------------------------------------------------===//

void RecordType::setFields(std::vector<RecordField> NewFields) {
  assert(!Complete && "record completed twice");
  Fields = std::move(NewFields);
  Complete = true;
}

const RecordField *RecordType::findField(const std::string &Name) const {
  for (const RecordField &F : Fields)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// TypeContext
//===----------------------------------------------------------------------===//

TypeContext::TypeContext() { VoidTy = own<VoidType>(*this); }

TypeContext::~TypeContext() = default;

template <typename T, typename... Args> T *TypeContext::own(Args &&...As) {
  auto Owned = std::unique_ptr<T>(new T(std::forward<Args>(As)...));
  T *Raw = Owned.get();
  OwnedTypes.push_back(std::move(Owned));
  return Raw;
}

const IntType *TypeContext::getInt(unsigned Bits, bool Signed) {
  for (const IntType *T : Ints)
    if (T->getBitWidth() == Bits && T->isSigned() == Signed)
      return T;
  return Ints.emplace_back(own<IntType>(*this, Bits, Signed));
}

const FloatType *TypeContext::getFloat(unsigned Bits) {
  for (const FloatType *T : Floats)
    if (T->getBitWidth() == Bits)
      return T;
  return Floats.emplace_back(own<FloatType>(*this, Bits));
}

const PointerType *TypeContext::getPointer(const Type *Pointee) {
  auto [It, New] = Pointers.try_emplace(Pointee, nullptr);
  if (New)
    It->second = own<PointerType>(*this, Pointee);
  return It->second;
}

const ArrayType *TypeContext::getArray(const Type *Element, uint64_t Count) {
  auto [B, E] = Arrays.equal_range(Element);
  for (auto It = B; It != E; ++It)
    if (It->second->getCount() == Count)
      return It->second;
  const ArrayType *T = own<ArrayType>(*this, Element, Count);
  Arrays.emplace(Element, T);
  return T;
}

const FunctionType *
TypeContext::getFunction(const Type *Ret, std::vector<const Type *> Params,
                         bool Variadic) {
  std::hash<const Type *> H;
  size_t Key = H(Ret) ^ Variadic;
  for (const Type *P : Params)
    Key = Key * 31 + H(P);
  auto [B, E] = Functions.equal_range(Key);
  for (auto It = B; It != E; ++It) {
    const FunctionType *F = It->second;
    if (F->getReturnType() == Ret && F->isVariadic() == Variadic &&
        F->getParams() == Params)
      return F;
  }
  const FunctionType *T =
      own<FunctionType>(*this, Ret, std::move(Params), Variadic);
  Functions.emplace(Key, T);
  return T;
}

RecordType *TypeContext::getRecord(const std::string &Tag, bool Union) {
  // A new record invalidates nothing yet (it is incomplete), but its later
  // completion can change canonical forms; see canonicalSignature().
  auto [It, New] = (Union ? Unions : Structs).try_emplace(Tag, nullptr);
  if (New)
    It->second = own<RecordType>(*this, Tag, Union);
  return It->second;
}

RecordType *TypeContext::findRecord(const std::string &Tag, bool Union) {
  const auto &Records = Union ? Unions : Structs;
  auto It = Records.find(Tag);
  return It == Records.end() ? nullptr : It->second;
}

//===----------------------------------------------------------------------===//
// Canonical signatures and structural equivalence
//===----------------------------------------------------------------------===//

void TypeContext::buildCanonical(const Type *T,
                                 std::vector<const RecordType *> &Stack,
                                 std::string &Out) {
  switch (T->getKind()) {
  case TypeKind::Void:
    Out += "v";
    return;
  case TypeKind::Int: {
    const auto *IT = cast<IntType>(T);
    Out += (IT->isSigned() ? "i" : "u") + std::to_string(IT->getBitWidth());
    return;
  }
  case TypeKind::Float:
    Out += "f" + std::to_string(cast<FloatType>(T)->getBitWidth());
    return;
  case TypeKind::Pointer:
    Out += "*";
    buildCanonical(cast<PointerType>(T)->getPointee(), Stack, Out);
    return;
  case TypeKind::Array: {
    const auto *AT = cast<ArrayType>(T);
    Out += "[" + std::to_string(AT->getCount()) + "]";
    buildCanonical(AT->getElement(), Stack, Out);
    return;
  }
  case TypeKind::Function: {
    const auto *FT = cast<FunctionType>(T);
    Out += "(";
    for (const Type *P : FT->getParams()) {
      buildCanonical(P, Stack, Out);
      Out += ",";
    }
    if (FT->isVariadic())
      Out += "...";
    Out += ")->";
    buildCanonical(FT->getReturnType(), Stack, Out);
    return;
  }
  case TypeKind::Record: {
    const auto *RT = cast<RecordType>(T);
    // Recursive occurrence: emit a de Bruijn back-reference to the
    // enclosing record under expansion. This makes canonical forms of
    // isomorphic recursive types identical.
    for (size_t I = Stack.size(); I-- > 0;) {
      if (Stack[I] == RT) {
        Out += "\\" + std::to_string(Stack.size() - 1 - I);
        return;
      }
    }
    if (!RT->isComplete()) {
      // Incomplete records are only meaningful behind pointers; they are
      // equivalent only to themselves, so key on the tag.
      Out += (RT->isUnion() ? "U?" : "S?") + RT->getTag();
      return;
    }
    Stack.push_back(RT);
    Out += RT->isUnion() ? "U{" : "S{";
    for (const RecordField &F : RT->getFields()) {
      buildCanonical(F.FieldType, Stack, Out);
      Out += ";";
    }
    Out += "}";
    Stack.pop_back();
    return;
  }
  }
  mcfi_unreachable("covered switch");
}

std::string TypeContext::canonicalSignature(const Type *T) {
  auto It = CanonicalCache.find(T);
  if (It != CanonicalCache.end())
    return It->second;
  std::vector<const RecordType *> Stack;
  std::string Out;
  buildCanonical(T, Stack, Out);
  // Only cache canonical forms of types whose records are all complete;
  // conservatively, cache everything except when the form mentions an
  // incomplete record (marker "?").
  if (Out.find('?') == std::string::npos)
    CanonicalCache.emplace(T, Out);
  return Out;
}

namespace {

using RecordPair = std::pair<const RecordType *, const RecordType *>;

struct RecordPairHash {
  size_t operator()(const RecordPair &P) const {
    return std::hash<const void *>()(P.first) * 31 ^
           std::hash<const void *>()(P.second);
  }
};

/// Coinductive structural equivalence: the assumption set carries record
/// pairs currently under comparison, so recursive (including mutually
/// recursive) definitions compare by bisimulation rather than by
/// syntactic unrolling.
bool structEqImpl(const Type *A, const Type *B,
                  std::unordered_set<RecordPair, RecordPairHash> &Assumed) {
  if (A == B)
    return true;
  if (A->getKind() != B->getKind())
    return false;
  switch (A->getKind()) {
  case TypeKind::Void:
    return true;
  case TypeKind::Int: {
    const auto *IA = cast<IntType>(A), *IB = cast<IntType>(B);
    return IA->getBitWidth() == IB->getBitWidth() &&
           IA->isSigned() == IB->isSigned();
  }
  case TypeKind::Float:
    return cast<FloatType>(A)->getBitWidth() ==
           cast<FloatType>(B)->getBitWidth();
  case TypeKind::Pointer:
    return structEqImpl(cast<PointerType>(A)->getPointee(),
                        cast<PointerType>(B)->getPointee(), Assumed);
  case TypeKind::Array: {
    const auto *AA = cast<ArrayType>(A), *AB = cast<ArrayType>(B);
    return AA->getCount() == AB->getCount() &&
           structEqImpl(AA->getElement(), AB->getElement(), Assumed);
  }
  case TypeKind::Function: {
    const auto *FA = cast<FunctionType>(A), *FB = cast<FunctionType>(B);
    if (FA->isVariadic() != FB->isVariadic() ||
        FA->getParams().size() != FB->getParams().size())
      return false;
    if (!structEqImpl(FA->getReturnType(), FB->getReturnType(), Assumed))
      return false;
    for (size_t I = 0; I != FA->getParams().size(); ++I)
      if (!structEqImpl(FA->getParams()[I], FB->getParams()[I], Assumed))
        return false;
    return true;
  }
  case TypeKind::Record: {
    const auto *RA = cast<RecordType>(A), *RB = cast<RecordType>(B);
    if (RA->isUnion() != RB->isUnion())
      return false;
    if (!RA->isComplete() || !RB->isComplete())
      return false; // incomplete records are equivalent only to themselves
    if (!Assumed.insert({RA, RB}).second)
      return true; // already comparing this pair: assume equal
    if (RA->getFields().size() != RB->getFields().size())
      return false;
    for (size_t I = 0; I != RA->getFields().size(); ++I)
      if (!structEqImpl(RA->getFields()[I].FieldType,
                        RB->getFields()[I].FieldType, Assumed))
        return false;
    return true;
  }
  }
  mcfi_unreachable("covered switch");
}

} // namespace

bool TypeContext::structurallyEquivalent(const Type *A, const Type *B) {
  std::unordered_set<RecordPair, RecordPairHash> Assumed;
  return structEqImpl(A, B, Assumed);
}

bool TypeContext::isPhysicalSubtype(const RecordType *Sub,
                                    const RecordType *Super) {
  if (Sub->isUnion() || Super->isUnion())
    return false;
  if (!Sub->isComplete() || !Super->isComplete())
    return false;
  const auto &SubF = Sub->getFields();
  const auto &SuperF = Super->getFields();
  if (SuperF.size() > SubF.size())
    return false;
  for (size_t I = 0; I != SuperF.size(); ++I)
    if (!structurallyEquivalent(SubF[I].FieldType, SuperF[I].FieldType))
      return false;
  return true;
}

bool TypeContext::calleeMatchesPointer(const FunctionType *PointerFn,
                                       const FunctionType *Callee) {
  if (structurallyEquivalent(PointerFn, Callee))
    return true;
  // Sec. 6 varargs rule: a variadic function-pointer type may invoke any
  // function whose return type matches and whose parameter types match the
  // fixed parameter types of the pointer.
  if (!PointerFn->isVariadic())
    return false;
  if (!structurallyEquivalent(PointerFn->getReturnType(),
                              Callee->getReturnType()))
    return false;
  const auto &Fixed = PointerFn->getParams();
  const auto &CalleeParams = Callee->getParams();
  if (CalleeParams.size() < Fixed.size())
    return false;
  for (size_t I = 0; I != Fixed.size(); ++I)
    if (!structurallyEquivalent(Fixed[I], CalleeParams[I]))
      return false;
  return true;
}
