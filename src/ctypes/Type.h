//===- ctypes/Type.h - C type system for MCFI type matching ----*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C type system used for MCFI's type-matching CFG generation (paper
/// Sec. 6). Types are interned in a TypeContext so that non-record types
/// have pointer identity. Records (structs/unions) are nominal objects
/// completed after creation (to allow recursion), and *structural
/// equivalence* — the relation the paper matches function pointers against
/// functions with, where "named types are replaced by their definitions" —
/// is computed via canonical type signatures with de Bruijn back-references
/// for recursive records.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_CTYPES_TYPE_H
#define MCFI_CTYPES_TYPE_H

#include "support/Casting.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace mcfi {

class TypeContext;

/// Discriminator for the Type hierarchy.
enum class TypeKind : uint8_t {
  Void,
  Int,      ///< All integral types, including char and enum-backed ints.
  Float,    ///< float / double.
  Pointer,  ///< T*.
  Array,    ///< T[N].
  Function, ///< Ret(Params...), possibly variadic.
  Record,   ///< struct or union; nominal, completed after creation.
};

/// Base class for all C types. Instances are owned by a TypeContext and
/// uniqued, so equality of non-record types is pointer equality; use
/// TypeContext::structurallyEquivalent for the paper's matching relation.
class Type {
public:
  virtual ~Type(); // out-of-line anchor; also lets TypeContext own types

  TypeKind getKind() const { return Kind; }

  bool isVoid() const { return Kind == TypeKind::Void; }
  bool isInt() const { return Kind == TypeKind::Int; }
  bool isFloat() const { return Kind == TypeKind::Float; }
  bool isPointer() const { return Kind == TypeKind::Pointer; }
  bool isArray() const { return Kind == TypeKind::Array; }
  bool isFunction() const { return Kind == TypeKind::Function; }
  bool isRecord() const { return Kind == TypeKind::Record; }

  /// Returns true if this is a pointer whose (possibly transitively
  /// array-wrapped) pointee is a function type, i.e. a function pointer.
  bool isFunctionPointer() const;

  /// Returns true if this type *contains* a function pointer anywhere in
  /// its fields/elements (used by the analyzer's MF and NF rules).
  bool containsFunctionPointer() const;

  /// Renders the type in a compact C-like syntax, e.g. "int(*)(int,...)".
  std::string print() const;

protected:
  Type(TypeKind Kind, TypeContext &Ctx) : Kind(Kind), Ctx(Ctx) {}

  TypeKind Kind;
  TypeContext &Ctx;

private:
  friend class TypeContext;
  Type(const Type &) = delete;
  Type &operator=(const Type &) = delete;
};

/// The void type.
class VoidType : public Type {
public:
  static bool classof(const Type *T) { return T->getKind() == TypeKind::Void; }

private:
  friend class TypeContext;
  explicit VoidType(TypeContext &Ctx) : Type(TypeKind::Void, Ctx) {}
};

/// Integral types. Enums are canonicalized to Int32 at creation, matching
/// C's enum/int compatibility and the paper's matching behaviour.
class IntType : public Type {
public:
  unsigned getBitWidth() const { return Bits; }
  bool isSigned() const { return Signed; }

  static bool classof(const Type *T) { return T->getKind() == TypeKind::Int; }

private:
  friend class TypeContext;
  IntType(TypeContext &Ctx, unsigned Bits, bool Signed)
      : Type(TypeKind::Int, Ctx), Bits(Bits), Signed(Signed) {}

  unsigned Bits;
  bool Signed;
};

/// Floating-point types (float=32, double=64).
class FloatType : public Type {
public:
  unsigned getBitWidth() const { return Bits; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Float;
  }

private:
  friend class TypeContext;
  FloatType(TypeContext &Ctx, unsigned Bits)
      : Type(TypeKind::Float, Ctx), Bits(Bits) {}

  unsigned Bits;
};

/// Pointer types.
class PointerType : public Type {
public:
  const Type *getPointee() const { return Pointee; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Pointer;
  }

private:
  friend class TypeContext;
  PointerType(TypeContext &Ctx, const Type *Pointee)
      : Type(TypeKind::Pointer, Ctx), Pointee(Pointee) {}

  const Type *Pointee;
};

/// Fixed-size array types.
class ArrayType : public Type {
public:
  const Type *getElement() const { return Element; }
  uint64_t getCount() const { return Count; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Array;
  }

private:
  friend class TypeContext;
  ArrayType(TypeContext &Ctx, const Type *Element, uint64_t Count)
      : Type(TypeKind::Array, Ctx), Element(Element), Count(Count) {}

  const Type *Element;
  uint64_t Count;
};

/// Function types: return type, parameter types, variadic flag.
class FunctionType : public Type {
public:
  const Type *getReturnType() const { return Ret; }
  const std::vector<const Type *> &getParams() const { return Params; }
  bool isVariadic() const { return Variadic; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Function;
  }

private:
  friend class TypeContext;
  FunctionType(TypeContext &Ctx, const Type *Ret,
               std::vector<const Type *> Params, bool Variadic)
      : Type(TypeKind::Function, Ctx), Ret(Ret), Params(std::move(Params)),
        Variadic(Variadic) {}

  const Type *Ret;
  std::vector<const Type *> Params;
  bool Variadic;
};

/// One named field of a record.
struct RecordField {
  std::string Name;
  const Type *FieldType;
};

/// Struct or union types. Nominal: created by tag name, completed later
/// with setFields (allowing self-referential definitions). Structural
/// equivalence unfolds the definition, so two records with different tags
/// but identical bodies are equivalent.
class RecordType : public Type {
public:
  const std::string &getTag() const { return Tag; }
  bool isUnion() const { return Union; }
  bool isComplete() const { return Complete; }

  const std::vector<RecordField> &getFields() const {
    assert(Complete && "querying fields of an incomplete record");
    return Fields;
  }

  /// Completes the record definition. May only be called once.
  void setFields(std::vector<RecordField> NewFields);

  /// Returns the field with name \p Name, or nullptr.
  const RecordField *findField(const std::string &Name) const;

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Record;
  }

private:
  friend class TypeContext;
  RecordType(TypeContext &Ctx, std::string Tag, bool Union)
      : Type(TypeKind::Record, Ctx), Tag(std::move(Tag)), Union(Union) {}

  std::string Tag;
  bool Union;
  bool Complete = false;
  std::vector<RecordField> Fields;
};

/// Owns and interns all types. Non-record types are uniqued structurally;
/// records are uniqued by tag name (per kind).
class TypeContext {
public:
  TypeContext();
  ~TypeContext();

  const VoidType *getVoid() const { return VoidTy; }
  const IntType *getInt(unsigned Bits, bool Signed = true);
  const IntType *getChar() { return getInt(8, true); }
  const IntType *getInt32() { return getInt(32, true); }
  const IntType *getInt64() { return getInt(64, true); }
  const FloatType *getFloat(unsigned Bits);
  const PointerType *getPointer(const Type *Pointee);
  const ArrayType *getArray(const Type *Element, uint64_t Count);
  const FunctionType *getFunction(const Type *Ret,
                                  std::vector<const Type *> Params,
                                  bool Variadic);

  /// Returns the record with tag \p Tag, creating it (incomplete) if
  /// needed. Tag uniquing is per struct/union kind.
  RecordType *getRecord(const std::string &Tag, bool Union = false);

  /// Looks up an existing record; returns nullptr if absent.
  RecordType *findRecord(const std::string &Tag, bool Union = false);

  /// The paper's structural equivalence: named types replaced by their
  /// definitions, recursion handled coinductively. Field names are
  /// ignored; struct vs. union and variadic-ness are significant.
  bool structurallyEquivalent(const Type *A, const Type *B);

  /// Canonical signature string, used as the hash key when bucketing
  /// functions by type during CFG generation and in module aux info.
  /// Equal signatures imply structural equivalence. The converse holds
  /// for everything except *differently-rolled* mutually recursive
  /// records (e.g. muX.{...X} vs. its one-step unrolling), which compare
  /// equal under structurallyEquivalent() but canonicalize differently;
  /// modules sharing headers spell such types identically, so the
  /// string-keyed cross-module matching is exact in practice.
  std::string canonicalSignature(const Type *T);

  /// Returns true if \p Sub is a *physical subtype* of \p Super: both are
  /// structs and Super's field types are a structurally-equal prefix of
  /// Sub's field types. This is the relation behind the analyzer's
  /// upcast (UC) false-positive rule.
  bool isPhysicalSubtype(const RecordType *Sub, const RecordType *Super);

  /// Returns true if a function of type \p Callee may be invoked through
  /// a pointer of (function) type \p PointerFn under the paper's rules:
  /// structural equality, or — when \p PointerFn is variadic — matching
  /// return type and fixed-parameter prefix (Sec. 6, variable-argument
  /// functions).
  bool calleeMatchesPointer(const FunctionType *PointerFn,
                            const FunctionType *Callee);

private:
  template <typename T, typename... Args> T *own(Args &&...As);
  void buildCanonical(const Type *T, std::vector<const RecordType *> &Stack,
                      std::string &Out);

  const VoidType *VoidTy = nullptr;
  std::vector<std::unique_ptr<Type>> OwnedTypes;
  /// The structural interners. Each is keyed by the type's own parts, so
  /// a lookup that hits builds and allocates nothing.
  std::vector<const IntType *> Ints;
  std::vector<const FloatType *> Floats;
  std::unordered_map<const Type *, const PointerType *> Pointers;
  std::unordered_multimap<const Type *, const ArrayType *> Arrays;
  std::unordered_multimap<size_t, const FunctionType *> Functions;
  std::unordered_map<std::string, RecordType *> Structs, Unions;
  std::unordered_map<const Type *, std::string> CanonicalCache;
};

} // namespace mcfi

#endif // MCFI_CTYPES_TYPE_H
