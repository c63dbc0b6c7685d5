//===- ctypes/SigIntern.h - Hash-consed canonical signatures ----*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consing for canonical type signatures. Auxiliary module info
/// carries signatures as strings (TypeContext::canonicalSignature) so
/// modules compiled against different TypeContexts can be linked; every
/// CFG merge therefore used to re-hash and re-split those strings. The
/// SigInterner maps each canonical string to one process-wide
/// InternedSig object, so
///
///  - structural-equivalence checks between interned signatures are
///    pointer compares (equal strings <=> equal pointers);
///  - function signatures are split once at intern time, with parameter
///    and return signatures interned recursively, so the variadic
///    fixed-prefix rule (paper Sec. 6) also reduces to pointer compares
///    over the parsed parts;
///  - repeated merges over the same module set (every dlopen regenerates
///    the combined CFG) pay the string hashing exactly once per distinct
///    signature for the lifetime of the process.
///
/// The interner is thread-safe (sharded by hash): linkers on different
/// threads, and tools, intern concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_CTYPES_SIGINTERN_H
#define MCFI_CTYPES_SIGINTERN_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mcfi {

/// One hash-consed canonical signature. Instances are owned by the
/// SigInterner and unique per signature text, so pointer equality is
/// signature equality.
struct InternedSig {
  std::string Sig;   ///< canonical signature text
  uint64_t Hash = 0; ///< FNV-1a of Sig (stable across runs)

  /// Parsed function shape; meaningful only when IsFunction. Params and
  /// Ret are themselves interned, so prefix matching over Params is a
  /// pointer-compare loop.
  bool IsFunction = false;
  bool Variadic = false;
  const InternedSig *Ret = nullptr;
  std::vector<const InternedSig *> Params;
};

/// FNV-1a over a byte range; the hash used for interning.
uint64_t fnv1aHash(const void *Data, size_t Len,
                   uint64_t Seed = 0xcbf29ce484222325ull);

/// The process-wide intern table. Thread-safe; interning an
/// already-present signature takes one shard lock and one hash lookup.
class SigInterner {
public:
  /// The global interner the CFG pipeline uses.
  static SigInterner &global();

  /// Interns \p Sig, parsing its function shape on first sight.
  /// Never returns null; interning "" yields a (non-function) entry.
  const InternedSig *intern(std::string_view Sig);

  /// Distinct signatures interned so far (telemetry / tests).
  size_t size() const;

private:
  static constexpr size_t NumShards = 16;
  struct Shard {
    mutable std::mutex Lock;
    std::unordered_map<std::string_view, std::unique_ptr<InternedSig>> Map;
  };
  Shard Shards[NumShards];
};

/// The paper's matching rule over interned signatures: a function with
/// signature \p Callee may be invoked through a pointer with signature
/// \p Pointer that is (\p PointerVariadic ? variadic : exact). Exact
/// matching is one pointer compare; the variadic rule compares the
/// interned return signature and the fixed-parameter prefix by pointer.
bool internedCalleeMatches(const InternedSig *Pointer, bool PointerVariadic,
                           const InternedSig *Callee);

/// The interned signatures of one aux-info array, in declaration order
/// (the cfg layer's ModuleSigs holds one per array).
using SigList = std::vector<const InternedSig *>;

} // namespace mcfi

#endif // MCFI_CTYPES_SIGINTERN_H
