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

/// A cache slot: the interned signatures of one module's aux-info
/// arrays, in declaration order. Produced by the cfg layer's
/// getModuleSigs (which knows the MCFIObject shape) and keyed here by a
/// hash of the module's aux type strings, so reloading the same module
/// — every dlopen re-merge, and separate Machines loading the same
/// library — reuses the interned views without re-interning.
using SigList = std::vector<const InternedSig *>;

/// Key-addressed persistent cache of interned signature lists.
/// Thread-safe. The cache is bounded: when it exceeds a fixed capacity
/// it is cleared wholesale (entries are cheap to rebuild; the interner
/// itself never forgets, so re-population is hash lookups only).
class SigSetCache {
public:
  static SigSetCache &global();

  /// Returns the cached value for \p Key, or null.
  std::shared_ptr<const void> lookup(uint64_t Key) const;

  /// Stores \p Value under \p Key and returns the cached copy
  /// (first writer wins on a race).
  std::shared_ptr<const void> store(uint64_t Key,
                                    std::shared_ptr<const void> Value);

  /// Drops the entry for \p Key (module unload: the merged CFG
  /// must hold no trace of the dead module, cached views included).
  /// Harmless if a module with the same key is still loaded — the next
  /// merge re-populates the entry from the interner with hash lookups
  /// only. Returns true if an entry was present.
  bool drop(uint64_t Key);

  size_t size() const;

private:
  static constexpr size_t MaxEntries = 4096;
  mutable std::mutex Lock;
  std::unordered_map<uint64_t, std::shared_ptr<const void>> Map;
};

} // namespace mcfi

#endif // MCFI_CTYPES_SIGINTERN_H
