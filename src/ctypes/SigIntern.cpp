//===- ctypes/SigIntern.cpp - Hash-consed canonical signatures ------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ctypes/SigIntern.h"

using namespace mcfi;

uint64_t mcfi::fnv1aHash(const void *Data, size_t Len, uint64_t Seed) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I != Len; ++I) {
    H ^= Bytes[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

namespace {

/// Splits a canonical function signature "(<p1>,...,[...])-><ret>" into
/// views over \p Sig. Mirrors cfg/SigMatch.cpp's splitFnSig; canonical
/// forms nest only via (), {}, [] and back-references carry no
/// separators, so depth-0/1 scanning suffices.
bool splitCanonicalFn(std::string_view Sig, bool &Variadic,
                      std::string_view &Ret,
                      std::vector<std::string_view> &Params) {
  Variadic = false;
  Params.clear();
  if (Sig.empty() || Sig.front() != '(')
    return false;
  size_t Depth = 0;
  size_t ParamStart = 1;
  size_t Close = std::string_view::npos;
  for (size_t I = 0; I != Sig.size(); ++I) {
    char C = Sig[I];
    if (C == '(' || C == '{' || C == '[') {
      ++Depth;
      continue;
    }
    if (C == ')' || C == '}' || C == ']') {
      if (Depth == 0)
        return false;
      --Depth;
      if (Depth == 0 && C == ')') {
        Close = I;
        break;
      }
      continue;
    }
    if (C == ',' && Depth == 1) {
      std::string_view Piece = Sig.substr(ParamStart, I - ParamStart);
      if (Piece == "...")
        Variadic = true;
      else if (!Piece.empty())
        Params.push_back(Piece);
      ParamStart = I + 1;
    }
  }
  if (Close == std::string_view::npos)
    return false;
  std::string_view Last = Sig.substr(ParamStart, Close - ParamStart);
  if (Last == "...")
    Variadic = true;
  else if (!Last.empty())
    Params.push_back(Last);
  if (Sig.substr(Close + 1, 2) != "->")
    return false;
  Ret = Sig.substr(Close + 3);
  return !Ret.empty();
}

} // namespace

SigInterner &SigInterner::global() {
  static SigInterner Interner;
  return Interner;
}

const InternedSig *SigInterner::intern(std::string_view Sig) {
  uint64_t Hash = fnv1aHash(Sig.data(), Sig.size());
  Shard &S = Shards[Hash % NumShards];
  {
    std::lock_guard<std::mutex> Guard(S.Lock);
    auto It = S.Map.find(Sig);
    if (It != S.Map.end())
      return It->second.get();
  }

  // Miss: parse outside the lock. Parameter and return signatures are
  // interned recursively *before* this signature's shard is re-locked
  // (they may hash into the same shard).
  auto Fresh = std::make_unique<InternedSig>();
  Fresh->Sig = std::string(Sig);
  Fresh->Hash = Hash;
  bool Variadic = false;
  std::string_view Ret;
  std::vector<std::string_view> Params;
  if (splitCanonicalFn(Sig, Variadic, Ret, Params)) {
    Fresh->IsFunction = true;
    Fresh->Variadic = Variadic;
    Fresh->Ret = intern(Ret);
    Fresh->Params.reserve(Params.size());
    for (std::string_view P : Params)
      Fresh->Params.push_back(intern(P));
  }

  std::lock_guard<std::mutex> Guard(S.Lock);
  // The map key views the owned string, which the unique_ptr keeps at a
  // stable address for the interner's lifetime.
  auto [It, New] = S.Map.try_emplace(std::string_view(Fresh->Sig), nullptr);
  if (New)
    It->second = std::move(Fresh);
  return It->second.get();
}

size_t SigInterner::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Guard(S.Lock);
    N += S.Map.size();
  }
  return N;
}

bool mcfi::internedCalleeMatches(const InternedSig *Pointer,
                                 bool PointerVariadic,
                                 const InternedSig *Callee) {
  if (Pointer == Callee)
    return true;
  if (!PointerVariadic || !Pointer || !Callee)
    return false;
  if (!Pointer->IsFunction || !Callee->IsFunction)
    return false;
  if (Pointer->Ret != Callee->Ret)
    return false;
  if (Callee->Params.size() < Pointer->Params.size())
    return false;
  for (size_t I = 0; I != Pointer->Params.size(); ++I)
    if (Pointer->Params[I] != Callee->Params[I])
      return false;
  return true;
}

SigSetCache &SigSetCache::global() {
  static SigSetCache Cache;
  return Cache;
}

std::shared_ptr<const void> SigSetCache::lookup(uint64_t Key) const {
  std::lock_guard<std::mutex> Guard(Lock);
  auto It = Map.find(Key);
  return It == Map.end() ? nullptr : It->second;
}

std::shared_ptr<const void>
SigSetCache::store(uint64_t Key, std::shared_ptr<const void> Value) {
  std::lock_guard<std::mutex> Guard(Lock);
  if (Map.size() >= MaxEntries)
    Map.clear();
  auto [It, New] = Map.try_emplace(Key, std::move(Value));
  return It->second;
}

size_t SigSetCache::size() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Map.size();
}
