//===- analyzer/GadgetScan.cpp - Shared ROP-gadget mining -----------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analyzer/GadgetScan.h"

#include "visa/ISA.h"

#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

using namespace mcfi;

namespace {

struct GadgetCache {
  std::mutex Lock;
  /// Keyed by the code bytes themselves: two blobs share a scan only if
  /// every byte matches.
  std::unordered_map<std::string, std::shared_ptr<const GadgetScanResult>>
      Map;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// Bounded, and cleared wholesale when full: mined blobs are a few
  /// hundred KB of candidates each, and a long-lived bench process cycles
  /// through many distinct programs.
  static constexpr size_t MaxEntries = 256;

  static GadgetCache &global() {
    static GadgetCache C;
    return C;
  }
};

} // namespace

std::shared_ptr<const GadgetScanResult> mcfi::mineGadgets(const uint8_t *Code,
                                                          size_t Size) {
  std::string Key(reinterpret_cast<const char *>(Code), Size);
  GadgetCache &C = GadgetCache::global();
  {
    std::lock_guard<std::mutex> Guard(C.Lock);
    auto It = C.Map.find(Key);
    if (It != C.Map.end()) {
      ++C.Hits;
      return It->second;
    }
  }

  auto Scan = std::make_shared<GadgetScanResult>();
  Scan->CodeSize = Size;
  for (size_t Start = 0; Start != Size; ++Start) {
    size_t Off = Start;
    for (unsigned N = 0; N != GadgetMaxInstrs && Off < Size; ++N) {
      visa::Instr I;
      if (!visa::decode(Code, Size, Off, I))
        break;
      Off += I.Length;
      if (visa::isIndirectBranch(I.Op)) {
        Scan->Gadgets.push_back(
            {Start, static_cast<uint32_t>(Off - Start)});
        break;
      }
    }
  }

  std::lock_guard<std::mutex> Guard(C.Lock);
  auto It = C.Map.find(Key);
  if (It != C.Map.end()) {
    ++C.Hits;
    return It->second; // racing miner won; keep one canonical result
  }
  ++C.Misses;
  if (C.Map.size() >= GadgetCache::MaxEntries)
    C.Map.clear();
  C.Map.emplace(std::move(Key), Scan);
  return Scan;
}

uint64_t mcfi::countUniqueGadgets(
    const uint8_t *Code, size_t Size, const GadgetScanResult &Scan,
    const std::function<bool(uint64_t)> &IsStart) {
  std::unordered_set<std::string> Unique;
  for (const MinedGadget &G : Scan.Gadgets) {
    if (G.Start + G.Length > Size)
      break; // scan from a different blob; fail closed
    if (!IsStart(G.Start))
      continue;
    Unique.emplace(reinterpret_cast<const char *>(Code) + G.Start, G.Length);
  }
  return Unique.size();
}

GadgetCacheStats mcfi::gadgetCacheStats() {
  GadgetCache &C = GadgetCache::global();
  std::lock_guard<std::mutex> Guard(C.Lock);
  return {C.Hits, C.Misses};
}
