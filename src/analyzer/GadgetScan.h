//===- analyzer/GadgetScan.h - Shared ROP-gadget mining ---------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one gadget scanner. A gadget is a decodable VISA instruction
/// sequence of bounded length ending in an indirect branch, reachable
/// from *any* byte offset (variable-length decoding makes instruction
/// middles decodable). The miner enumerates every candidate once per
/// distinct code blob and caches the result keyed by the blob's bytes, so
/// the gadget-elimination bench and the attack-synthesis harness share
/// one implementation and repeated scans of the same bytes — the
/// bootstrap/rt modules across bench profiles, the same victim across the
/// three execution tiers — cost one lookup instead of a full re-decode.
///
/// Consumers:
///  - metrics/Metrics.cpp::countGadgets (the Sec. 8.3 bench numbers)
///    filters the mined candidates by an is-this-offset-reachable
///    predicate and deduplicates by byte content (rp++'s notion);
///  - src/attack/ mines hijack *targets* from the candidates: gadget
///    starts that carry no Tary ID are exactly the unaligned/
///    mid-instruction entry points a ROP chain needs.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_ANALYZER_GADGETSCAN_H
#define MCFI_ANALYZER_GADGETSCAN_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace mcfi {

/// One gadget candidate: \p Start is the byte offset of its first
/// instruction (relative to the scanned blob), \p Length the byte extent
/// up to and including the terminating indirect branch.
struct MinedGadget {
  uint64_t Start = 0;
  uint32_t Length = 0;
};

/// The policy-independent mine of one code blob: a candidate for every
/// byte offset where a bounded sequence ending in an indirect branch
/// decodes, sorted by Start (at most one per start offset).
struct GadgetScanResult {
  uint64_t CodeSize = 0;
  std::vector<MinedGadget> Gadgets;
};

/// Gadget length bound, in decoded instructions (rp++-style).
constexpr unsigned GadgetMaxInstrs = 24;

/// Mines \p Code, returning the cached result when a blob with the same
/// bytes was mined before. Thread-safe; never null.
std::shared_ptr<const GadgetScanResult> mineGadgets(const uint8_t *Code,
                                                    size_t Size);

/// Counts the gadgets of \p Scan whose start offset passes \p IsStart,
/// deduplicated by byte content. \p Code must be the blob \p Scan was
/// mined from (the bytes are what uniqueness is defined over).
uint64_t
countUniqueGadgets(const uint8_t *Code, size_t Size,
                   const GadgetScanResult &Scan,
                   const std::function<bool(uint64_t)> &IsStart);

/// Process-wide cache counters (tests pin the no-rescan property).
struct GadgetCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};
GadgetCacheStats gadgetCacheStats();

} // namespace mcfi

#endif // MCFI_ANALYZER_GADGETSCAN_H
