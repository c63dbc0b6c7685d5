//===- support/UnionFind.h - Disjoint-set forest ----------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A disjoint-set forest with path compression and union by size. The CFG
/// generator uses it to merge overlapping indirect-branch target sets into
/// equivalence classes (Sec. 2 of the paper: "If two indirect branches
/// target two sets of destinations and those two sets are not disjoint,
/// the two sets are merged into one equivalence class").
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_SUPPORT_UNIONFIND_H
#define MCFI_SUPPORT_UNIONFIND_H

#include <cassert>
#include <cstdint>
#include <numeric>
#include <vector>

namespace mcfi {

/// Disjoint-set forest over dense indices [0, size).
class UnionFind {
public:
  explicit UnionFind(size_t N) : Parent(N), Size(N, 1) {
    std::iota(Parent.begin(), Parent.end(), 0);
  }

  /// Appends a singleton class; returns its index.
  uint32_t add() {
    Parent.push_back(static_cast<uint32_t>(Parent.size()));
    Size.push_back(1);
    return Parent.back();
  }

  /// Returns the canonical representative of \p X's class.
  uint32_t find(uint32_t X) {
    assert(X < Parent.size() && "index out of range");
    uint32_t Root = X;
    while (Parent[Root] != Root)
      Root = Parent[Root];
    // Path compression.
    while (Parent[X] != Root) {
      uint32_t Next = Parent[X];
      Parent[X] = Root;
      X = Next;
    }
    return Root;
  }

  /// Merges the classes of \p A and \p B; returns the new representative.
  uint32_t merge(uint32_t A, uint32_t B) {
    uint32_t RA = find(A), RB = find(B);
    if (RA == RB)
      return RA;
    if (Size[RA] < Size[RB])
      std::swap(RA, RB);
    Parent[RB] = RA;
    Size[RA] += Size[RB];
    return RA;
  }

  /// Returns true if \p A and \p B are in the same class.
  bool connected(uint32_t A, uint32_t B) { return find(A) == find(B); }

  /// Number of elements.
  size_t size() const { return Parent.size(); }

  /// Counts distinct classes (O(n)).
  size_t numClasses() {
    size_t N = 0;
    for (uint32_t I = 0, E = Parent.size(); I != E; ++I)
      if (find(I) == I)
        ++N;
    return N;
  }

private:
  std::vector<uint32_t> Parent;
  std::vector<uint32_t> Size;
};

} // namespace mcfi

#endif // MCFI_SUPPORT_UNIONFIND_H
