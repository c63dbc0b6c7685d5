//===- support/UnionFind.h - Disjoint-set forest ----------------*- C++ -*-===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A disjoint-set forest with union by size and rollback. The CFG
/// generator uses it to merge overlapping indirect-branch target sets into
/// equivalence classes (Sec. 2 of the paper: "If two indirect branches
/// target two sets of destinations and those two sets are not disjoint,
/// the two sets are merged into one equivalence class").
///
/// There is no path compression: find() only reads, so every join is one
/// parent link that rollback() can cut again, which lets the persistent
/// CFG merge forget the modules folded in after a point. Union by size
/// alone keeps every tree O(log n) deep.
///
//===----------------------------------------------------------------------===//

#ifndef MCFI_SUPPORT_UNIONFIND_H
#define MCFI_SUPPORT_UNIONFIND_H

#include <cassert>
#include <cstdint>
#include <numeric>
#include <utility>
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
  uint32_t find(uint32_t X) const {
    assert(X < Parent.size() && "index out of range");
    while (Parent[X] != X)
      X = Parent[X];
    return X;
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
    Joined.push_back(RB);
    return RA;
  }

  /// Returns true if \p A and \p B are in the same class.
  bool connected(uint32_t A, uint32_t B) const { return find(A) == find(B); }

  /// Number of elements.
  size_t size() const { return Parent.size(); }

  /// Number of merges that joined two classes so far: a mark for
  /// rollback().
  size_t joins() const { return Joined.size(); }

  /// Undoes every join after the first \p Joins, newest first, then
  /// drops the elements from \p Elements on. The forest is then exactly
  /// what it was when joins() and size() last read those values.
  void rollback(size_t Joins, size_t Elements) {
    assert(Joins <= Joined.size() && Elements <= Parent.size());
    while (Joined.size() > Joins) {
      uint32_t Child = Joined.back();
      Joined.pop_back();
      Size[Parent[Child]] -= Size[Child];
      Parent[Child] = Child;
    }
    Parent.resize(Elements);
    Size.resize(Elements);
  }

  /// Counts distinct classes (O(n)).
  size_t numClasses() const {
    size_t N = 0;
    for (uint32_t I = 0, E = Parent.size(); I != E; ++I)
      if (Parent[I] == I)
        ++N;
    return N;
  }

private:
  std::vector<uint32_t> Parent;
  std::vector<uint32_t> Size;
  /// The root each join hung below another, in join order.
  std::vector<uint32_t> Joined;
};

} // namespace mcfi

#endif // MCFI_SUPPORT_UNIONFIND_H
