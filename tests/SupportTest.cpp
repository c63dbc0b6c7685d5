//===- tests/SupportTest.cpp - Support utility tests -----------------------===//
//
// Part of the MCFI reproduction of "Modular Control-Flow Integrity"
// (Niu & Tan, PLDI 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/RNG.h"
#include "support/Region.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

using namespace mcfi;

namespace {

TEST(RNG, DeterministicAcrossInstances) {
  RNG A(123), B(123);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNG, DifferentSeedsDiverge) {
  RNG A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(RNG, BelowIsInRangeAndCoversValues) {
  RNG R(99);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 10000; ++I) {
    uint64_t V = R.below(7);
    ASSERT_LT(V, 7u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(RNG, RangeInclusive) {
  RNG R(5);
  for (int I = 0; I != 1000; ++I) {
    uint64_t V = R.range(10, 12);
    EXPECT_GE(V, 10u);
    EXPECT_LE(V, 12u);
  }
}

TEST(RegionTest, ReadsZeroAndMovesOwnership) {
  Region<uint32_t> A(1u << 20);
  EXPECT_EQ(A.size(), 1u << 20);
  EXPECT_EQ(A[0], 0u);
  EXPECT_EQ(A[A.size() - 1], 0u);
  A[7] = 42;
  // A move hands over the one mapping; the source no longer owns it.
  Region<uint32_t> B(std::move(A));
  EXPECT_EQ(A.data(), nullptr);
  EXPECT_EQ(A.size(), 0u);
  EXPECT_EQ(B[7], 42u);
  Region<uint32_t> C(1);
  C = std::move(B);
  EXPECT_EQ(B.data(), nullptr);
  EXPECT_EQ(C.size(), 1u << 20);
  EXPECT_EQ(C[7], 42u);
  // An empty region maps nothing.
  EXPECT_EQ(Region<uint64_t>(0).data(), nullptr);
}

TEST(UnionFindTest, BasicMergeAndFind) {
  UnionFind UF(10);
  EXPECT_EQ(UF.numClasses(), 10u);
  UF.merge(0, 1);
  UF.merge(1, 2);
  EXPECT_TRUE(UF.connected(0, 2));
  EXPECT_FALSE(UF.connected(0, 3));
  EXPECT_EQ(UF.numClasses(), 8u);
}

TEST(UnionFindTest, MergeIsIdempotentAndCommutative) {
  UnionFind A(6), B(6);
  A.merge(1, 4);
  A.merge(1, 4);
  B.merge(4, 1);
  EXPECT_EQ(A.numClasses(), B.numClasses());
  EXPECT_TRUE(A.connected(1, 4));
  EXPECT_TRUE(B.connected(1, 4));
}

TEST(UnionFindTest, TransitiveClosureProperty) {
  // Random merges: connected() must equal reachability in the merge
  // graph (checked via a brute-force set partition).
  RNG R(77);
  constexpr uint32_t N = 32;
  UnionFind UF(N);
  std::vector<uint32_t> Rep(N);
  for (uint32_t I = 0; I != N; ++I)
    Rep[I] = I;
  auto bruteFind = [&](uint32_t X) {
    while (Rep[X] != X)
      X = Rep[X];
    return X;
  };
  for (int Step = 0; Step != 100; ++Step) {
    uint32_t A = static_cast<uint32_t>(R.below(N));
    uint32_t B = static_cast<uint32_t>(R.below(N));
    UF.merge(A, B);
    Rep[bruteFind(A)] = bruteFind(B);
    for (uint32_t X = 0; X != N; ++X)
      for (uint32_t Y = 0; Y != N; ++Y)
        ASSERT_EQ(UF.connected(X, Y), bruteFind(X) == bruteFind(Y));
  }
}

TEST(UnionFindTest, RollbackRestoresEveryEarlierPartition) {
  // Random merges and appends, with a mark taken before each step;
  // rolling back to any mark must give back that step's partition and
  // element count exactly.
  RNG R(78);
  UnionFind UF(8);
  struct Snapshot {
    size_t Joins, Elements;
    std::vector<uint32_t> Roots;
  };
  auto roots = [&] {
    std::vector<uint32_t> Roots;
    for (uint32_t X = 0; X != UF.size(); ++X)
      Roots.push_back(UF.find(X));
    return Roots;
  };
  std::vector<Snapshot> Marks;
  for (int Step = 0; Step != 60; ++Step) {
    Marks.push_back({UF.joins(), UF.size(), roots()});
    if (R.chancePercent(25))
      UF.add();
    uint32_t A = static_cast<uint32_t>(R.below(UF.size()));
    uint32_t B = static_cast<uint32_t>(R.below(UF.size()));
    UF.merge(A, B);
  }
  while (!Marks.empty()) {
    size_t Pick = Marks.size() > 3 ? Marks.size() - 1 - R.below(3) : 0;
    UF.rollback(Marks[Pick].Joins, Marks[Pick].Elements);
    ASSERT_EQ(UF.size(), Marks[Pick].Elements);
    std::vector<uint32_t> Now = roots();
    for (uint32_t X = 0; X != UF.size(); ++X)
      for (uint32_t Y = 0; Y != UF.size(); ++Y)
        ASSERT_EQ(Now[X] == Now[Y],
                  Marks[Pick].Roots[X] == Marks[Pick].Roots[Y]);
    Marks.resize(Pick);
  }
  EXPECT_EQ(UF.numClasses(), 8u);
}

TEST(StringUtils, SplitJoinRoundTrip) {
  EXPECT_EQ(splitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(splitString("", ','), std::vector<std::string>{""});
  EXPECT_EQ(splitString(",x,", ','),
            (std::vector<std::string>{"", "x", ""}));
  EXPECT_EQ(joinStrings({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(joinStrings({}, "-"), "");
}

TEST(StringUtils, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatString("%s", std::string(500, 'a').c_str()),
            std::string(500, 'a'));
}

TEST(StringUtils, Padding) {
  EXPECT_EQ(padLeft("ab", 5), "   ab");
  EXPECT_EQ(padRight("ab", 5), "ab   ");
  EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(StringUtils, JsonEscape) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(jsonEscape(std::string_view("\x01\0", 2)), "\\u0001\\u0000");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T;
  T.addRow({"name", "value"});
  T.addRow({"x", "10000"});
  T.addRow({"longname", "3"});
  std::string Out = T.render();
  // Header, separator, two rows.
  EXPECT_EQ(splitString(Out, '\n').size(), 5u); // incl. trailing empty
  EXPECT_NE(Out.find("longname"), std::string::npos);
  EXPECT_NE(Out.find("10000"), std::string::npos);
}

} // namespace
