//===- tests/test_suffixtree.cpp - Suffix array property tests ------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "suffixtree/SuffixArray.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

using namespace calibro;
using namespace calibro::st;

namespace {

/// Ascending start positions of the repeat named by \p Node.
std::vector<uint32_t> positionsOf(const SuffixArray &A, int32_t Node) {
  std::vector<uint32_t> Pos;
  A.positionsOf(Node, Pos);
  return Pos;
}

std::vector<Symbol> fromString(const char *S) {
  std::vector<Symbol> V;
  for (const char *P = S; *P; ++P)
    V.push_back(static_cast<Symbol>(*P));
  return V;
}

/// Naive O(n^3) reference: all repeated substrings of length >= MinLen with
/// their occurrence positions.
std::map<std::vector<Symbol>, std::vector<uint32_t>>
naiveRepeats(const std::vector<Symbol> &T, uint32_t MinLen, uint32_t MaxLen) {
  std::map<std::vector<Symbol>, std::vector<uint32_t>> Out;
  for (std::size_t Len = MinLen; Len <= MaxLen && Len <= T.size(); ++Len) {
    std::map<std::vector<Symbol>, std::vector<uint32_t>> ByKey;
    for (std::size_t P = 0; P + Len <= T.size(); ++P) {
      std::vector<Symbol> Key(T.begin() + P, T.begin() + P + Len);
      ByKey[Key].push_back(static_cast<uint32_t>(P));
    }
    for (auto &[Key, Positions] : ByKey)
      if (Positions.size() >= 2)
        Out.emplace(Key, Positions);
  }
  return Out;
}

TEST(SuffixArray, NoRepeatsInUniqueText) {
  std::vector<Symbol> T;
  for (uint32_t I = 0; I < 100; ++I)
    T.push_back(SeparatorBase + I);
  SuffixArray A(std::move(T));
  std::size_t Count = 0;
  A.forEachRepeat(1, 100, 2, [&](const RepeatInfo &) { ++Count; });
  EXPECT_EQ(Count, 0u);
}

TEST(SuffixArray, SeparatorsConfineRepeats) {
  // "abc | abc" with a unique separator: "abc" repeats, nothing longer.
  std::vector<Symbol> T = {'a', 'b', 'c', SeparatorBase, 'a', 'b', 'c'};
  SuffixArray A(std::move(T));
  uint32_t MaxLen = 0;
  A.forEachRepeat(1, 100, 2, [&](const RepeatInfo &R) {
    MaxLen = std::max(MaxLen, R.Length);
  });
  EXPECT_EQ(MaxLen, 3u);
}

class SuffixArrayRandom : public ::testing::TestWithParam<uint64_t> {};

/// Property: every LCP interval the array reports is a genuine repeat with
/// exactly the naive finder's positions; and every naive repeat is covered
/// by some reported interval (at node granularity: for each repeated
/// substring S, there is an interval whose string has S as a prefix and
/// whose positions equal S's). LCP intervals are a suffix tree's internal
/// nodes, so this is the paper's repeat set.
TEST_P(SuffixArrayRandom, MatchesNaiveFinder) {
  Rng R(GetParam());
  for (int Round = 0; Round < 20; ++Round) {
    std::size_t N = 30 + R.nextBelow(120);
    unsigned Alphabet = 2 + static_cast<unsigned>(R.nextBelow(5));
    std::vector<Symbol> T;
    for (std::size_t I = 0; I < N; ++I) {
      if (R.nextBool(0.05))
        T.push_back(SeparatorBase + I); // Unique separators, like LTBO.
      else
        T.push_back('a' + R.nextBelow(Alphabet));
    }

    auto Naive = naiveRepeats(T, 1, static_cast<uint32_t>(N));
    SuffixArray A{std::vector<Symbol>(T)};

    std::map<std::vector<Symbol>, std::vector<uint32_t>> FromArray;
    A.forEachRepeat(1, static_cast<uint32_t>(N), 2,
                    [&](const RepeatInfo &Rep) {
                      auto Pos = positionsOf(A, Rep.Node);
                      std::vector<Symbol> Key(T.begin() + Pos[0],
                                              T.begin() + Pos[0] + Rep.Length);
                      FromArray[Key] = Pos;
                    });

    // Soundness: each reported interval is a naive repeat with equal
    // positions.
    for (const auto &[Key, Pos] : FromArray) {
      auto It = Naive.find(Key);
      ASSERT_NE(It, Naive.end()) << "array reported a non-repeat";
      EXPECT_EQ(It->second, Pos);
    }
    // Completeness at node granularity: every naive repeat's position set
    // is reported by the interval it corresponds to (its shortest maximal
    // extension).
    for (const auto &[Key, Pos] : Naive) {
      bool Covered = false;
      for (const auto &[TKey, TPos] : FromArray) {
        if (TKey.size() >= Key.size() &&
            std::equal(Key.begin(), Key.end(), TKey.begin()) &&
            TPos == Pos) {
          Covered = true;
          break;
        }
      }
      EXPECT_TRUE(Covered) << "naive repeat not covered by any interval";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffixArrayRandom,
                         ::testing::Values(7, 99, 1234, 0xabcdef, 31337));

TEST(SuffixArray, LargePeriodicText) {
  // Heavily periodic input: one deep chain of nested LCP intervals.
  std::vector<Symbol> T;
  for (int I = 0; I < 5000; ++I)
    T.push_back('a' + (I % 3));
  SuffixArray A(std::move(T));
  // "abcabc...": the length-3 repeat "abc" occurs floor(n/3)-ish times
  // (overlapping suffix positions).
  bool FoundLong = false;
  A.forEachRepeat(100, 200, 2, [&](const RepeatInfo &R) {
    FoundLong |= R.Length >= 100 && R.Count >= 2;
  });
  EXPECT_TRUE(FoundLong);
  // Every LCP value 1..n-3 opens its own nested interval.
  EXPECT_GT(A.numNodes(), 4990u);
}

TEST(SuffixArray, PositionsSorted) {
  std::vector<Symbol> T = fromString("xyxyxyxyxy");
  SuffixArray A(std::move(T));
  A.forEachRepeat(1, 10, 2, [&](const RepeatInfo &R) {
    auto Pos = positionsOf(A, R.Node);
    EXPECT_TRUE(std::is_sorted(Pos.begin(), Pos.end()));
    EXPECT_EQ(Pos.size(), R.Count);
  });
}

/// Clamped-candidate dedup property, checked against the naive finder:
///  - no content (the length-R.Length prefix at the reported positions) is
///    reported twice — deep intervals collapse onto the shallowest enclosing
///    interval of LCP >= MaxLen;
///  - every clamped report carries the FULL occurrence set of its
///    length-MaxLen content (the deeper duplicates it replaced only held
///    subsets);
///  - every distinct length-MaxLen repeat is still reported (dedup loses
///    no candidate).
void checkClampedDedup(const std::vector<Symbol> &T, uint32_t MaxLen) {
  SuffixArray D{std::vector<Symbol>(T)};
  auto Naive = naiveRepeats(T, MaxLen, MaxLen);
  std::map<std::vector<Symbol>, std::vector<uint32_t>> Reported;
  D.forEachRepeat(1, MaxLen, 2, [&](const RepeatInfo &R) {
    ASSERT_LE(R.Length, MaxLen);
    auto Pos = positionsOf(D, R.Node);
    std::vector<Symbol> Key(T.begin() + Pos[0], T.begin() + Pos[0] + R.Length);
    auto [It, Inserted] = Reported.emplace(Key, Pos);
    EXPECT_TRUE(Inserted) << "content reported twice (len " << R.Length << ")";
    if (R.Length == MaxLen) {
      auto NIt = Naive.find(Key);
      ASSERT_NE(NIt, Naive.end()) << "reported a non-repeat";
      EXPECT_EQ(NIt->second, Pos) << "clamped report lost occurrences";
    }
  });
  for (const auto &[Key, Pos] : Naive) {
    auto It = Reported.find(Key);
    ASSERT_NE(It, Reported.end()) << "length-MaxLen repeat not reported";
    EXPECT_EQ(It->second, Pos);
  }
}

std::vector<Symbol> periodicText(std::size_t Period, std::size_t Len) {
  std::vector<Symbol> T;
  for (std::size_t I = 0; I < Len; ++I)
    T.push_back('a' + static_cast<Symbol>(I % Period));
  return T;
}

TEST(ClampedDedup, PeriodicTextArray) {
  // "ababab...": the worst case — one deep chain of intervals, all
  // clamping to the same two length-5 contents ("ababa"/"babab").
  checkClampedDedup(periodicText(2, 80), 5);
  checkClampedDedup(periodicText(3, 90), 7);
}

TEST(ClampedDedup, RandomTextsMatchNaive) {
  Rng R(0xc0ffee);
  for (int Round = 0; Round < 20; ++Round) {
    std::size_t N = 60 + R.nextBelow(120);
    unsigned Alphabet = 2 + static_cast<unsigned>(R.nextBelow(3));
    uint32_t MaxLen = 3 + static_cast<uint32_t>(R.nextBelow(6));
    std::vector<Symbol> T;
    for (std::size_t I = 0; I < N; ++I)
      T.push_back('a' + R.nextBelow(Alphabet));
    checkClampedDedup(T, MaxLen);
  }
}

//===----------------------------------------------------------------------===//
// Construction vs a naive oracle
//===----------------------------------------------------------------------===//

/// Naive reference suffix array: every suffix index 0..n (n is the virtual
/// sentinel, the empty suffix) sorted lexicographically, with the end of
/// the text smaller than any symbol — std::lexicographical_compare orders a
/// proper prefix first, which is exactly that rule.
std::vector<uint32_t> naiveSuffixArray(const std::vector<Symbol> &T) {
  std::vector<uint32_t> Sa(T.size() + 1);
  for (uint32_t I = 0; I < Sa.size(); ++I)
    Sa[I] = I;
  std::sort(Sa.begin(), Sa.end(), [&](uint32_t A, uint32_t B) {
    return std::lexicographical_compare(T.begin() + A, T.end(),
                                        T.begin() + B, T.end());
  });
  return Sa;
}

// The SA of a text with a unique smallest (virtual) sentinel is unique, so
// the construction must match the naive sort ELEMENT FOR ELEMENT — not
// merely produce equivalent repeat sets.
void checkMatchesNaive(const std::vector<Symbol> &T) {
  SuffixArray A{std::vector<Symbol>(T)};
  std::vector<uint32_t> Oracle = naiveSuffixArray(T);
  auto Got = A.suffixArray();
  ASSERT_EQ(Got.size(), Oracle.size()) << "n=" << T.size();
  EXPECT_EQ(Got.front(), static_cast<uint32_t>(T.size()))
      << "sentinel suffix must sort first";
  for (std::size_t I = 0; I < Oracle.size(); ++I)
    ASSERT_EQ(Got[I], Oracle[I]) << "row " << I << " (n=" << T.size() << ")";
}

TEST(SuffixArrayOracle, EdgeShapes) {
  checkMatchesNaive({});                  // Empty text.
  checkMatchesNaive({42});                // Single symbol.
  checkMatchesNaive(fromString("aaaaaaaaaaaaaaaa")); // All equal.
  checkMatchesNaive(fromString("ab"));
  checkMatchesNaive(fromString("ba"));
  checkMatchesNaive(fromString("banana"));
  checkMatchesNaive(fromString("mississippi"));
  // Sparse 64-bit symbols, including values around the separator range and
  // the all-ones value — all legal under the virtual sentinel.
  checkMatchesNaive({SeparatorBase, 0, SeparatorBase + 1, 0, ~uint64_t(0), 0,
                     ~uint64_t(0)});
}

TEST(SuffixArrayOracle, RandomTexts) {
  Rng R(0x5a15);
  for (int Case = 0; Case < 60; ++Case) {
    std::size_t N = 1 + R.nextBelow(300);
    uint64_t Alphabet = 1 + R.nextBelow(8);
    std::vector<Symbol> T;
    T.reserve(N);
    for (std::size_t I = 0; I < N; ++I)
      T.push_back('a' + R.nextBelow(Alphabet));
    checkMatchesNaive(T);
  }
}

TEST(SuffixArrayOracle, SeededRepeatTexts) {
  // Repeat-heavy inputs force many doubling rounds: periodic texts built
  // from doubled random blocks, with unique separators mixed in like the
  // outliner's group sequences.
  Rng R(0xd0b1);
  for (int Case = 0; Case < 30; ++Case) {
    std::vector<Symbol> Block;
    std::size_t BlockLen = 2 + R.nextBelow(12);
    for (std::size_t I = 0; I < BlockLen; ++I)
      Block.push_back('a' + R.nextBelow(3));
    std::vector<Symbol> T;
    uint64_t Sep = 0;
    std::size_t Reps = 2 + R.nextBelow(20);
    for (std::size_t K = 0; K < Reps; ++K) {
      T.insert(T.end(), Block.begin(), Block.end());
      if (R.nextBelow(3) == 0)
        T.push_back(SeparatorBase + Sep++);
    }
    checkMatchesNaive(T);
  }
}

TEST(SuffixArrayOracle, LongRunAndPeriodicTexts) {
  // The deepest doubling: a run of one symbol (log2(n) rounds) and short
  // periods. Kept at 4,096 symbols so the naive sort stays cheap.
  checkMatchesNaive(std::vector<Symbol>(4096, 'a'));
  checkMatchesNaive(periodicText(3, 4096));
  checkMatchesNaive(periodicText(7, 4095));
}

TEST(SuffixArrayOracle, LargeFourLetterText) {
  // A large text over a tiny alphabet: most bigrams repeat, so ranks stay
  // tied for several rounds.
  Rng R(0xbac0);
  std::vector<Symbol> T;
  T.reserve(1 << 16);
  for (std::size_t I = 0; I < (1u << 16); ++I)
    T.push_back('a' + R.nextBelow(4));
  checkMatchesNaive(T);
}

TEST(SuffixArrayOracle, LargeDistinctText) {
  // Large but all-distinct symbols: every rank is unique after the seed
  // sort, so doubling exits in its first round.
  std::vector<Symbol> T;
  T.reserve(1 << 16);
  for (std::size_t I = 0; I < (1u << 16); ++I)
    T.push_back(0x1000 + ((I * 40503) & 0xffff) * 3);
  checkMatchesNaive(T);
}

TEST(SuffixArray, FirstPositionMatchesPositions) {
  Rng R(0xf157);
  for (int Case = 0; Case < 10; ++Case) {
    std::vector<Symbol> T;
    std::size_t N = 20 + R.nextBelow(200);
    for (std::size_t I = 0; I < N; ++I)
      T.push_back('a' + R.nextBelow(4));
    SuffixArray A(std::move(T));
    A.forEachRepeat(1, 64, 2, [&](const RepeatInfo &Rep) {
      EXPECT_EQ(A.firstPositionOf(Rep.Node), positionsOf(A, Rep.Node).front());
    });
  }
}

TEST(SuffixArray, BananaIntervals) {
  // The paper's §2.1.2 example: "banana" has repeats "a" (x3), "an"/"ana"
  // (x2), "n"/"na" (x2). "an" is not maximal (every "an" extends to
  // "ana"), so no interval reports it. "ana"'s occurrences overlap, which
  // is fine here: the non-overlap rule is applied by the outliner.
  SuffixArray A(fromString("banana"));
  EXPECT_EQ(A.textSize(), 6u);
  std::map<std::vector<Symbol>, uint32_t> Found;
  A.forEachRepeat(1, 100, 2, [&](const RepeatInfo &R) {
    auto Pos = positionsOf(A, R.Node);
    std::vector<Symbol> Key(A.text().begin() + Pos[0],
                            A.text().begin() + Pos[0] + R.Length);
    EXPECT_EQ(Pos.size(), R.Count);
    Found[Key] = R.Count;
  });
  EXPECT_EQ(Found[fromString("a")], 3u);
  EXPECT_EQ(Found[fromString("ana")], 2u);
  EXPECT_EQ(Found[fromString("na")], 2u);
}

//===----------------------------------------------------------------------===//
// Working-set accounting: detection drops the stored text once repeat
// enumeration is done, and the accounting must follow.
//===----------------------------------------------------------------------===//

std::map<std::vector<Symbol>, std::vector<uint32_t>>
enumerateRepeats(SuffixArray &D, const std::vector<Symbol> &T,
                 uint32_t MaxLen) {
  std::map<std::vector<Symbol>, std::vector<uint32_t>> Out;
  D.forEachRepeat(1, MaxLen, 2, [&](const RepeatInfo &R) {
    auto Pos = positionsOf(D, R.Node);
    Out[{T.begin() + Pos[0], T.begin() + Pos[0] + R.Length}] = Pos;
  });
  return Out;
}

TEST(SuffixArrayWorkingSet, ReleaseWorkingSetAccounting) {
  Rng R(0x4e1e);
  std::vector<Symbol> T;
  for (std::size_t I = 0; I < 300; ++I)
    T.push_back('a' + R.nextBelow(3));
  const std::size_t TextBytes = T.size() * sizeof(Symbol);
  SuffixArray Arr{std::vector<Symbol>(T)};
  auto Repeats = enumerateRepeats(Arr, T, 16);

  const std::size_t Before = Arr.workingSetBytes();
  ASSERT_GE(Before, TextBytes);
  Arr.releaseWorkingSet();
  // The text contribution (an exact-size copy) returns to zero.
  EXPECT_EQ(Arr.workingSetBytes(), Before - TextBytes);
  // Enumeration survives release (it reads only the retained structure).
  EXPECT_EQ(enumerateRepeats(Arr, T, 16), Repeats);
}

} // namespace
