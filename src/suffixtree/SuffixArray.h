//===- suffixtree/SuffixArray.h - SA+LCP repeat detection -------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The redundancy-detection substrate of the paper (§2.1.2, §3.3.2): a
/// suffix array with Kasai's LCP array, enumerating repeated sequences as
/// LCP intervals. The whole program's instruction stream is mapped to a
/// symbol sequence (instruction encodings, with every basic-block
/// terminator replaced by a globally unique separator symbol); unique
/// separators can never appear inside a repeated sequence, which confines
/// every candidate to a basic block exactly as §3.3.2 requires.
///
/// The paper builds a suffix tree for this. LCP intervals are exactly that
/// tree's internal nodes — an interval's LCP value is the node's path
/// depth and its rows are the node's leaves — so the array lists the same
/// repeats with the same occurrence sets (the tests check every repeat
/// and occurrence set against a naive finder) at a fraction of the tree's
/// working set.
///
/// Construction is radix prefix doubling, O(n log n) worst case with an
/// early exit once every rank is unique: the sparse 64-bit alphabet is
/// first compacted to dense uint32 ranks (LSD radix sort of the symbols),
/// then counting-sort doubling rounds order the suffixes. The sentinel is
/// a *virtual* position with a by-construction unique smallest rank — no
/// symbol value is reserved, so any uint64 sequence is legal input. All
/// construction scratch (ranks, doubling arrays, Kasai's LCP and inverse
/// arrays) lives in local vectors that die with the constructor.
///
/// The suffix array of a text whose (virtual) sentinel is strictly smaller
/// than every other symbol is unique, so the tests check the construction
/// against a naive sort of all suffixes.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SUFFIXTREE_SUFFIXARRAY_H
#define CALIBRO_SUFFIXTREE_SUFFIXARRAY_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace calibro {
namespace st {

/// Sequence symbol. Instruction words occupy [0, 2^32); separator symbols
/// live above.
using Symbol = uint64_t;

/// First symbol value reserved for separators. Callers allocate unique
/// separators as SeparatorBase + counter.
inline constexpr Symbol SeparatorBase = uint64_t(1) << 32;

/// A repeated sequence found by SuffixArray::forEachRepeat.
struct RepeatInfo {
  int32_t Node;    ///< LCP-interval handle, usable with positionsOf().
  uint32_t Length; ///< Repeated-sequence length (clamped to MaxLen).
  uint32_t Count;  ///< Number of (possibly overlapping) occurrences.
};

/// Suffix array + LCP over one symbol sequence.
class SuffixArray {
public:
  /// Builds the array: alphabet rank-compaction, radix prefix doubling,
  /// then Kasai's LCP and the LCP-interval sweep. Accepts any symbol
  /// values — the sentinel is virtual, nothing is reserved.
  explicit SuffixArray(std::vector<Symbol> Text);

  /// Length of the original sequence. Valid even after
  /// releaseWorkingSet().
  std::size_t textSize() const { return TextLen; }

  /// The stored sequence. Empty after releaseWorkingSet().
  std::span<const Symbol> text() const { return Symbols; }

  /// Number of LCP intervals — the counterpart of a suffix tree's
  /// internal-node count (leaves are implicit in the array itself).
  std::size_t numNodes() const { return Intervals.size(); }

  /// Visits every LCP interval whose repeat length is >= \p MinLen
  /// (clamped to \p MaxLen) with >= \p MinCount occurrences. The Node
  /// handle indexes the internal interval table. Lengths longer than
  /// \p MaxLen are reported clamped to MaxLen (the occurrence positions stay
  /// valid for the length-MaxLen prefix). Clamped candidates are
  /// deduplicated: an interval whose parent interval's LCP value is already
  /// >= MaxLen is skipped, because the parent reports the identical
  /// length-MaxLen prefix over a superset of the occurrences. Visit order
  /// is deterministic.
  void forEachRepeat(uint32_t MinLen, uint32_t MaxLen, uint32_t MinCount,
                     const std::function<void(const RepeatInfo &)> &Fn) const;

  /// Fills \p Out (cleared first) with the start positions of the repeat
  /// named by \p Interval, ascending. No allocation once \p Out has grown
  /// to the largest occurrence count.
  void positionsOf(int32_t Interval, std::vector<uint32_t> &Out) const;

  /// Earliest start position of the repeat named by \p Interval. O(count)
  /// with no copy and no sort — the selector's candidate ordering needs
  /// only this one value per candidate.
  uint32_t firstPositionOf(int32_t Interval) const;

  /// The raw suffix array, including the virtual-sentinel row: textSize()+1
  /// entries, the first of which is always textSize() (the sentinel suffix
  /// sorts strictly smallest). Exposed for the construction tests and
  /// benches.
  std::span<const uint32_t> suffixArray() const {
    return std::span<const uint32_t>(Sa.data(), Sa.size());
  }

  /// Bytes held by the detection-relevant arrays right now (text, suffix
  /// array, interval table; all construction scratch died with the
  /// constructor). Shrinks after releaseWorkingSet(): the text
  /// contribution returns to zero.
  std::size_t workingSetBytes() const;

  /// Frees the stored text. forEachRepeat/positionsOf/numNodes/textSize
  /// stay valid (they read only Sa and Intervals); text() does not. Call
  /// once repeat enumeration no longer needs the raw symbols.
  void releaseWorkingSet();

private:
  struct Interval {
    uint32_t Lo;        ///< First suffix-array row (inclusive).
    uint32_t Hi;        ///< Last suffix-array row (inclusive).
    uint32_t Len;       ///< Repeat length (the interval's LCP value).
    uint32_t ParentLen; ///< LCP value of the enclosing (parent) interval.
  };

  std::vector<Symbol> Symbols; ///< The sequence, until releaseWorkingSet().
  std::size_t TextLen = 0;
  std::vector<uint32_t> Sa;
  std::vector<Interval> Intervals;
};

} // namespace st
} // namespace calibro

#endif // CALIBRO_SUFFIXTREE_SUFFIXARRAY_H
