//===- core/Selection.h - The one repeat-selection kernel -------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper runs one algorithm in two places: the §2.2 redundancy
/// estimator (Table 1, Fig. 3, Obs. 3) and the §3.3.2–3.3.3 outliner. Both
/// map binary code to a separator-delimited symbol sequence, find repeats
/// with st::SuffixArray, and select them greedily under the Fig. 2 benefit
/// model. This is that one path, shared by runLtbo (cold detection and warm
/// cache replay alike), analyzeRedundancy and the micro bench: separator
/// marking, sequence assembly, rank, claim, and — for the outliner — the
/// commit of a selection into outlined functions and rewrite work.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CORE_SELECTION_H
#define CALIBRO_CORE_SELECTION_H

#include "cache/BuildCache.h"
#include "codegen/CompiledMethod.h"
#include "core/Outliner.h"
#include "suffixtree/SuffixArray.h"

#include <cstdint>
#include <vector>

namespace calibro {
namespace core {

/// Which words computeSeparators() maps to separators; embedded-data words
/// always are. The outliner applies every rule, the estimator the subset
/// its AnalysisOptions choose.
struct SeparatorRules {
  bool Terminators = true; ///< Basic-block confinement (§3.3.2).
  /// PC-relative instructions: one shared copy cannot reach every
  /// occurrence's target.
  bool PcRel = true;
  /// Instructions reading or writing x30 (an outlined body must preserve
  /// the return address its `bl` produced), and undecodable words.
  bool LrSensitive = true;
  /// Hot-function filtering (§3.4.2): everything outside the slow paths.
  bool SlowPathsOnly = false;
};

/// Marks the separator words of \p M under \p Rules.
std::vector<bool> computeSeparators(const codegen::CompiledMethod &M,
                                    const SeparatorRules &Rules);

/// Where one sequence position came from.
struct SeqPos {
  int32_t Member = -1; ///< Index into Sequence::Rows; -1 for a separator
                       ///< between methods.
  uint32_t Word = 0;   ///< Word index inside that method.
};

/// One assembled symbol sequence (§3.3.2): each member method's words, its
/// separator words replaced by unique symbols, then one unique separator.
struct Sequence {
  std::vector<st::Symbol> Text;
  std::vector<SeqPos> Pos; ///< Parallel to Text.
  /// Positions an occurrence may start at but must not contain: after
  /// outlining, nothing would exist at those addresses to jump to.
  std::vector<bool> InteriorForbidden;
  /// The caller's row of each member method, in append order.
  std::vector<std::size_t> Rows;
  uint64_t NextSeparator = 0;

  /// Reserves \p Positions positions (words plus one per method).
  void reserve(std::size_t Positions);

  /// Appends \p M (the caller's row \p Row) with separators \p Sep. With
  /// \p ForbidBranchTargets, every word a PC-relative record jumps to is
  /// interior-forbidden.
  void append(const codegen::CompiledMethod &M, std::size_t Row,
              const std::vector<bool> &Sep, bool ForbidBranchTargets);
};

/// One repeat eligible for selection.
struct Candidate {
  int32_t Node;    ///< LCP-interval handle for SuffixArray::positionsOf.
  uint32_t Len;    ///< Sequence length in instructions.
  uint32_t First;  ///< Earliest occurrence, for content-based ordering.
  int64_t Benefit; ///< Fig. 2 benefit over all (overlapping) occurrences.
};

/// Every repeat of length [MinLen, MaxLen] with a positive benefit, ordered
/// by benefit, then length (both descending), then first occurrence: a
/// content-based order, independent of the detector's interval numbering.
std::vector<Candidate> rankCandidates(const st::SuffixArray &Sa,
                                      uint32_t MinLen, uint32_t MaxLen);

/// Greedy selection over \p Ranked, in order: a candidate keeps each
/// occurrence that overlaps neither its previous kept one nor any claimed
/// position and holds no \p InteriorForbidden position past its first word.
/// If still profitable, it claims what it kept and becomes a selection;
/// otherwise it claims nothing. Reads only occurrence positions, so it runs
/// after SuffixArray::releaseWorkingSet().
cache::GroupSelections
claimCandidates(const st::SuffixArray &Sa, const std::vector<Candidate> &Ranked,
                const std::vector<bool> &InteriorForbidden);

/// Whether a cached selection may be replayed on the live sequence \p S.
/// The cache is never an authority, so every invariant claimCandidates()
/// establishes is re-checked: lengths inside [MinLen, MaxLen], a profitable
/// count and the model's benefit, positions ascending, non-overlapping and
/// inside one method, no separator, claimed or interior-forbidden word, and
/// identical words across a selection's occurrences.
bool validateSelections(const Sequence &S, const cache::GroupSelections &Sel,
                        uint32_t MinLen, uint32_t MaxLen);

/// One selected occurrence, in method-local coordinates.
struct MethodOcc {
  uint32_t WordStart = 0;
  uint32_t LenWords = 0;
  uint32_t FuncId = 0;
};

/// Rewrite work for one method: its selected occurrences.
struct RewriteWork {
  std::size_t Row = 0; ///< Index into the linked methods.
  std::vector<MethodOcc> Occs;
};

/// Turns \p Sel (over \p S, whose Rows index \p Methods) into one
/// OutlinedFunc per selection — id (GroupIdx << 20) | i, a copy of its first
/// occurrence plus `br x30` — and per-method rewrite work, counted into
/// \p Stats.
void commitSelections(const std::vector<codegen::CompiledMethod> &Methods,
                      const Sequence &S, const cache::GroupSelections &Sel,
                      uint32_t GroupIdx,
                      std::vector<codegen::OutlinedFunc> &FuncsOut,
                      std::vector<RewriteWork> &WorkOut, OutlineStats &Stats);

} // namespace core
} // namespace calibro

#endif // CALIBRO_CORE_SELECTION_H
