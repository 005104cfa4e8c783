//===- core/RedundancyAnalysis.cpp - §2.2 redundancy estimator -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "core/RedundancyAnalysis.h"

#include "core/Selection.h"

#include <algorithm>

using namespace calibro;
using namespace calibro::core;

RedundancyReport core::analyzeRedundancy(
    const std::vector<codegen::CompiledMethod> &Methods,
    const AnalysisOptions &Opts) {
  RedundancyReport Report;

  // Step 1 (§2.2): map the binary code to a sequence of unsigned integers.
  // Instruction words map to themselves; embedded data, method boundaries
  // and whatever the chosen rules mark become unique separators so no
  // "repeat" spans them.
  const SeparatorRules Rules{.Terminators = Opts.SeparateAtTerminators,
                             .PcRel = Opts.SeparateAtPcRel,
                             .LrSensitive = Opts.SeparateAtLrSensitive};
  Sequence Seq;
  for (std::size_t Row = 0; Row < Methods.size(); ++Row)
    Seq.append(Methods[Row], Row, computeSeparators(Methods[Row], Rules),
               /*ForbidBranchTargets=*/false);
  for (st::Symbol S : Seq.Text)
    Report.TotalInsns += S < st::SeparatorBase;

  // Steps 2+3 (§2.2): suffix array (LCP intervals are the suffix tree's
  // internal nodes) and repetitive-sequence detection. Step 4: estimate the
  // saving with the Fig. 2 model through the outliner's own selector —
  // greedy, without double counting (non-overlapping occurrences only).
  st::SuffixArray Sa(std::move(Seq.Text));
  const cache::GroupSelections Sel = claimCandidates(
      Sa, rankCandidates(Sa, 2, Opts.MaxSeqLen), Seq.InteriorForbidden);

  auto Text = Sa.text();
  std::vector<TopPattern> Patterns;
  for (const cache::CachedSelection &S : Sel.Funcs) {
    Report.SavedInsns += S.Benefit;
    Report.RepeatsByLength[S.SeqLen] += S.Positions.size();
    TopPattern TP;
    TP.Length = S.SeqLen;
    TP.Count = static_cast<uint32_t>(S.Positions.size());
    for (uint32_t K = 0; K < S.SeqLen; ++K)
      TP.Words.push_back(static_cast<uint32_t>(Text[S.Positions[0] + K]));
    Patterns.push_back(std::move(TP));
  }

  std::sort(Patterns.begin(), Patterns.end(),
            [](const TopPattern &A, const TopPattern &B) {
              if (A.Count != B.Count)
                return A.Count > B.Count;
              return A.Length > B.Length;
            });
  if (Patterns.size() > Opts.TopK)
    Patterns.resize(Opts.TopK);
  Report.TopPatterns = std::move(Patterns);

  if (Report.TotalInsns > 0)
    Report.EstimatedReductionRatio =
        static_cast<double>(Report.SavedInsns) /
        static_cast<double>(Report.TotalInsns);
  return Report;
}
