//===- core/RedundancyAnalysis.h - §2.2 redundancy estimator ----*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's code-redundancy analysis (§2.2): map the application's
/// binary code to an unsigned-integer sequence, build a suffix array (whose
/// LCP intervals are the paper's suffix-tree nodes), detect repetitive
/// sequences, and estimate the potential code-size saving with the Fig. 2
/// benefit model. This is the estimator behind Table 1 (25.4 % average
/// potential), Figure 3 (length vs. repeats), and Observation 3 (the
/// hottest ART-specific patterns).
///
/// Separator marking, ranking and greedy claiming are the outliner's own
/// (core/Selection.h). By default the estimate ignores the correctness
/// restrictions (LR-sensitivity, PC-relative operands, branch targets) — it
/// is an upper bound on what outlining could save, which is why Table 4's
/// achieved reductions come in below Table 1's estimates.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CORE_REDUNDANCYANALYSIS_H
#define CALIBRO_CORE_REDUNDANCYANALYSIS_H

#include "codegen/CompiledMethod.h"

#include <cstdint>
#include <map>
#include <vector>

namespace calibro {
namespace core {

/// Analysis options. The three Separate* flags switch on, one by one, the
/// outliner's own separator rules (core::SeparatorRules); with all of them
/// set the estimate approximates what LTBO can legally claim. The raw §2.2
/// estimate keeps them all off to measure gross redundancy.
struct AnalysisOptions {
  uint32_t MaxSeqLen = 256; ///< Longest sequence considered.
  uint32_t TopK = 10;       ///< How many hottest patterns to report.
  /// Basic-block confinement (§3.3.2): terminators become separators.
  bool SeparateAtTerminators = false;
  /// PC-relative operands are position-dependent: adr/ldr-literal (and the
  /// branches, when terminators are not already separated) cannot be moved
  /// into a shared copy.
  bool SeparateAtPcRel = false;
  /// Instructions reading or writing x30 would corrupt the outlined
  /// function's return address (undecodable words are separated too).
  bool SeparateAtLrSensitive = false;
};

/// A frequently repeated pattern (for Observation 3).
struct TopPattern {
  std::vector<uint32_t> Words; ///< The instruction words.
  uint32_t Length = 0;
  uint32_t Count = 0; ///< Non-overlapping occurrence count.
};

/// Result of one analysis run.
struct RedundancyReport {
  uint64_t TotalInsns = 0;
  uint64_t SavedInsns = 0; ///< Estimated by greedy benefit-model selection.
  double EstimatedReductionRatio = 0;
  /// Figure 3's data: for each repeated-sequence length, the total number
  /// of (non-overlapping) repeats found at that length.
  std::map<uint32_t, uint64_t> RepeatsByLength;
  std::vector<TopPattern> TopPatterns; ///< Sorted by Count, descending.
};

/// Analyzes all compiled methods of one app (pre-link binary code).
RedundancyReport analyzeRedundancy(
    const std::vector<codegen::CompiledMethod> &Methods,
    const AnalysisOptions &Opts);

} // namespace core
} // namespace calibro

#endif // CALIBRO_CORE_REDUNDANCYANALYSIS_H
