//===- bench/ablation_constraints.cpp - The cost of correctness -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DESIGN.md's constraint ablation: how much of the gross §2.2 redundancy
/// estimate does each of the outliner's correctness rules give up? The
/// ladder runs from the unrestricted estimate (Table 1's number) down to
/// the fully-constrained one, and compares the latter against what the real
/// outliner actually claimed — explaining the paper's 25.4% estimated vs.
/// 19.19% achieved gap mechanically.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Outliner.h"
#include "core/RedundancyAnalysis.h"

using namespace calibro;
using namespace calibro::bench;

namespace {

double estimate(const std::vector<codegen::CompiledMethod> &Methods,
                bool Term, bool PcRel, bool Lr) {
  core::AnalysisOptions O;
  O.MaxSeqLen = 64;
  O.SeparateAtTerminators = Term;
  O.SeparateAtPcRel = PcRel;
  O.SeparateAtLrSensitive = Lr;
  return 100.0 * core::analyzeRedundancy(Methods, O).EstimatedReductionRatio;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = scaleFromArgs(argc, argv);
  auto Specs = workload::paperApps(Scale);
  const auto &Spec = Specs[5]; // Wechat.
  dex::App App = workload::makeApp(Spec);
  auto Methods = compileBaseline(App);

  std::printf("Constraint ablation on %s (scale %.2f): claimed savings as\n"
              "each correctness rule of §3.2/§3.3.2 is switched on\n\n",
              Spec.Name.c_str(), Scale);
  double Raw = estimate(Methods, false, false, false);
  double T = estimate(Methods, true, false, false);
  double TP = estimate(Methods, true, true, false);
  double TPL = estimate(Methods, true, true, true);
  std::printf("  %-46s %7.2f%%\n", "unrestricted (the Table 1 estimate)",
              Raw);
  std::printf("  %-46s %7.2f%%\n", "+ basic-block confinement (terminators)",
              T);
  std::printf("  %-46s %7.2f%%\n", "+ PC-relative exclusion", TP);
  std::printf("  %-46s %7.2f%%\n", "+ LR-sensitivity exclusion", TPL);

  // What the real outliner achieved on the same methods (it additionally
  // rejects occurrences with interior branch targets and ineligible
  // methods, and pays the outlined copies).
  auto Working = Methods;
  uint64_t Before = 0;
  for (const auto &M : Working)
    Before += M.Code.size();
  auto R = core::runLtbo(Working, {});
  if (!R) {
    std::fprintf(stderr, "%s\n", R.message().c_str());
    return 1;
  }
  double Achieved =
      100.0 * static_cast<double>(R->Stats.InsnsRemoved) /
      static_cast<double>(Before);
  std::printf("  %-46s %7.2f%%\n",
              "actual LTBO (net, incl. copies + exclusions)", Achieved);

  // Intermediate rungs can wobble slightly: the greedy claimer packs
  // occurrences differently once the candidate set changes. The endpoints
  // are the meaningful comparison.
  bool Ladder = Raw >= T && Raw >= TP && Raw >= TPL && TPL >= Achieved - 0.01;
  std::printf("\nshape check: estimate >= constrained estimate >= achieved "
              ": %s\n",
              Ladder ? "PASS" : "FAIL");
  std::printf("(paper: 25.4%% estimated -> 19.19%% achieved; the rules buy "
              "correctness with a slice of the estimate)\n");
  core::BuildStats Outlined;
  Outlined.NumMethods = Methods.size();
  Outlined.Ltbo = R->Stats;
  bool Corpus = nonTrivialBuild(Spec.Name + " LTBO", Outlined);
  reportCorpusGate(Corpus);
  return Corpus ? 0 : 1;
}
