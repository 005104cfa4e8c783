//===- bench/figure3_length_repeats.cpp - Paper Figure 3 --------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 3: "Sequence Length vs. Number of Repeats" for a
/// WeChat-class app. The paper's observation (Obs. 2): most repetitive
/// sequences are short, and the shorter the sequence, the higher the
/// repeat frequency. Printed as a series (length, total repeats) plus an
/// ASCII log-scale bar chart. Exits 1 when the shape check fails, including
/// when the corpus yields no short repeats at all.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/RedundancyAnalysis.h"

#include <cmath>

using namespace calibro;
using namespace calibro::bench;

int main(int argc, char **argv) {
  double Scale = scaleFromArgs(argc, argv);
  auto Specs = workload::paperApps(Scale);
  const auto &Spec = Specs[5]; // Wechat.
  dex::App App = workload::makeApp(Spec);

  std::vector<codegen::CompiledMethod> Methods = compileBaseline(App);

  core::AnalysisOptions Opts;
  Opts.MaxSeqLen = 64;
  auto Report = core::analyzeRedundancy(Methods, Opts);

  std::printf("Figure 3: sequence length vs. number of repeats (%s, scale "
              "%.2f)\n\n",
              Spec.Name.c_str(), Scale);
  std::printf("%8s %10s  %s\n", "length", "repeats", "log-scale");
  uint64_t ShortMass = 0, LongMass = 0;
  for (const auto &[Len, Repeats] : Report.RepeatsByLength) {
    if (Len <= 5)
      ShortMass += Repeats;
    else if (Len >= 10)
      LongMass += Repeats;
    if (Len > 24)
      continue;
    int Bar = Repeats > 0 ? static_cast<int>(4.0 * std::log10(
                                static_cast<double>(Repeats) + 1.0))
                          : 0;
    std::printf("%8u %10llu  %s\n", Len, (unsigned long long)Repeats,
                std::string(static_cast<std::size_t>(Bar), '#').c_str());
  }
  // A corpus with no short repeats proves nothing: it fails, and says why.
  const bool HasRepeats = ShortMass > 0;
  const bool Pass = HasRepeats && ShortMass > 4 * LongMass;
  std::printf("\nshape check (short sequences dominate, Obs. 2):\n"
              "  repeats at length<=5: %llu, at length>=10: %llu -> %s%s\n",
              (unsigned long long)ShortMass, (unsigned long long)LongMass,
              Pass ? "PASS" : "FAIL",
              HasRepeats ? "" : " (no short repeats in the corpus)");
  return Pass ? 0 : 1;
}
