//===- bench/obs3_art_patterns.cpp - Paper Observation 3 --------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Observation 3: the hottest repetitive sequences in a
/// WeChat-class app are the three ART-specific patterns (Java call via
/// ArtMethod, native entrypoint call via x19, stack-overflow probe). Prints
/// the top repeated sequences with disassembly and classifies each.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "aarch64/Decoder.h"
#include "aarch64/Disasm.h"
#include "codegen/ArtAbi.h"
#include "core/RedundancyAnalysis.h"

using namespace calibro;
using namespace calibro::bench;

namespace {

/// Classifies a repeated word sequence against the Fig. 4 patterns.
const char *classify(const std::vector<uint32_t> &Words) {
  bool HasJavaLoad = false, HasRtLoad = false, HasProbe = false,
       HasCall = false;
  for (std::size_t K = 0; K < Words.size(); ++K) {
    auto I = a64::decode(Words[K]);
    if (!I)
      continue;
    if (I->Op == a64::Opcode::LdrImm && I->Rd == a64::LR && I->Rn == 0 &&
        I->Imm == art::ArtMethodEntryPointOffset)
      HasJavaLoad = true;
    if (I->Op == a64::Opcode::LdrImm && I->Rd == a64::LR &&
        I->Rn == a64::ThreadReg)
      HasRtLoad = true;
    if (I->Op == a64::Opcode::SubImm && I->Rd == a64::IP0 &&
        I->Rn == a64::SP && I->Shift == 12)
      HasProbe = true;
    if (I->Op == a64::Opcode::Blr)
      HasCall = true;
  }
  if (HasJavaLoad && HasCall)
    return "JAVA-CALL (Fig. 4a)";
  if (HasRtLoad && HasCall)
    return "ART-NATIVE-CALL (Fig. 4b)";
  if (HasProbe)
    return "STACK-CHECK (Fig. 4c)";
  return "other";
}

} // namespace

int main(int argc, char **argv) {
  double Scale = scaleFromArgs(argc, argv);
  auto Specs = workload::paperApps(Scale);
  const auto &Spec = Specs[5]; // Wechat.
  dex::App App = workload::makeApp(Spec);

  std::vector<codegen::CompiledMethod> Methods = compileBaseline(App);

  // Rank short repeats by raw frequency, like the paper's per-pattern
  // counts (1006k / 173k / 217k occurrences in WeChat).
  core::AnalysisOptions Opts;
  Opts.TopK = 12;
  Opts.MaxSeqLen = 8;
  Opts.SeparateAtTerminators = true; // Patterns live inside basic blocks.
  auto Report = core::analyzeRedundancy(Methods, Opts);

  std::printf("Observation 3: top repetitive sequences in %s (scale %.2f)\n"
              "paper: #1 Java call (1006k), #2 stack check (173k), #3 "
              "pAllocObjectResolved (217k)\n\n",
              Spec.Name.c_str(), Scale);
  int ArtRank = 0, Rank = 0;
  for (const auto &P : Report.TopPatterns) {
    ++Rank;
    const char *Kind = classify(P.Words);
    if (Kind[0] != 'o' && ArtRank == 0)
      ArtRank = Rank;
    std::printf("#%-2d count=%-6u len=%u  %s\n", Rank, P.Count, P.Length,
                Kind);
    for (uint32_t W : P.Words) {
      auto I = a64::decode(W);
      std::printf("      %s\n", I ? a64::toString(*I).c_str() : ".word");
    }
  }
  std::printf("\nART-specific pattern first appears at rank %d "
              "(paper: ranks 1-3)\n",
              ArtRank);
  return 0;
}
