//===- core/Selection.cpp - The one repeat-selection kernel ---------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "core/Selection.h"

#include "aarch64/Decoder.h"
#include "aarch64/Encoder.h"
#include "core/BenefitModel.h"

#include <algorithm>
#include <cassert>

using namespace calibro;
using namespace calibro::core;
using namespace calibro::codegen;

namespace {

/// True when executing \p I inside an outlined function would observe or
/// destroy the return address the outlining `bl` produced. Unused register
/// fields of Insn are zero, so checking all of them is exact for the
/// supported subset.
bool touchesLr(const a64::Insn &I) {
  if (I.Op == a64::Opcode::Bl || I.Op == a64::Opcode::Blr)
    return true; // Implicit LR write.
  return I.Rd == a64::LR || I.Rn == a64::LR || I.Rm == a64::LR ||
         I.Ra == a64::LR;
}

} // namespace

std::vector<bool> core::computeSeparators(const CompiledMethod &M,
                                          const SeparatorRules &Rules) {
  // Under hot filtering only the recorded slow paths stay outlinable
  // (§3.4.2). Every rule below only adds separators.
  std::vector<bool> Sep(M.Code.size(), Rules.SlowPathsOnly);
  auto Mark = [&](uint32_t BeginOff, uint32_t EndOff, bool V) {
    for (uint32_t W = BeginOff / 4; W < EndOff / 4; ++W)
      Sep[W] = V;
  };
  if (Rules.SlowPathsOnly)
    for (const auto &R : M.Side.SlowPathRanges)
      Mark(R.Begin, R.End, false);
  for (const auto &D : M.Side.EmbeddedData)
    Mark(D.Offset, D.Offset + D.Size, true);
  if (Rules.Terminators)
    for (uint32_t T : M.Side.TerminatorOffsets)
      Sep[T / 4] = true;
  if (Rules.PcRel)
    for (const auto &R : M.Side.PcRelRecords)
      Sep[R.InsnOffset / 4] = true;
  // Outlined methods passed validateSideInfo, so every non-data word
  // decodes; an undecodable word is still handled defensively (it becomes
  // a separator and can never be outlined). Words already separated
  // (embedded data among them) need no decode.
  if (Rules.LrSensitive)
    for (std::size_t W = 0; W < M.Code.size(); ++W)
      if (!Sep[W]) {
        auto I = a64::decode(M.Code[W]);
        Sep[W] = !I || touchesLr(*I);
      }
  return Sep;
}

void Sequence::reserve(std::size_t Positions) {
  Text.reserve(Positions);
  Pos.reserve(Positions);
  InteriorForbidden.reserve(Positions);
}

void Sequence::append(const CompiledMethod &M, std::size_t Row,
                      const std::vector<bool> &Sep, bool ForbidBranchTargets) {
  const std::size_t Base = Text.size();
  const auto Member = static_cast<int32_t>(Rows.size());
  Rows.push_back(Row);
  for (std::size_t W = 0; W < M.Code.size(); ++W) {
    Text.push_back(Sep[W] ? st::SeparatorBase + NextSeparator++
                          : st::Symbol(M.Code[W]));
    Pos.push_back({Member, static_cast<uint32_t>(W)});
  }
  Text.push_back(st::SeparatorBase + NextSeparator++);
  Pos.push_back({-1, 0});
  InteriorForbidden.resize(Text.size(), false);
  if (ForbidBranchTargets)
    for (const auto &R : M.Side.PcRelRecords)
      if (R.TargetOffset / 4 < M.Code.size())
        InteriorForbidden[Base + R.TargetOffset / 4] = true;
}

std::vector<Candidate> core::rankCandidates(const st::SuffixArray &Sa,
                                            uint32_t MinLen, uint32_t MaxLen) {
  std::vector<Candidate> Cands;
  Sa.forEachRepeat(MinLen, MaxLen, 2, [&](const st::RepeatInfo &R) {
    int64_t Ben = benefit(R.Length, R.Count);
    if (Ben > 0)
      Cands.push_back({R.Node, R.Length, 0, Ben});
  });
  // One O(count) scan per candidate — no occurrence copy, no sort.
  for (Candidate &C : Cands)
    C.First = Sa.firstPositionOf(C.Node);
  std::sort(Cands.begin(), Cands.end(),
            [](const Candidate &A, const Candidate &B) {
              if (A.Benefit != B.Benefit)
                return A.Benefit > B.Benefit;
              if (A.Len != B.Len)
                return A.Len > B.Len;
              return A.First < B.First;
            });
  return Cands;
}

namespace {

/// True when the occurrence [P, P + Len) touches no claimed position and
/// contains no interior-forbidden one past its first word.
bool isFree(const std::vector<bool> &Claimed,
            const std::vector<bool> &InteriorForbidden, uint32_t P,
            uint32_t Len) {
  for (uint32_t K = 0; K < Len; ++K)
    if (Claimed[P + K] || (K > 0 && InteriorForbidden[P + K]))
      return false;
  return true;
}

void claim(std::vector<bool> &Claimed, const cache::CachedSelection &S) {
  for (uint32_t P : S.Positions)
    std::fill_n(Claimed.begin() + P, S.SeqLen, true);
}

} // namespace

cache::GroupSelections
core::claimCandidates(const st::SuffixArray &Sa,
                      const std::vector<Candidate> &Ranked,
                      const std::vector<bool> &InteriorForbidden) {
  assert(InteriorForbidden.size() == Sa.textSize());
  cache::GroupSelections Out;
  std::vector<bool> Claimed(Sa.textSize(), false);
  std::vector<uint32_t> Occs;
  cache::CachedSelection S;
  for (const Candidate &C : Ranked) {
    S.SeqLen = C.Len;
    S.Positions.clear();
    Sa.positionsOf(C.Node, Occs);
    for (uint32_t P : Occs)
      if ((S.Positions.empty() || P >= S.Positions.back() + C.Len) &&
          isFree(Claimed, InteriorForbidden, P, C.Len))
        S.Positions.push_back(P);
    if (!isProfitable(C.Len, S.Positions.size()))
      continue;
    S.Benefit = static_cast<uint64_t>(benefit(C.Len, S.Positions.size()));
    claim(Claimed, S);
    Out.Funcs.push_back(S);
  }
  return Out;
}

bool core::validateSelections(const Sequence &S,
                              const cache::GroupSelections &Sel,
                              uint32_t MinLen, uint32_t MaxLen) {
  if (Sel.Funcs.size() >= (1u << 20))
    return false; // FuncIds hold 20 local bits.
  const std::size_t TextSize = S.Text.size();
  std::vector<bool> Claimed(TextSize, false);
  for (const cache::CachedSelection &C : Sel.Funcs) {
    if (C.SeqLen < MinLen || C.SeqLen > MaxLen || C.Positions.empty() ||
        !isProfitable(C.SeqLen, C.Positions.size()) ||
        C.Benefit !=
            static_cast<uint64_t>(benefit(C.SeqLen, C.Positions.size())))
      return false;
    const uint32_t P0 = C.Positions.front();
    for (std::size_t J = 0; J < C.Positions.size(); ++J) {
      const uint32_t P = C.Positions[J];
      if (J > 0 && P < C.Positions[J - 1] + C.SeqLen)
        return false; // Overlap inside the selection, or out of order.
      if (P >= TextSize || TextSize - P < C.SeqLen || S.Pos[P].Member < 0 ||
          !isFree(Claimed, S.InteriorForbidden, P, C.SeqLen))
        return false;
      for (uint32_t Q = P; Q < P + C.SeqLen; ++Q)
        if (S.Pos[Q].Member != S.Pos[P].Member || // Crosses a method.
            S.Text[Q] >= st::SeparatorBase ||
            S.Text[Q] != S.Text[P0 + (Q - P)]) // Content no longer shared.
          return false;
    }
    claim(Claimed, C);
  }
  return true;
}

void core::commitSelections(const std::vector<CompiledMethod> &Methods,
                            const Sequence &S,
                            const cache::GroupSelections &Sel,
                            uint32_t GroupIdx,
                            std::vector<OutlinedFunc> &FuncsOut,
                            std::vector<RewriteWork> &WorkOut,
                            OutlineStats &Stats) {
  assert(Sel.Funcs.size() <= (1u << 20) && "too many outlined functions");
  a64::Insn RetBr{.Op = a64::Opcode::Br};
  RetBr.Rn = a64::LR;
  const uint32_t RetWord = a64::encode(RetBr);

  std::vector<std::vector<MethodOcc>> OccsByMember(S.Rows.size());
  for (std::size_t I = 0; I < Sel.Funcs.size(); ++I) {
    const cache::CachedSelection &C = Sel.Funcs[I];
    const uint32_t FuncId = (GroupIdx << 20) | static_cast<uint32_t>(I);

    // The preserved copy comes from the first occurrence's method words
    // (the detector's text may already be released). Each word emitted
    // exactly one sequence position, so an occurrence maps to contiguous
    // words of one method.
    const SeqPos &P0 = S.Pos[C.Positions.front()];
    const CompiledMethod &Src = Methods[S.Rows[P0.Member]];
    OutlinedFunc Fn;
    Fn.Id = FuncId;
    Fn.SeqLength = C.SeqLen;
    Fn.Occurrences = static_cast<uint32_t>(C.Positions.size());
    Fn.Code.assign(Src.Code.begin() + P0.Word,
                   Src.Code.begin() + P0.Word + C.SeqLen);
    Fn.Code.push_back(RetWord);
    FuncsOut.push_back(std::move(Fn));

    for (uint32_t P : C.Positions) {
      const SeqPos &PI = S.Pos[P];
      OccsByMember[PI.Member].push_back({PI.Word, C.SeqLen, FuncId});
    }
    ++Stats.SequencesOutlined;
    Stats.OccurrencesReplaced += C.Positions.size();
    Stats.InsnsRemoved += C.Benefit;
  }

  // Phase C rewrites every method independently, across all groups.
  for (std::size_t M = 0; M < OccsByMember.size(); ++M)
    if (!OccsByMember[M].empty())
      WorkOut.push_back({S.Rows[M], std::move(OccsByMember[M])});
}
