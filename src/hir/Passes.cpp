//===- hir/Passes.cpp - HGraph optimization passes -------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "hir/Passes.h"

#include "support/Compiler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <optional>
#include <unordered_map>

using namespace calibro;
using namespace calibro::hir;

std::optional<uint16_t> hir::defOf(const HInsn &I) {
  switch (I.Op) {
  case HOp::Const:
  case HOp::Move:
  case HOp::Add:
  case HOp::Sub:
  case HOp::Mul:
  case HOp::Div:
  case HOp::And:
  case HOp::Or:
  case HOp::Xor:
  case HOp::Shl:
  case HOp::Shr:
  case HOp::AddImm:
  case HOp::NewInstance:
  case HOp::IGet:
    return I.A;
  case HOp::InvokeStatic:
  case HOp::InvokeVirtual:
    if (I.A != dex::NoReg)
      return I.A;
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

namespace {

/// AArch64-consistent evaluation of a folded binary op. Returns nullopt when
/// folding must be suppressed (division by zero keeps its throwing check).
std::optional<int64_t> evalBinOp(HOp Op, int64_t L, int64_t R) {
  switch (Op) {
  case HOp::Add:
    return static_cast<int64_t>(static_cast<uint64_t>(L) +
                                static_cast<uint64_t>(R));
  case HOp::Sub:
    return static_cast<int64_t>(static_cast<uint64_t>(L) -
                                static_cast<uint64_t>(R));
  case HOp::Mul:
    return static_cast<int64_t>(static_cast<uint64_t>(L) *
                                static_cast<uint64_t>(R));
  case HOp::Div:
    if (R == 0)
      return std::nullopt; // The implicit check must stay.
    if (L == INT64_MIN && R == -1)
      return INT64_MIN; // AArch64 sdiv overflow result.
    return L / R;
  case HOp::And:
    return L & R;
  case HOp::Or:
    return L | R;
  case HOp::Xor:
    return L ^ R;
  case HOp::Shl:
    return static_cast<int64_t>(static_cast<uint64_t>(L) << (R & 63));
  case HOp::Shr:
    return L >> (R & 63); // Arithmetic, like lowered ASRV.
  default:
    CALIBRO_UNREACHABLE("not a binary op");
  }
}

/// Removes unreachable blocks, renumbers the survivors and rebuilds
/// predecessor lists. Returns the number of blocks removed.
std::size_t compactAndRemap(HGraph &G) {
  std::vector<bool> Reachable(G.Blocks.size(), false);
  std::vector<uint32_t> Work = {0};
  Reachable[0] = true;
  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    for (uint32_t S : G.Blocks[B].Succs)
      if (!Reachable[S]) {
        Reachable[S] = true;
        Work.push_back(S);
      }
  }

  std::vector<uint32_t> Remap(G.Blocks.size(), ~uint32_t(0));
  std::vector<HBlock> Kept;
  Kept.reserve(G.Blocks.size());
  for (uint32_t B = 0; B < G.Blocks.size(); ++B) {
    if (!Reachable[B])
      continue;
    Remap[B] = static_cast<uint32_t>(Kept.size());
    Kept.push_back(std::move(G.Blocks[B]));
  }
  std::size_t Removed = G.Blocks.size() - Kept.size();
  G.Blocks = std::move(Kept);

  for (uint32_t B = 0; B < G.Blocks.size(); ++B) {
    HBlock &BB = G.Blocks[B];
    BB.Id = B;
    for (uint32_t &S : BB.Succs)
      S = Remap[S];
    BB.Preds.clear();
  }
  for (const auto &BB : G.Blocks)
    for (uint32_t S : BB.Succs)
      G.Blocks[S].Preds.push_back(BB.Id);
  return Removed;
}

uint64_t regBit(uint16_t R) { return uint64_t(1) << R; }

/// Local CSE's expression table: open addressing with linear probing, keyed
/// by (op, vn1, vn2, imm), allocated once per method with room for twice
/// the instructions of its largest block, so it never fills past half. A
/// slot belongs to the current block only while its stamp equals the
/// block's generation, so starting the next block empties the table
/// without touching it.
class ExprTable {
public:
  struct Slot {
    uint32_t Gen = 0;
    uint32_t Vn1 = 0, Vn2 = 0;
    uint32_t RegVnAtDef = 0;
    int64_t Imm = 0;
    uint16_t Reg = 0;
    uint8_t Op = 0;
  };

  explicit ExprTable(std::size_t MaxBlockInsns)
      : Slots(std::bit_ceil(std::max<std::size_t>(2 * MaxBlockInsns, 16))) {}

  void nextBlock() { ++Gen; }

  /// The current block's slot for the key: live when the key was recorded
  /// in this block, otherwise the free slot where record() puts it.
  Slot &find(uint8_t Op, uint32_t Vn1, uint32_t Vn2, int64_t Imm) {
    std::size_t Mask = Slots.size() - 1;
    for (std::size_t I = hash(Op, Vn1, Vn2, Imm) & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Gen != Gen || (S.Op == Op && S.Vn1 == Vn1 && S.Vn2 == Vn2 &&
                           S.Imm == Imm))
        return S;
    }
  }

  bool live(const Slot &S) const { return S.Gen == Gen; }

  /// Makes \p Reg (value number \p Vn) the latest holder of \p S's key.
  void record(Slot &S, uint8_t Op, uint32_t Vn1, uint32_t Vn2, int64_t Imm,
              uint16_t Reg, uint32_t Vn) {
    S = {Gen, Vn1, Vn2, Vn, Imm, Reg, Op};
  }

private:
  static std::size_t hash(uint8_t Op, uint32_t Vn1, uint32_t Vn2,
                          int64_t Imm) {
    uint64_t H = (uint64_t(Vn1) << 32 | Vn2) ^
                 (static_cast<uint64_t>(Imm) * 0x9e3779b97f4a7c15ULL) ^ Op;
    H = (H ^ (H >> 33)) * 0xff51afd7ed558ccdULL; // MurmurHash3's fmix64.
    return static_cast<std::size_t>(H ^ (H >> 33));
  }

  std::vector<Slot> Slots;
  uint32_t Gen = 0;
};

} // namespace

std::size_t hir::runConstantFolding(HGraph &G) {
  assert(G.NumRegs <= MaxRegs && "register file too large for flat state");
  std::size_t Simplified = 0;
  // Known[r] is r's value while bit r of KnownMask is set. Arguments arrive
  // in v0..vNumArgs-1 of the entry block; they are not constants. Everything
  // else starts unknown too, so no seeding is needed.
  std::array<int64_t, MaxRegs> Known{};
  for (auto &B : G.Blocks) {
    uint64_t KnownMask = 0;
    auto isKnown = [&](uint16_t R) { return (KnownMask & regBit(R)) != 0; };
    auto setKnown = [&](uint16_t R, int64_t V) {
      Known[R] = V;
      KnownMask |= regBit(R);
    };
    auto forget = [&](uint16_t R) { KnownMask &= ~regBit(R); };
    for (auto &I : B.Insns) {
      switch (I.Op) {
      case HOp::Const:
        setKnown(I.A, I.Imm);
        continue;
      case HOp::Move:
      case HOp::AddImm:
        if (isKnown(I.B)) {
          int64_t Add = I.Op == HOp::AddImm ? I.Imm : 0;
          I.Op = HOp::Const;
          I.Imm = static_cast<int64_t>(static_cast<uint64_t>(Known[I.B]) +
                                       static_cast<uint64_t>(Add));
          I.B = 0;
          setKnown(I.A, I.Imm);
          ++Simplified;
        } else {
          forget(I.A);
        }
        continue;
      case HOp::Add:
      case HOp::Sub:
      case HOp::Mul:
      case HOp::Div:
      case HOp::And:
      case HOp::Or:
      case HOp::Xor:
      case HOp::Shl:
      case HOp::Shr:
        if (isKnown(I.B) && isKnown(I.C)) {
          if (auto Val = evalBinOp(I.Op, Known[I.B], Known[I.C])) {
            I.Op = HOp::Const;
            I.Imm = *Val;
            I.B = I.C = 0;
            setKnown(I.A, *Val);
            ++Simplified;
            continue;
          }
        }
        forget(I.A);
        continue;
      default:
        if (auto D = defOf(I))
          forget(*D);
        continue;
      }
    }
  }
  return Simplified;
}

std::size_t hir::runDeadCodeElim(HGraph &G) {
  assert(G.NumRegs <= MaxRegs && "register file too large for bitmasks");
  // Per-block liveness summary: Gen holds the registers read before any
  // write in the block, Kill the registers it writes, so
  // In = Gen | (Out & ~Kill).
  struct Liveness {
    uint64_t Gen = 0, Kill = 0, In = 0, Out = 0;
  };
  std::size_t NB = G.Blocks.size();
  std::vector<Liveness> L(NB);
  for (std::size_t B = 0; B < NB; ++B) {
    const auto &Insns = G.Blocks[B].Insns;
    for (auto It = Insns.rbegin(); It != Insns.rend(); ++It) {
      if (auto D = defOf(*It)) {
        L[B].Gen &= ~regBit(*D);
        L[B].Kill |= regBit(*D);
      }
      forEachUse(*It, [&](uint16_t U) { L[B].Gen |= regBit(U); });
    }
  }

  // Backward fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::size_t B = NB; B-- > 0;) {
      uint64_t Out = 0;
      for (uint32_t S : G.Blocks[B].Succs)
        Out |= L[S].In;
      uint64_t In = L[B].Gen | (Out & ~L[B].Kill);
      if (Out != L[B].Out || In != L[B].In) {
        L[B].Out = Out;
        L[B].In = In;
        Changed = true;
      }
    }
  }

  // Sweep: delete removable instructions with dead destinations. Survivors
  // are packed towards the end of the block during the backward walk, then
  // the dead prefix is erased.
  std::size_t Removed = 0;
  for (std::size_t B = 0; B < NB; ++B) {
    auto &Insns = G.Blocks[B].Insns;
    uint64_t Live = L[B].Out;
    std::size_t Keep = Insns.size();
    for (std::size_t K = Insns.size(); K-- > 0;) {
      const HInsn &I = Insns[K];
      auto D = defOf(I);
      if (D && isRemovableIfDead(I.Op) && (Live & regBit(*D)) == 0) {
        ++Removed;
        continue;
      }
      if (D)
        Live &= ~regBit(*D);
      forEachUse(I, [&](uint16_t U) { Live |= regBit(U); });
      if (--Keep != K)
        Insns[Keep] = I;
    }
    Insns.erase(Insns.begin(), Insns.begin() + Keep);
  }
  return Removed;
}

std::size_t hir::runCopyPropagation(HGraph &G) {
  assert(G.NumRegs <= MaxRegs && "register file too large for flat state");
  std::size_t Changed = 0;
  // CopyOf[r] is the register r currently mirrors while bit r of HasCopy is
  // set.
  std::array<uint16_t, MaxRegs> CopyOf{};
  for (auto &B : G.Blocks) {
    uint64_t HasCopy = 0;
    auto killReg = [&](uint16_t R) {
      HasCopy &= ~regBit(R);
      for (uint64_t M = HasCopy; M; M &= M - 1) {
        auto K = static_cast<uint16_t>(std::countr_zero(M));
        if (CopyOf[K] == R)
          HasCopy &= ~regBit(K);
      }
    };

    // Surviving instructions are compacted in place.
    std::size_t Keep = 0;
    for (HInsn &I : B.Insns) {
      forEachUse(I, [&](uint16_t &R) {
        if (HasCopy & regBit(R)) {
          R = CopyOf[R];
          ++Changed;
        }
      });
      if (I.Op == HOp::Move) {
        if (I.A == I.B) {
          ++Changed; // Self-assignment: drop it.
          continue;
        }
        killReg(I.A);
        CopyOf[I.A] = I.B;
        HasCopy |= regBit(I.A);
      } else if (auto D = defOf(I)) {
        killReg(*D);
      }
      B.Insns[Keep++] = I;
    }
    B.Insns.resize(Keep);
  }
  return Changed;
}

std::size_t hir::runLocalCse(HGraph &G) {
  assert(G.NumRegs <= MaxRegs && "register file too large for flat state");
  std::size_t Eliminated = 0;
  // Classic local value numbering. A register's value number changes on
  // every definition, so stale expression entries self-invalidate.
  std::array<uint32_t, MaxRegs> RegVn;
  std::size_t MaxBlockInsns = 0;
  for (const auto &B : G.Blocks)
    MaxBlockInsns = std::max(MaxBlockInsns, B.Insns.size());
  ExprTable Exprs(MaxBlockInsns);
  for (auto &B : G.Blocks) {
    for (uint16_t R = 0; R < G.NumRegs; ++R)
      RegVn[R] = R; // Initial distinct value numbers.
    uint32_t NextVn = G.NumRegs;
    Exprs.nextBlock();

    for (HInsn &I : B.Insns) {
      uint32_t Vn1 = 0, Vn2 = 0;
      int64_t Imm = 0;
      switch (I.Op) {
      case HOp::Const:
        Imm = I.Imm;
        break;
      case HOp::AddImm:
        Vn1 = RegVn[I.B];
        Imm = I.Imm;
        break;
      case HOp::Add:
      case HOp::Sub:
      case HOp::Mul:
      case HOp::Div:
      case HOp::And:
      case HOp::Or:
      case HOp::Xor:
      case HOp::Shl:
      case HOp::Shr:
        Vn1 = RegVn[I.B];
        Vn2 = RegVn[I.C];
        break;
      case HOp::Move:
        RegVn[I.A] = RegVn[I.B]; // Copies share a value number.
        continue;
      default:
        if (auto D = defOf(I))
          RegVn[*D] = NextVn++;
        continue;
      }

      // A pure expression.
      auto Op = static_cast<uint8_t>(I.Op);
      ExprTable::Slot &S = Exprs.find(Op, Vn1, Vn2, Imm);
      if (Exprs.live(S) && RegVn[S.Reg] == S.RegVnAtDef && S.Reg != I.A) {
        // Same value is live in another register: reuse it.
        uint16_t Holder = S.Reg;
        I.Op = HOp::Move;
        I.B = Holder;
        I.C = 0;
        I.Imm = 0;
        ++Eliminated;
        // The destination now shares the holder's value number.
        RegVn[I.A] = RegVn[Holder];
        continue;
      }
      RegVn[I.A] = NextVn++;
      Exprs.record(S, Op, Vn1, Vn2, Imm, I.A, RegVn[I.A]);
    }
  }
  return Eliminated;
}

std::size_t hir::runBlockMerge(HGraph &G) {
  // Merge Goto-connected pairs until a fixpoint, then compact.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto &B : G.Blocks) {
      if (B.Insns.empty())
        continue; // Already merged away.
      if (B.Insns.back().Op != HOp::Goto)
        continue;
      uint32_t S = B.Succs[0];
      if (S == B.Id)
        continue;
      HBlock &SB = G.Blocks[S];
      if (SB.Preds.size() != 1 || SB.Insns.empty() || S == 0)
        continue;
      // Splice SB into B.
      B.Insns.pop_back();
      B.Insns.insert(B.Insns.end(), SB.Insns.begin(), SB.Insns.end());
      B.Succs = SB.Succs;
      for (uint32_t SS : B.Succs) {
        for (uint32_t &P : G.Blocks[SS].Preds)
          if (P == S)
            P = B.Id;
      }
      SB.Insns.clear();
      SB.Succs.clear();
      SB.Preds.clear();
      Changed = true;
    }
  }
  // Emptied blocks are unreachable now (no edges lead to them).
  return compactAndRemap(G);
}

std::size_t hir::runReturnMerge(HGraph &G) {
  // Group single-instruction return blocks by (kind, register).
  std::unordered_map<uint32_t, uint32_t> Canonical; // Key -> block id.
  auto keyOf = [](const HInsn &I) {
    return (I.Op == HOp::ReturnVoid ? 0x10000u : 0u) | I.A;
  };
  bool Redirected = false;
  for (auto &B : G.Blocks) {
    if (B.Insns.size() != 1)
      continue;
    const HInsn &I = B.Insns[0];
    if (I.Op != HOp::Return && I.Op != HOp::ReturnVoid)
      continue;
    auto [It, Inserted] = Canonical.emplace(keyOf(I), B.Id);
    if (Inserted || It->second == B.Id)
      continue;
    // Redirect every predecessor edge to the canonical block.
    for (uint32_t P : B.Preds)
      for (uint32_t &S : G.Blocks[P].Succs)
        if (S == B.Id)
          S = It->second;
    Redirected = true;
  }
  if (!Redirected)
    return 0;
  // Rebuild preds, then drop the now-unreachable duplicates.
  for (auto &B : G.Blocks)
    B.Preds.clear();
  for (const auto &B : G.Blocks)
    for (uint32_t S : B.Succs)
      G.Blocks[S].Preds.push_back(B.Id);
  return compactAndRemap(G);
}

std::vector<Pass> hir::defaultPipeline() {
  return {
      {"constant-folding", runConstantFolding},
      {"local-cse", runLocalCse},
      {"copy-propagation", runCopyPropagation},
      {"dead-code-elim", runDeadCodeElim},
      {"block-merge", runBlockMerge},
      {"return-merge", runReturnMerge},
  };
}

std::vector<PassStats> hir::runPipeline(HGraph &G,
                                        const std::vector<Pass> &Pipeline) {
  std::vector<PassStats> Stats;
  Stats.reserve(Pipeline.size());
  for (const auto &P : Pipeline) {
    PassStats S;
    S.Name = P.Name;
    S.Simplified = P.Run(G);
    Stats.push_back(std::move(S));
#ifndef NDEBUG
    if (auto E = verifyHGraph(G)) {
      std::fprintf(stderr, "pass '%s' broke '%s': %s\n", P.Name.c_str(),
                   G.Name.c_str(), E.message().c_str());
      std::abort();
    }
#endif
  }
  return Stats;
}
