//===- tests/HirPassOracle.h - Reference HIR passes for testing -*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Straightforward, allocation-heavy reference implementations of the four
/// register-tracking HGraph passes: per-block hash maps for constant
/// folding, per-block vectors for copy propagation, a per-block std::map
/// value-numbering table for local CSE, and vector-collected uses for dead
/// code elimination. The library's passes run on flat register-indexed
/// scratch instead; test_hir runs both side by side and requires identical
/// graphs and identical returned counts.
///
/// The oracle keeps its own enumeration of register uses so that it also
/// cross-checks hir::forEachUse.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_TESTS_HIRPASSORACLE_H
#define CALIBRO_TESTS_HIRPASSORACLE_H

#include "hir/HGraph.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace calibro {
namespace hir {
namespace oracle {

/// Applies \p Fn to every register-use field of \p I (mutable).
template <typename FnT> void forEachUseReg(HInsn &I, FnT &&Fn) {
  switch (I.Op) {
  case HOp::Const:
  case HOp::Goto:
  case HOp::ReturnVoid:
  case HOp::NewInstance:
    return;
  case HOp::Move:
  case HOp::AddImm:
    Fn(I.B);
    return;
  case HOp::Add:
  case HOp::Sub:
  case HOp::Mul:
  case HOp::Div:
  case HOp::And:
  case HOp::Or:
  case HOp::Xor:
  case HOp::Shl:
  case HOp::Shr:
    Fn(I.B);
    Fn(I.C);
    return;
  case HOp::If:
    Fn(I.A);
    if (I.B != dex::NoReg)
      Fn(I.B);
    return;
  case HOp::Switch:
  case HOp::Return:
  case HOp::Throw:
    Fn(I.A);
    return;
  case HOp::InvokeStatic:
  case HOp::InvokeVirtual:
    for (uint8_t K = 0; K < I.NumArgs; ++K)
      Fn(I.Args[K]);
    return;
  case HOp::IGet:
    Fn(I.B);
    return;
  case HOp::IPut:
    Fn(I.A);
    Fn(I.B);
    return;
  }
  std::abort();
}

/// Appends the virtual registers read by \p I to \p Uses.
inline void usesOf(const HInsn &I, std::vector<uint16_t> &Uses) {
  HInsn Copy = I;
  forEachUseReg(Copy, [&](uint16_t &R) { Uses.push_back(R); });
}

/// AArch64-consistent evaluation of a folded binary op. Returns nullopt when
/// folding must be suppressed (division by zero keeps its throwing check).
inline std::optional<int64_t> evalBinOp(HOp Op, int64_t L, int64_t R) {
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
    std::abort();
  }
}

inline std::size_t runConstantFolding(HGraph &G) {
  assert(G.NumRegs <= 64 && "register file too large for bitmask liveness");
  std::size_t Simplified = 0;
  for (auto &B : G.Blocks) {
    std::unordered_map<uint16_t, int64_t> Known;
    // Arguments arrive in v0..vNumArgs-1 of the entry block; they are not
    // constants. Everything else starts unknown too, so no seeding needed.
    for (auto &I : B.Insns) {
      switch (I.Op) {
      case HOp::Const:
        Known[I.A] = I.Imm;
        continue;
      case HOp::Move: {
        auto It = Known.find(I.B);
        if (It != Known.end()) {
          I.Op = HOp::Const;
          I.Imm = It->second;
          I.B = 0;
          Known[I.A] = I.Imm;
          ++Simplified;
        } else {
          Known.erase(I.A);
        }
        continue;
      }
      case HOp::AddImm: {
        auto It = Known.find(I.B);
        if (It != Known.end()) {
          I.Op = HOp::Const;
          I.Imm = static_cast<int64_t>(static_cast<uint64_t>(It->second) +
                                       static_cast<uint64_t>(I.Imm));
          I.B = 0;
          Known[I.A] = I.Imm;
          ++Simplified;
        } else {
          Known.erase(I.A);
        }
        continue;
      }
      case HOp::Add:
      case HOp::Sub:
      case HOp::Mul:
      case HOp::Div:
      case HOp::And:
      case HOp::Or:
      case HOp::Xor:
      case HOp::Shl:
      case HOp::Shr: {
        auto ItB = Known.find(I.B);
        auto ItC = Known.find(I.C);
        if (ItB != Known.end() && ItC != Known.end()) {
          if (auto Val = evalBinOp(I.Op, ItB->second, ItC->second)) {
            I.Op = HOp::Const;
            I.Imm = *Val;
            I.B = I.C = 0;
            Known[I.A] = *Val;
            ++Simplified;
            continue;
          }
        }
        Known.erase(I.A);
        continue;
      }
      default:
        if (auto D = defOf(I))
          Known.erase(*D);
        continue;
      }
    }
  }
  return Simplified;
}

inline std::size_t runDeadCodeElim(HGraph &G) {
  assert(G.NumRegs <= 64 && "register file too large for bitmask liveness");
  std::size_t NB = G.Blocks.size();
  std::vector<uint64_t> LiveIn(NB, 0), LiveOut(NB, 0);

  auto transfer = [&](const HBlock &B, uint64_t Live) {
    std::vector<uint16_t> Uses;
    for (auto It = B.Insns.rbegin(); It != B.Insns.rend(); ++It) {
      if (auto D = defOf(*It))
        Live &= ~(uint64_t(1) << *D);
      Uses.clear();
      usesOf(*It, Uses);
      for (uint16_t U : Uses)
        Live |= uint64_t(1) << U;
    }
    return Live;
  };

  // Backward fixpoint.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::size_t B = NB; B-- > 0;) {
      uint64_t Out = 0;
      for (uint32_t S : G.Blocks[B].Succs)
        Out |= LiveIn[S];
      uint64_t In = transfer(G.Blocks[B], Out);
      if (Out != LiveOut[B] || In != LiveIn[B]) {
        LiveOut[B] = Out;
        LiveIn[B] = In;
        Changed = true;
      }
    }
  }

  // Sweep: delete removable instructions with dead destinations.
  std::size_t Removed = 0;
  std::vector<uint16_t> Uses;
  for (std::size_t B = 0; B < NB; ++B) {
    HBlock &BB = G.Blocks[B];
    uint64_t Live = LiveOut[B];
    std::vector<HInsn> Kept;
    Kept.reserve(BB.Insns.size());
    for (auto It = BB.Insns.rbegin(); It != BB.Insns.rend(); ++It) {
      auto D = defOf(*It);
      bool Dead = D && isRemovableIfDead(It->Op) &&
                  (Live & (uint64_t(1) << *D)) == 0;
      if (Dead) {
        ++Removed;
        continue;
      }
      if (D)
        Live &= ~(uint64_t(1) << *D);
      Uses.clear();
      usesOf(*It, Uses);
      for (uint16_t U : Uses)
        Live |= uint64_t(1) << U;
      Kept.push_back(*It);
    }
    std::reverse(Kept.begin(), Kept.end());
    BB.Insns = std::move(Kept);
  }
  return Removed;
}

inline std::size_t runCopyPropagation(HGraph &G) {
  std::size_t Changed = 0;
  for (auto &B : G.Blocks) {
    // CopyOf[r] = the register r currently mirrors; NoReg = none.
    std::vector<uint16_t> CopyOf(G.NumRegs, dex::NoReg);
    auto resolve = [&](uint16_t R) {
      return CopyOf[R] != dex::NoReg ? CopyOf[R] : R;
    };
    auto killReg = [&](uint16_t R) {
      CopyOf[R] = dex::NoReg;
      for (auto &C : CopyOf)
        if (C == R)
          C = dex::NoReg;
    };

    std::vector<HInsn> Kept;
    Kept.reserve(B.Insns.size());
    for (HInsn &I : B.Insns) {
      forEachUseReg(I, [&](uint16_t &R) {
        uint16_t Src = resolve(R);
        if (Src != R) {
          R = Src;
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
      } else if (auto D = defOf(I)) {
        killReg(*D);
      }
      Kept.push_back(I);
    }
    B.Insns = std::move(Kept);
  }
  return Changed;
}

inline std::size_t runLocalCse(HGraph &G) {
  std::size_t Eliminated = 0;
  for (auto &B : G.Blocks) {
    // Classic local value numbering. A register's value number changes on
    // every definition, so stale expression entries self-invalidate.
    std::vector<uint32_t> RegVn(G.NumRegs, 0);
    uint32_t NextVn = G.NumRegs;
    struct Available {
      uint16_t Reg;
      uint32_t RegVnAtDef;
    };
    std::map<std::tuple<uint8_t, uint32_t, uint32_t, int64_t>, Available>
        Exprs;
    for (uint16_t R = 0; R < G.NumRegs; ++R)
      RegVn[R] = R; // Initial distinct value numbers.

    for (HInsn &I : B.Insns) {
      bool Pure = false;
      std::tuple<uint8_t, uint32_t, uint32_t, int64_t> Key;
      switch (I.Op) {
      case HOp::Const:
        Pure = true;
        Key = {static_cast<uint8_t>(I.Op), 0, 0, I.Imm};
        break;
      case HOp::AddImm:
        Pure = true;
        Key = {static_cast<uint8_t>(I.Op), RegVn[I.B], 0, I.Imm};
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
        Pure = true;
        Key = {static_cast<uint8_t>(I.Op), RegVn[I.B], RegVn[I.C], 0};
        break;
      default:
        break;
      }

      if (Pure) {
        auto It = Exprs.find(Key);
        if (It != Exprs.end() &&
            RegVn[It->second.Reg] == It->second.RegVnAtDef &&
            It->second.Reg != I.A) {
          // Same value is live in another register: reuse it.
          uint16_t Holder = It->second.Reg;
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
        Exprs[Key] = {I.A, RegVn[I.A]};
        continue;
      }
      if (I.Op == HOp::Move) {
        RegVn[I.A] = RegVn[I.B]; // Copies share a value number.
        continue;
      }
      if (auto D = defOf(I))
        RegVn[*D] = NextVn++;
    }
  }
  return Eliminated;
}

} // namespace oracle
} // namespace hir
} // namespace calibro

#endif // CALIBRO_TESTS_HIRPASSORACLE_H
