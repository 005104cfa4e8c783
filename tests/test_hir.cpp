//===- tests/test_hir.cpp - HGraph construction and pass tests --------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "HirPassOracle.h"

#include "hir/HGraph.h"
#include "hir/Passes.h"
#include "verify/Differential.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <string>

using namespace calibro;
using namespace calibro::hir;

namespace {

dex::Insn makeConst(uint16_t A, int64_t Imm) {
  dex::Insn I;
  I.Opcode = dex::Op::ConstInt;
  I.A = A;
  I.Imm = Imm;
  return I;
}

dex::Insn makeBin(dex::Op Op, uint16_t A, uint16_t B, uint16_t C) {
  dex::Insn I;
  I.Opcode = Op;
  I.A = A;
  I.B = B;
  I.C = C;
  return I;
}

dex::Insn makeRet(uint16_t A) {
  dex::Insn I;
  I.Opcode = dex::Op::Return;
  I.A = A;
  return I;
}

dex::Method straightLine() {
  dex::Method M;
  M.Name = "straight";
  M.NumRegs = 8;
  M.NumArgs = 0;
  M.ReturnsValue = true;
  M.Code = {makeConst(1, 10), makeConst(2, 20),
            makeBin(dex::Op::Add, 3, 1, 2), makeRet(3)};
  return M;
}

TEST(HGraphBuild, StraightLineIsOneBlock) {
  auto G = buildHGraph(straightLine());
  ASSERT_TRUE(bool(G)) << G.message();
  EXPECT_EQ(G->Blocks.size(), 1u);
  EXPECT_EQ(G->Blocks[0].Insns.size(), 4u);
  EXPECT_EQ(G->Blocks[0].Insns.back().Op, HOp::Return);
}

TEST(HGraphBuild, DiamondControlFlow) {
  // if (v0 == 0) v1 = 1 else v1 = 2; return v1
  dex::Method M;
  M.Name = "diamond";
  M.NumRegs = 4;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn If;
  If.Opcode = dex::Op::IfEqz;
  If.A = 0;
  If.Target = 3;
  dex::Insn Go;
  Go.Opcode = dex::Op::Goto;
  Go.Target = 4;
  M.Code = {If, makeConst(1, 2), Go, makeConst(1, 1), makeRet(1)};
  // Layout: 0:if 1:const2 2:goto 3:const1 4:ret

  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  EXPECT_EQ(G->Blocks.size(), 4u);
  // Entry ends with If: two successors, taken first.
  const HBlock &Entry = G->Blocks[0];
  ASSERT_EQ(Entry.Succs.size(), 2u);
  EXPECT_EQ(Entry.Insns.back().Op, HOp::If);
  // Both arms converge on the return block.
  uint32_t Taken = Entry.Succs[0], Fall = Entry.Succs[1];
  EXPECT_NE(Taken, Fall);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

TEST(HGraphBuild, LoopBackEdge) {
  // v1 = 3; do { v1 += -1 } while (v1 != 0); return v1
  dex::Method M;
  M.Name = "loop";
  M.NumRegs = 4;
  M.ReturnsValue = true;
  dex::Insn Dec;
  Dec.Opcode = dex::Op::AddImm;
  Dec.A = 1;
  Dec.B = 1;
  Dec.Imm = -1;
  dex::Insn Back;
  Back.Opcode = dex::Op::IfNez;
  Back.A = 1;
  Back.Target = 1;
  M.Code = {makeConst(1, 3), Dec, Back, makeRet(1)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  // Loop block branches back to itself.
  bool HasBackEdge = false;
  for (const auto &B : G->Blocks)
    for (uint32_t S : B.Succs)
      if (S <= B.Id)
        HasBackEdge = true;
  EXPECT_TRUE(HasBackEdge);
}

TEST(HGraphBuild, FallthroughGetsExplicitGoto) {
  // Block boundary created by a branch TARGET mid-stream, without a
  // terminator before it: builder must add a Goto.
  dex::Method M;
  M.Name = "fall";
  M.NumRegs = 4;
  M.ReturnsValue = true;
  dex::Insn If;
  If.Opcode = dex::Op::IfEqz;
  If.A = 1;
  If.Target = 2; // Jumps to the middle const.
  M.Code = {makeConst(1, 0), If, makeConst(2, 5), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  EXPECT_FALSE(bool(verifyHGraph(*G)));
  for (const auto &B : G->Blocks)
    EXPECT_TRUE(isBlockTerminator(B.Insns.back().Op));
}

TEST(HGraphBuild, RejectsNative) {
  dex::Method M;
  M.IsNative = true;
  auto G = buildHGraph(M);
  EXPECT_FALSE(bool(G));
  consumeError(G.takeError());
}

TEST(ConstantFolding, FoldsChains) {
  auto G = buildHGraph(straightLine());
  ASSERT_TRUE(bool(G));
  std::size_t N = runConstantFolding(*G);
  EXPECT_GE(N, 1u);
  // add v3, v1, v2 became const v3, 30.
  const HInsn &Folded = G->Blocks[0].Insns[2];
  EXPECT_EQ(Folded.Op, HOp::Const);
  EXPECT_EQ(Folded.Imm, 30);
}

TEST(ConstantFolding, DoesNotFoldDivByZero) {
  dex::Method M;
  M.Name = "div0";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  M.Code = {makeConst(1, 10), makeConst(2, 0),
            makeBin(dex::Op::Div, 3, 1, 2), makeRet(3)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  runConstantFolding(*G);
  EXPECT_EQ(G->Blocks[0].Insns[2].Op, HOp::Div)
      << "division by a zero constant must keep its throwing check";
}

TEST(ConstantFolding, SdivOverflowSemantics) {
  dex::Method M;
  M.Name = "ovf";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  M.Code = {makeConst(1, INT64_MIN), makeConst(2, -1),
            makeBin(dex::Op::Div, 3, 1, 2), makeRet(3)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  runConstantFolding(*G);
  const HInsn &Folded = G->Blocks[0].Insns[2];
  ASSERT_EQ(Folded.Op, HOp::Const);
  EXPECT_EQ(Folded.Imm, INT64_MIN) << "must match AArch64 sdiv overflow";
}

TEST(DeadCodeElim, RemovesDeadKeepsLive) {
  dex::Method M;
  M.Name = "dce";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  M.Code = {makeConst(1, 1), makeConst(2, 2) /* dead */, makeRet(1)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  std::size_t N = runDeadCodeElim(*G);
  EXPECT_EQ(N, 1u);
  EXPECT_EQ(G->Blocks[0].Insns.size(), 2u);
}

TEST(DeadCodeElim, KeepsDivForItsCheck) {
  dex::Method M;
  M.Name = "divkeep";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Div, 3, 0, 1) /* dest dead, check live */,
            makeConst(2, 7), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  runDeadCodeElim(*G);
  bool DivKept = false;
  for (const auto &I : G->Blocks[0].Insns)
    DivKept |= I.Op == HOp::Div;
  EXPECT_TRUE(DivKept);
}

TEST(DeadCodeElim, LivenessAcrossBlocks) {
  // v2 defined in entry, used only after a branch: must survive.
  dex::Method M;
  M.Name = "cross";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn If;
  If.Opcode = dex::Op::IfEqz;
  If.A = 0;
  If.Target = 3;
  M.Code = {makeConst(2, 9), If, makeRet(0), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runDeadCodeElim(*G), 0u);
}

TEST(BlockMerge, MergesLinearChains) {
  // if splits then both arms goto a chain of blocks.
  dex::Method M;
  M.Name = "merge";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  dex::Insn Go1;
  Go1.Opcode = dex::Op::Goto;
  Go1.Target = 1;
  dex::Insn Go2;
  Go2.Opcode = dex::Op::Goto;
  Go2.Target = 2;
  M.Code = {Go1, Go2, makeConst(1, 4), makeRet(1)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  std::size_t Before = G->Blocks.size();
  std::size_t Removed = runBlockMerge(*G);
  EXPECT_GT(Removed, 0u);
  EXPECT_LT(G->Blocks.size(), Before);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

TEST(BlockMerge, RemovesUnreachable) {
  dex::Method M;
  M.Name = "unreach";
  M.NumRegs = 8;
  M.ReturnsValue = true;
  dex::Insn Go;
  Go.Opcode = dex::Op::Goto;
  Go.Target = 3;
  M.Code = {makeConst(1, 1), Go, makeRet(1) /* unreachable */, makeRet(1)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  runBlockMerge(*G);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
  // The unreachable return block is gone; graph still returns.
  std::size_t Returns = 0;
  for (const auto &B : G->Blocks)
    for (const auto &I : B.Insns)
      if (I.Op == HOp::Return)
        ++Returns;
  EXPECT_EQ(Returns, 1u);
}

TEST(ReturnMerge, DeduplicatesIdenticalReturns) {
  dex::Method M;
  M.Name = "retmerge";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn If;
  If.Opcode = dex::Op::IfEqz;
  If.A = 0;
  If.Target = 2;
  // Three structurally identical `return v0` blocks.
  M.Code = {If, makeRet(0), makeRet(0), makeRet(0)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  std::size_t Blocks = G->Blocks.size();
  std::size_t Removed = runReturnMerge(*G);
  EXPECT_GT(Removed, 0u);
  EXPECT_LT(G->Blocks.size(), Blocks);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

TEST(CopyPropagation, RewritesUsesAndDropsSelfMoves) {
  // v1 = v0; v2 = v1 + v1; return v2  -->  v2 = v0 + v0.
  dex::Method M;
  M.Name = "copyprop";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn Mv;
  Mv.Opcode = dex::Op::Move;
  Mv.A = 1;
  Mv.B = 0;
  M.Code = {Mv, makeBin(dex::Op::Add, 2, 1, 1), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  std::size_t N = runCopyPropagation(*G);
  EXPECT_GE(N, 2u);
  const HInsn &Add = G->Blocks[0].Insns[1];
  EXPECT_EQ(Add.B, 0);
  EXPECT_EQ(Add.C, 0);
  // The move is now dead; DCE finishes the job.
  EXPECT_EQ(runDeadCodeElim(*G), 1u);
}

TEST(CopyPropagation, StopsAtRedefinition) {
  // v1 = v0; v0 = 5; v2 = v1  --  v1 still holds the OLD v0; the use of v1
  // must NOT be rewritten to v0.
  dex::Method M;
  M.Name = "copykill";
  M.NumRegs = 8;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn Mv;
  Mv.Opcode = dex::Op::Move;
  Mv.A = 1;
  Mv.B = 0;
  dex::Insn Mv2;
  Mv2.Opcode = dex::Op::Move;
  Mv2.A = 2;
  Mv2.B = 1;
  M.Code = {Mv, makeConst(0, 5), Mv2, makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  runCopyPropagation(*G);
  const HInsn &Second = G->Blocks[0].Insns[2];
  EXPECT_EQ(Second.Op, HOp::Move);
  EXPECT_EQ(Second.B, 1) << "copy through a clobbered source is illegal";
}

TEST(LocalCse, ReusesPureExpressions) {
  // v2 = v0 + v1; v3 = v0 + v1  -->  v3 = move v2.
  dex::Method M;
  M.Name = "cse";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Add, 2, 0, 1), makeBin(dex::Op::Add, 3, 0, 1),
            makeBin(dex::Op::Xor, 2, 2, 3), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 1u);
  EXPECT_EQ(G->Blocks[0].Insns[1].Op, HOp::Move);
  EXPECT_EQ(G->Blocks[0].Insns[1].B, 2);
}

TEST(LocalCse, InvalidatedByOperandRedefinition) {
  // v2 = v0 + v1; v0 = 7; v3 = v0 + v1  --  NOT a common subexpression.
  dex::Method M;
  M.Name = "csekill";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Add, 2, 0, 1), makeConst(0, 7),
            makeBin(dex::Op::Add, 3, 0, 1), makeRet(3)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 0u);
  EXPECT_EQ(G->Blocks[0].Insns[2].Op, HOp::Add);
}

TEST(LocalCse, HolderClobberInvalidates) {
  // v2 = v0 + v1; v2 = 9; v3 = v0 + v1  --  the holder v2 was clobbered,
  // so the second add cannot become a move from it.
  dex::Method M;
  M.Name = "cseholder";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Add, 2, 0, 1), makeConst(2, 9),
            makeBin(dex::Op::Add, 3, 0, 1), makeRet(3)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 0u);
}

TEST(LocalCse, DivisionIsEligible) {
  // Two identical divisions: if the first did not throw, neither can the
  // second, so reusing the quotient is sound.
  dex::Method M;
  M.Name = "csediv";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Div, 2, 0, 1), makeBin(dex::Op::Div, 3, 0, 1),
            makeBin(dex::Op::Add, 2, 2, 3), makeRet(2)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 1u);
}

TEST(HGraphVerify, RejectsRegisterFileOver64) {
  auto G = buildHGraph(straightLine());
  ASSERT_TRUE(bool(G));
  G->NumRegs = 65;
  Error E = verifyHGraph(*G);
  ASSERT_TRUE(bool(E));
  EXPECT_NE(E.message().find("larger than 64"), std::string::npos)
      << E.message();
}

TEST(HGraphVerify, RejectsOperandOutsideRegisterFile) {
  // straightLine has 8 registers; v8 is one past the end, as a use and as a
  // definition.
  for (bool AsDef : {false, true}) {
    auto G = buildHGraph(straightLine());
    ASSERT_TRUE(bool(G));
    HInsn &Add = G->Blocks[0].Insns[2];
    ASSERT_EQ(Add.Op, HOp::Add);
    (AsDef ? Add.A : Add.C) = 8;
    Error E = verifyHGraph(*G);
    ASSERT_TRUE(bool(E)) << (AsDef ? "def" : "use");
    EXPECT_NE(E.message().find("outside the register file"),
              std::string::npos)
        << E.message();
  }
}

TEST(HGraphVerify, AllowsNoRegWhereIfAndInvokeUseIt) {
  // if-eqz has no second operand and a void invoke no result register:
  // both carry dex::NoReg and must verify.
  dex::Method M;
  M.Name = "noreg";
  M.NumRegs = 4;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  dex::Insn Call;
  Call.Opcode = dex::Op::InvokeStatic;
  Call.A = dex::NoReg;
  Call.Args[0] = 0;
  Call.NumArgs = 1;
  dex::Insn If;
  If.Opcode = dex::Op::IfEqz;
  If.A = 0;
  If.Target = 3;
  M.Code = {Call, If, makeRet(0), makeRet(0)};
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  EXPECT_EQ(G->Blocks[0].Insns[0].A, dex::NoReg);
  EXPECT_EQ(G->Blocks[0].Insns[1].B, dex::NoReg);
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

// Differential oracle: the flat-scratch passes against the map-based
// reference passes of HirPassOracle.h, pass by pass.

::testing::AssertionResult sameGraph(const HGraph &X, const HGraph &Y) {
  auto Fail = [&](uint32_t B, const std::string &What) {
    return ::testing::AssertionFailure()
           << "'" << X.Name << "' block " << B << ": " << What;
  };
  if (X.MethodIdx != Y.MethodIdx || X.Name != Y.Name ||
      X.NumRegs != Y.NumRegs || X.NumArgs != Y.NumArgs ||
      X.ReturnsValue != Y.ReturnsValue)
    return Fail(0, "method facts differ");
  if (X.Blocks.size() != Y.Blocks.size())
    return Fail(0, "block counts differ");
  for (std::size_t B = 0; B < X.Blocks.size(); ++B) {
    const HBlock &P = X.Blocks[B], &Q = Y.Blocks[B];
    if (P.Id != Q.Id || P.Succs != Q.Succs || P.Preds != Q.Preds)
      return Fail(P.Id, "ids or edges differ");
    if (P.Insns.size() != Q.Insns.size())
      return Fail(P.Id, "instruction counts differ");
    for (std::size_t K = 0; K < P.Insns.size(); ++K) {
      const HInsn &I = P.Insns[K], &J = Q.Insns[K];
      if (I.Op != J.Op || I.A != J.A || I.B != J.B || I.C != J.C ||
          I.Imm != J.Imm || I.Idx != J.Idx || I.CC != J.CC ||
          I.Args != J.Args || I.NumArgs != J.NumArgs || I.DexPc != J.DexPc)
        return Fail(P.Id, "instruction " + std::to_string(K) + " differs");
    }
  }
  return ::testing::AssertionSuccess();
}

struct PassPair {
  const char *Name; ///< As in defaultPipeline().
  std::size_t (*Flat)(HGraph &);
  std::size_t (*Oracle)(HGraph &);
};

constexpr PassPair PassPairs[] = {
    {"constant-folding", runConstantFolding, oracle::runConstantFolding},
    {"local-cse", runLocalCse, oracle::runLocalCse},
    {"copy-propagation", runCopyPropagation, oracle::runCopyPropagation},
    {"dead-code-elim", runDeadCodeElim, oracle::runDeadCodeElim},
};

/// Runs \p P and its oracle on copies of \p G: the graphs and the returned
/// counts must match. On success \p G holds the result and \p Count the
/// count.
::testing::AssertionResult diffPass(const PassPair &P, HGraph &G,
                                    std::size_t &Count) {
  HGraph Ref = G;
  Count = P.Flat(G);
  std::size_t RefCount = P.Oracle(Ref);
  if (Count != RefCount)
    return ::testing::AssertionFailure()
           << P.Name << " on '" << G.Name << "' returned " << Count
           << ", oracle " << RefCount;
  auto Same = sameGraph(G, Ref);
  if (!Same)
    return Same << " after " << P.Name;
  return ::testing::AssertionSuccess();
}

/// Per-pass totals over a corpus, so the comparison is not vacuous.
struct DiffTotals {
  std::size_t Methods = 0;
  std::size_t Counts[4] = {};
};

/// Compares every pass pair on \p G twice: each pass alone on the freshly
/// built graph, and each pass at its place in the default pipeline (both
/// sides starting from the same partly-optimized graph).
::testing::AssertionResult diffMethod(const HGraph &G, DiffTotals &T) {
  ++T.Methods;
  std::size_t Count = 0;
  for (const PassPair &P : PassPairs) {
    HGraph Fresh = G;
    if (auto R = diffPass(P, Fresh, Count); !R)
      return R << " (fresh graph)";
  }
  HGraph Chain = G;
  for (const Pass &Stage : defaultPipeline()) {
    const PassPair *P = nullptr;
    for (std::size_t K = 0; K < std::size(PassPairs); ++K)
      if (Stage.Name == PassPairs[K].Name)
        P = &PassPairs[K];
    if (!P) {
      Stage.Run(Chain);
      continue;
    }
    if (auto R = diffPass(*P, Chain, Count); !R)
      return R << " (pipeline)";
    T.Counts[P - PassPairs] += Count;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult diffApp(const dex::App &App, DiffTotals &T) {
  ::testing::AssertionResult Result = ::testing::AssertionSuccess();
  App.forEachMethod([&](const dex::Method &M) {
    if (M.IsNative || !Result)
      return;
    auto G = buildHGraph(M);
    if (!G) {
      Result = ::testing::AssertionFailure() << G.message();
      return;
    }
    Result = diffMethod(*G, T);
  });
  return Result;
}

void expectEveryPassFired(const DiffTotals &T) {
  EXPECT_GT(T.Methods, 0u);
  for (std::size_t K = 0; K < std::size(PassPairs); ++K)
    EXPECT_GT(T.Counts[K], 0u) << PassPairs[K].Name << " never fired";
}

TEST(HirPassOracle, MatchesOnEveryPresetAtScale03) {
  DiffTotals T;
  for (const auto &Spec : workload::paperApps(0.3))
    ASSERT_TRUE(diffApp(workload::makeApp(Spec), T)) << Spec.Name;
  expectEveryPassFired(T);
}

TEST(HirPassOracle, MatchesOnRandomApps) {
  DiffTotals T;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed)
    ASSERT_TRUE(diffApp(workload::makeApp(verify::randomAppSpec(Seed)), T))
        << "seed " << Seed;
  expectEveryPassFired(T);
}

dex::Insn makeAddImm(uint16_t A, uint16_t B, int64_t Imm) {
  dex::Insn I;
  I.Opcode = dex::Op::AddImm;
  I.A = A;
  I.B = B;
  I.Imm = Imm;
  return I;
}

dex::Insn makeMove(uint16_t A, uint16_t B) {
  dex::Insn I;
  I.Opcode = dex::Op::Move;
  I.A = A;
  I.B = B;
  return I;
}

/// Builds \p M and diffs every pass pair on it.
void diffEdgeCase(const dex::Method &M) {
  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G)) << G.message();
  DiffTotals T;
  EXPECT_TRUE(diffMethod(*G, T));
}

TEST(HirPassOracle, SixtyFourRegistersUsingV63) {
  // v63 is the last slot of every flat array and the top bit of every mask.
  dex::Method M;
  M.Name = "v63";
  M.NumRegs = 64;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  M.Code = {makeConst(63, 7),
            makeBin(dex::Op::Add, 62, 0, 63),
            makeBin(dex::Op::Add, 61, 0, 63), // CSE: move v61, v62.
            makeMove(60, 63),                 // Dead copy of v63.
            makeConst(59, 1),                 // Dead.
            makeBin(dex::Op::Xor, 63, 61, 62),
            makeRet(63)};
  diffEdgeCase(M);

  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 1u);
  EXPECT_EQ(G->Blocks[0].Insns[2].Op, HOp::Move);
  EXPECT_EQ(G->Blocks[0].Insns[2].B, 62);
  EXPECT_EQ(runCopyPropagation(*G), 1u); // xor v63, v62, v62.
  EXPECT_EQ(G->Blocks[0].Insns[5].B, 62);
  // Dead: the copy into v61, the move into v60 and the const into v59.
  EXPECT_EQ(runDeadCodeElim(*G), 3u);
  EXPECT_EQ(G->Blocks[0].Insns.size(), 4u);
  EXPECT_EQ(G->Blocks[0].Insns.back().A, 63);
}

TEST(HirPassOracle, CseTableBeyondItsFloorSize) {
  // 40 distinct pure expressions in one block, then all 40 again. The
  // expression table is sized from the largest block, here past its
  // 16-slot floor, and each recomputation must still find its holder.
  dex::Method M;
  M.Name = "cse40";
  M.NumRegs = 64;
  M.NumArgs = 1;
  M.ReturnsValue = true;
  for (uint16_t K = 0; K < 40; ++K)
    M.Code.push_back(makeAddImm(1 + K, 0, K + 1));
  for (uint16_t K = 0; K < 40; ++K)
    M.Code.push_back(makeAddImm(41 + K % 20, 0, K + 1));
  M.Code.push_back(makeRet(60));
  diffEdgeCase(M);

  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 40u);
  for (uint16_t K = 0; K < 40; ++K) {
    const HInsn &I = G->Blocks[0].Insns[40 + K];
    EXPECT_EQ(I.Op, HOp::Move);
    EXPECT_EQ(I.B, 1 + K);
  }
}

TEST(HirPassOracle, RecomputedKeyAfterHolderRedefinition) {
  // v2 = v0+v1; v2 = 9 (holder clobbered); v3 = v0+v1 is not a reuse and
  // becomes the latest holder; v3 = v0+v1 again keeps its own register
  // (holder == destination); v4 = v0+v1 then reuses v3.
  dex::Method M;
  M.Name = "csestale";
  M.NumRegs = 8;
  M.NumArgs = 2;
  M.ReturnsValue = true;
  M.Code = {makeBin(dex::Op::Add, 2, 0, 1), makeConst(2, 9),
            makeBin(dex::Op::Add, 3, 0, 1), makeBin(dex::Op::Add, 3, 0, 1),
            makeBin(dex::Op::Add, 4, 0, 1), makeBin(dex::Op::Xor, 5, 2, 4),
            makeBin(dex::Op::Xor, 5, 5, 3), makeRet(5)};
  diffEdgeCase(M);

  auto G = buildHGraph(M);
  ASSERT_TRUE(bool(G));
  EXPECT_EQ(runLocalCse(*G), 1u);
  const auto &Insns = G->Blocks[0].Insns;
  EXPECT_EQ(Insns[2].Op, HOp::Add);
  EXPECT_EQ(Insns[3].Op, HOp::Add);
  EXPECT_EQ(Insns[4].Op, HOp::Move);
  EXPECT_EQ(Insns[4].B, 3);
}

TEST(Pipeline, RunsAllPassesAndVerifies) {
  auto G = buildHGraph(straightLine());
  ASSERT_TRUE(bool(G));
  auto Stats = runPipeline(*G, defaultPipeline());
  EXPECT_EQ(Stats.size(), 6u);
  EXPECT_EQ(Stats[0].Name, "constant-folding");
  EXPECT_FALSE(bool(verifyHGraph(*G)));
}

} // namespace
