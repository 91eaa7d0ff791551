//===- tests/ModelTest.cpp - vega_model unit tests ------------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "model/Autograd.h"
#include "model/CodeBE.h"
#include "model/Trainer.h"
#include "model/Vocab.h"
#include "support/BinaryIO.h"
#include "support/RNG.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>

using namespace vega;

namespace {

/// Finite-difference gradient check: perturb each parameter entry and
/// compare the numeric derivative with the autograd one.
void checkGradient(const std::function<TensorPtr()> &Loss,
                   const TensorPtr &Param, float Tolerance = 2e-2f) {
  Param->ensureGrad();
  Param->zeroGrad(); // clear accumulation from earlier checks
  TensorPtr L = Loss();
  backward(L);
  std::vector<float> Analytic = Param->Grad;
  const float Eps = 1e-3f;
  for (size_t I = 0; I < std::min<size_t>(Param->Data.size(), 8); ++I) {
    float Saved = Param->Data[I];
    Param->Data[I] = Saved + Eps;
    float Up = Loss()->Data[0];
    Param->Data[I] = Saved - Eps;
    float Down = Loss()->Data[0];
    Param->Data[I] = Saved;
    float Numeric = (Up - Down) / (2 * Eps);
    EXPECT_NEAR(Analytic[I], Numeric,
                Tolerance * std::max(1.0f, std::fabs(Numeric)))
        << "entry " << I;
    Param->zeroGrad();
  }
}

} // namespace

TEST(Autograd, MatmulForward) {
  TensorPtr A = makeTensor(2, 3), B = makeTensor(3, 2);
  for (int I = 0; I < 6; ++I) {
    A->Data[static_cast<size_t>(I)] = static_cast<float>(I + 1);
    B->Data[static_cast<size_t>(I)] = static_cast<float>(I % 3);
  }
  TensorPtr C = matmul(A, B);
  // A = [1 2 3; 4 5 6], B = [0 1; 2 0; 1 2] → C = [7 7; 16 16].
  EXPECT_FLOAT_EQ(C->at(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(C->at(0, 1), 7.0f);
  EXPECT_FLOAT_EQ(C->at(1, 0), 16.0f);
  EXPECT_FLOAT_EQ(C->at(1, 1), 16.0f);
}

TEST(Autograd, MatmulGradient) {
  TensorPtr A = makeParam(3, 4, 0.5f, 1);
  TensorPtr B = makeParam(4, 2, 0.5f, 2);
  std::vector<int> Targets = {1, 0, 1};
  auto Loss = [&] { return crossEntropy(matmul(A, B), Targets); };
  checkGradient(Loss, A);
  checkGradient(Loss, B);
}

TEST(Autograd, MatmulNTGradient) {
  TensorPtr A = makeParam(2, 4, 0.5f, 3);
  TensorPtr B = makeParam(5, 4, 0.5f, 4);
  std::vector<int> Targets = {3, 0};
  auto Loss = [&] { return crossEntropy(matmulNT(A, B), Targets); };
  checkGradient(Loss, A);
  checkGradient(Loss, B);
}

TEST(Autograd, LayerNormGradient) {
  TensorPtr X = makeParam(2, 6, 1.0f, 5);
  TensorPtr G = makeParam(1, 6, 0.5f, 6);
  TensorPtr Bt = makeParam(1, 6, 0.5f, 7);
  TensorPtr W = makeParam(6, 3, 0.5f, 8);
  std::vector<int> Targets = {0, 2};
  auto Loss = [&] {
    return crossEntropy(matmul(layerNorm(X, G, Bt), W), Targets);
  };
  checkGradient(Loss, X);
  checkGradient(Loss, G);
  checkGradient(Loss, Bt);
}

TEST(Autograd, SoftmaxGradient) {
  TensorPtr X = makeParam(2, 5, 1.0f, 9);
  TensorPtr W = makeParam(5, 3, 0.5f, 10);
  std::vector<int> Targets = {1, 2};
  auto Loss = [&] {
    return crossEntropy(matmul(softmaxRows(X), W), Targets);
  };
  checkGradient(Loss, X);
}

TEST(Autograd, GatherAndSliceGradients) {
  TensorPtr E = makeParam(6, 4, 0.8f, 11);
  std::vector<int> Ids = {2, 0, 2};
  TensorPtr W = makeParam(2, 3, 0.5f, 12);
  std::vector<int> Targets = {0, 1, 2};
  auto Loss = [&] {
    TensorPtr G = gatherRows(E, Ids);
    TensorPtr S = sliceCols(G, 1, 2);
    return crossEntropy(matmul(S, W), Targets);
  };
  checkGradient(Loss, E);
}

TEST(Autograd, ReluAndScaleGradients) {
  TensorPtr X = makeParam(3, 4, 1.0f, 13);
  TensorPtr W = makeParam(4, 2, 0.5f, 14);
  std::vector<int> Targets = {0, 1, 0};
  auto Loss = [&] {
    return crossEntropy(matmul(scale(relu(X), 1.5f), W), Targets);
  };
  checkGradient(Loss, X);
}

TEST(Autograd, CopyScatterGradient) {
  TensorPtr A = makeParam(2, 3, 0.7f, 15);
  std::vector<int> SrcIds = {4, 1, 4};
  std::vector<int> Targets = {4, 1};
  auto Loss = [&] {
    return crossEntropy(copyScatter(softmaxRows(A), SrcIds, 6), Targets);
  };
  checkGradient(Loss, A);
}

TEST(Autograd, SparseMixGradient) {
  TensorPtr E = makeParam(5, 4, 0.6f, 16);
  std::vector<std::vector<int>> Lists = {{0, 1}, {2}, {}};
  TensorPtr W = makeParam(4, 2, 0.5f, 17);
  std::vector<int> Targets = {0, 1, 0};
  auto Loss = [&] {
    return crossEntropy(matmul(sparseMix(E, Lists), W), Targets);
  };
  checkGradient(Loss, E);
}

TEST(Autograd, AdamReducesLoss) {
  TensorPtr W = makeParam(4, 3, 0.5f, 18);
  TensorPtr X = makeTensor(2, 4);
  // Well-separated inputs so 50 Adam steps suffice.
  X->at(0, 0) = 1.0f;
  X->at(0, 1) = -0.5f;
  X->at(1, 2) = 1.0f;
  X->at(1, 3) = -0.5f;
  std::vector<int> Targets = {2, 0};
  AdamOptimizer Opt({W}, 0.05f);
  float First = 0.0f, Last = 0.0f;
  for (int Step = 0; Step < 50; ++Step) {
    TensorPtr Loss = crossEntropy(matmul(X, W), Targets);
    if (Step == 0)
      First = Loss->Data[0];
    Last = Loss->Data[0];
    backward(Loss);
    Opt.step();
  }
  EXPECT_LT(Last, First * 0.2f);
}

TEST(Autograd, SimdGemmKernelsMatchScalarReference) {
  // Every SIMD GEMM body the host can run must reproduce the scalar
  // reference byte for byte: random shapes (N mostly not a multiple of
  // the vector width), and zero / -0.0 entries of A facing inf/NaN
  // entries of B, which pins down gemmAccum's skip of zero A entries.
  // One NaN bit pattern (the x86 default NaN) is used throughout, so a
  // NaN result cannot depend on which operand an add propagates.
  using GemmFn = void (*)(const float *, const float *, float *, int, int,
                          int);
  struct Bodies {
    detail::KernelIsa Isa;
    GemmFn Accum, NT, Dense;
  };
  std::vector<Bodies> Levels;
#ifdef VEGA_KERNELS_X86
  Levels.push_back({detail::KernelIsa::AVX2, detail::gemmAccumAVX2,
                    detail::gemmNTAVX2, detail::gemmDenseAVX2});
  Levels.push_back({detail::KernelIsa::AVX512F, detail::gemmAccumAVX512F,
                    detail::gemmNTAVX512F, detail::gemmDenseAVX512F});
#endif
  if (Levels.empty())
    GTEST_SKIP() << "this build has no SIMD GEMM bodies";
  uint32_t NaNBits = 0xFFC00000u;
  float NaN;
  std::memcpy(&NaN, &NaNBits, sizeof(NaN));
  const float Inf = std::numeric_limits<float>::infinity();

  RNG Rng(91);
  std::vector<std::string> Missing;
  for (const Bodies &L : Levels) {
    if (!detail::kernelIsaSupported(L.Isa)) {
      Missing.push_back(detail::kernelIsaName(L.Isa));
      continue;
    }
    for (int Case = 0; Case < 300; ++Case) {
      const int M = 1 + static_cast<int>(Rng.nextBelow(30));
      const int K = 1 + static_cast<int>(Rng.nextBelow(200));
      const int N = 1 + static_cast<int>(Rng.nextBelow(200));
      const bool Special = Case % 3 == 0;
      auto Fill = [&](std::vector<float> &V, bool IsA) {
        for (float &X : V) {
          X = static_cast<float>(Rng.nextGaussian());
          if (!Special)
            continue;
          uint64_t Roll = Rng.nextBelow(16);
          if (IsA && Roll == 0)
            X = 0.0f;
          else if (IsA && Roll == 1)
            X = -0.0f;
          else if (!IsA && Roll == 0)
            X = Inf;
          else if (!IsA && Roll == 1)
            X = -Inf;
          else if (!IsA && Roll == 2)
            X = NaN;
        }
      };
      std::vector<float> A(static_cast<size_t>(M) * K);
      std::vector<float> B(static_cast<size_t>(K) * N);  // K×N (Accum/Dense)
      std::vector<float> BT(static_cast<size_t>(N) * K); // N×K (NT)
      std::vector<float> C0(static_cast<size_t>(M) * N);
      Fill(A, true);
      Fill(B, false);
      Fill(BT, false);
      Fill(C0, false);
      const size_t Bytes = C0.size() * sizeof(float);
      std::string Where = std::string(detail::kernelIsaName(L.Isa)) +
                          " case " + std::to_string(Case) + " M=" +
                          std::to_string(M) + " K=" + std::to_string(K) +
                          " N=" + std::to_string(N);

      std::vector<float> Want = C0, Got = C0;
      detail::gemmAccumScalar(A.data(), B.data(), Want.data(), M, K, N);
      L.Accum(A.data(), B.data(), Got.data(), M, K, N);
      EXPECT_EQ(std::memcmp(Want.data(), Got.data(), Bytes), 0)
          << "gemmAccum " << Where;

      Want = C0;
      Got = C0;
      detail::gemmNTScalar(A.data(), BT.data(), Want.data(), M, K, N);
      L.NT(A.data(), BT.data(), Got.data(), M, K, N);
      EXPECT_EQ(std::memcmp(Want.data(), Got.data(), Bytes), 0)
          << "gemmNT " << Where;

      // gemmDense against the same operand transposed is gemmNT's chain.
      std::vector<float> BTT(static_cast<size_t>(K) * N);
      for (int J = 0; J < N; ++J)
        for (int P = 0; P < K; ++P)
          BTT[static_cast<size_t>(P) * N + J] =
              BT[static_cast<size_t>(J) * K + P];
      Got = C0;
      L.Dense(A.data(), BTT.data(), Got.data(), M, K, N);
      EXPECT_EQ(std::memcmp(Want.data(), Got.data(), Bytes), 0)
          << "gemmDense " << Where;
      std::vector<float> Scalar = C0;
      detail::gemmDenseScalar(A.data(), BTT.data(), Scalar.data(), M, K, N);
      EXPECT_EQ(std::memcmp(Want.data(), Scalar.data(), Bytes), 0)
          << "gemmDenseScalar " << Where;
    }
  }
  if (!Missing.empty()) {
    std::string List;
    for (const std::string &Name : Missing)
      List += " " + Name;
    GTEST_SKIP() << "host lacks:" << List;
  }
}

TEST(Autograd, ConcatColsRecordsNoTapeUnderNoGrad) {
  TensorPtr A = makeParam(2, 3, 0.5f, 19);
  TensorPtr B = makeParam(2, 1, 0.5f, 20);
  {
    NoGradGuard Guard;
    TensorPtr Out = concatCols({A, B});
    EXPECT_TRUE(Out->Parents.empty());
    EXPECT_FALSE(Out->Backward);
    EXPECT_FALSE(Out->RequiresGrad);
    EXPECT_EQ(Out->at(1, 3), B->at(1, 0));
  }
  TensorPtr Taped = concatCols({A, B});
  EXPECT_EQ(Taped->Parents.size(), 2u);
  EXPECT_TRUE(Taped->Backward);
}

TEST(Vocab, SpecialTokensExist) {
  Vocab V;
  EXPECT_EQ(V.textOf(V.padId()), "[PAD]");
  EXPECT_EQ(V.textOf(V.eosId()), "[EOS]");
  EXPECT_TRUE(V.isCsToken(V.csId(0)));
  EXPECT_TRUE(V.isCsToken(V.csId(Vocab::NumCsBuckets - 1)));
  EXPECT_FALSE(V.isCsToken(V.eosId()));
}

TEST(Vocab, CsBucketsRoundTrip) {
  Vocab V;
  EXPECT_EQ(Vocab::csBucket(0.0), 0);
  EXPECT_EQ(Vocab::csBucket(1.0), Vocab::NumCsBuckets - 1);
  EXPECT_NEAR(V.csValueOf(V.csId(Vocab::csBucket(0.8))), 0.8, 0.03);
  EXPECT_EQ(Vocab::csBucket(1.5), Vocab::NumCsBuckets - 1); // clamped
  EXPECT_EQ(Vocab::csBucket(-0.5), 0);
}

TEST(Vocab, TokensGetPieces) {
  Vocab V;
  int Id = V.addToken("fixup_riscv_pcrel_hi20");
  const auto &Pieces = V.pieceLists()[static_cast<size_t>(Id)];
  EXPECT_EQ(Pieces.size(), 4u); // fixup, riscv, pcrel, hi20
  // Shared pieces across tokens.
  int Id2 = V.addToken("fixup_riscv_branch");
  const auto &Pieces2 = V.pieceLists()[static_cast<size_t>(Id2)];
  EXPECT_EQ(Pieces[0], Pieces2[0]); // "fixup"
  EXPECT_EQ(Pieces[1], Pieces2[1]); // "riscv"
}

TEST(Vocab, UnknownMapsToUnk) {
  Vocab V;
  EXPECT_EQ(V.idOf("never_added"), V.unkId());
  EXPECT_FALSE(V.contains("never_added"));
}

TEST(Vocab, SerializeRoundTrip) {
  Vocab V;
  V.addToken("alpha");
  V.addToken("beta_gamma");
  Vocab V2 = Vocab::deserialize(V.serialize());
  EXPECT_EQ(V2.size(), V.size());
  EXPECT_EQ(V2.idOf("alpha"), V.idOf("alpha"));
  EXPECT_EQ(V2.idOf("beta_gamma"), V.idOf("beta_gamma"));
}

TEST(CodeBE, LearnsACopyTask) {
  Vocab V;
  std::vector<std::string> Words;
  for (int I = 0; I < 12; ++I) {
    Words.push_back("w" + std::to_string(I));
    V.addToken(Words.back());
  }
  CodeBEConfig C;
  C.Epochs = 25;
  C.MaxSrcLen = 8;
  C.MaxDstLen = 6;
  C.LearningRate = 2e-3f;
  std::vector<TrainPair> Data;
  RNG Rng(11);
  for (int I = 0; I < 150; ++I) {
    int A = static_cast<int>(Rng.nextBelow(12));
    int B = static_cast<int>(Rng.nextBelow(12));
    TrainPair P;
    P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
             V.idOf(Words[static_cast<size_t>(B)])};
    P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
             V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
    Data.push_back(P);
  }
  CodeBE Model(V, C);
  ASSERT_TRUE(model::Trainer(Model, model::TrainOptions::fromConfig(C))
                  .run(Data)
                  .isOk());
  double EM = Model.exactMatch({Data.begin(), Data.begin() + 40});
  EXPECT_GT(EM, 0.9);
}

TEST(CodeBE, KVCacheDecodeMatchesFullRecompute) {
  // The incremental decoder must be bit-identical to re-running the full
  // decoder every step: same tokens AND same chosen probabilities, compared
  // with exact floating-point equality (no tolerance).
  Vocab V;
  std::vector<std::string> Words;
  for (int I = 0; I < 12; ++I) {
    Words.push_back("kv" + std::to_string(I));
    V.addToken(Words.back());
  }
  CodeBEConfig C;
  C.Epochs = 6;
  C.MaxSrcLen = 8;
  C.MaxDstLen = 6;
  C.LearningRate = 2e-3f;
  std::vector<TrainPair> Data;
  RNG Rng(17);
  for (int I = 0; I < 120; ++I) {
    int A = static_cast<int>(Rng.nextBelow(12));
    int B = static_cast<int>(Rng.nextBelow(12));
    TrainPair P;
    P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
             V.idOf(Words[static_cast<size_t>(B)])};
    P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
             V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
    Data.push_back(P);
  }
  CodeBE Model(V, C);
  ASSERT_TRUE(model::Trainer(Model, model::TrainOptions::fromConfig(C))
                  .run(Data)
                  .isOk());

  RNG Pick(23);
  for (int Case = 0; Case < 20; ++Case) {
    std::vector<int> Src = {
        V.clsId(), V.idOf(Words[Pick.nextBelow(12)]),
        V.idOf(Words[Pick.nextBelow(12)])};
    Model.setDecodeMode(CodeBE::DecodeMode::FullRecompute);
    CodeBE::Decoded Full = Model.generate(Src);
    Model.setDecodeMode(CodeBE::DecodeMode::KVCache);
    CodeBE::Decoded Inc = Model.generate(Src);
    EXPECT_EQ(Full.Tokens, Inc.Tokens) << "case " << Case;
    ASSERT_EQ(Full.Probs.size(), Inc.Probs.size()) << "case " << Case;
    for (size_t I = 0; I < Full.Probs.size(); ++I)
      EXPECT_EQ(Full.Probs[I], Inc.Probs[I])
          << "case " << Case << " position " << I;
  }

  // Constrained decoding takes the same paths through both modes.
  std::vector<uint8_t> Allowed(static_cast<size_t>(V.size()), 0);
  for (int I = 0; I < 6; ++I)
    Allowed[static_cast<size_t>(V.idOf(Words[static_cast<size_t>(I)]))] = 1;
  std::vector<int> Src = {V.clsId(), V.idOf(Words[2]), V.idOf(Words[5])};
  Model.setDecodeMode(CodeBE::DecodeMode::FullRecompute);
  CodeBE::Decoded Full = Model.generate(Src, &Allowed);
  Model.setDecodeMode(CodeBE::DecodeMode::KVCache);
  CodeBE::Decoded Inc = Model.generate(Src, &Allowed);
  EXPECT_EQ(Full.Tokens, Inc.Tokens);
  ASSERT_EQ(Full.Probs.size(), Inc.Probs.size());
  for (size_t I = 0; I < Full.Probs.size(); ++I)
    EXPECT_EQ(Full.Probs[I], Inc.Probs[I]) << "position " << I;
}

TEST(CodeBE, BeamWidthOneMatchesGreedyAndRanksDescend) {
  // decodeBeam is the pass@k backbone of the repair engine: width 1 must
  // reproduce the greedy decode exactly (same tie-break rule), repeated
  // calls must be bit-identical (no RNG anywhere), and candidates must come
  // back ranked by score.
  Vocab V;
  std::vector<std::string> Words;
  for (int I = 0; I < 12; ++I) {
    Words.push_back("bm" + std::to_string(I));
    V.addToken(Words.back());
  }
  CodeBEConfig C;
  C.Epochs = 6;
  C.MaxSrcLen = 8;
  C.MaxDstLen = 6;
  C.LearningRate = 2e-3f;
  std::vector<TrainPair> Data;
  RNG Rng(29);
  for (int I = 0; I < 120; ++I) {
    int A = static_cast<int>(Rng.nextBelow(12));
    int B = static_cast<int>(Rng.nextBelow(12));
    TrainPair P;
    P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
             V.idOf(Words[static_cast<size_t>(B)])};
    P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
             V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
    Data.push_back(P);
  }
  CodeBE Model(V, C);
  ASSERT_TRUE(model::Trainer(Model, model::TrainOptions::fromConfig(C))
                  .run(Data)
                  .isOk());

  RNG Pick(31);
  for (int Case = 0; Case < 10; ++Case) {
    std::vector<int> Src = {V.clsId(), V.idOf(Words[Pick.nextBelow(12)]),
                            V.idOf(Words[Pick.nextBelow(12)])};
    CodeBE::Decoded Greedy = Model.generate(Src);
    std::vector<CodeBE::BeamHypothesis> One = Model.decodeBeam(Src, 1);
    ASSERT_FALSE(One.empty()) << "case " << Case;
    EXPECT_EQ(One[0].Tokens, Greedy.Tokens) << "case " << Case;

    std::vector<CodeBE::BeamHypothesis> Four = Model.decodeBeam(Src, 4);
    std::vector<CodeBE::BeamHypothesis> FourAgain = Model.decodeBeam(Src, 4);
    ASSERT_EQ(Four.size(), FourAgain.size()) << "case " << Case;
    EXPECT_LE(Four.size(), 4u);
    for (size_t I = 0; I < Four.size(); ++I) {
      EXPECT_EQ(Four[I].Tokens, FourAgain[I].Tokens) << "case " << Case;
      EXPECT_EQ(Four[I].Score, FourAgain[I].Score) << "case " << Case;
      if (I > 0) {
        EXPECT_LE(Four[I].Score, Four[I - 1].Score)
            << "case " << Case << " rank " << I;
      }
    }
    // Candidates are distinct statements, not duplicates.
    for (size_t I = 0; I < Four.size(); ++I)
      for (size_t J = I + 1; J < Four.size(); ++J)
        EXPECT_NE(Four[I].Tokens, Four[J].Tokens)
            << "case " << Case << " ranks " << I << "/" << J;
  }
}

TEST(CodeBE, ConstrainedDecodingRestrictsOutput) {
  Vocab V;
  int A = V.addToken("aaa"), B = V.addToken("bbb");
  CodeBEConfig C;
  C.Epochs = 1;
  C.MaxDstLen = 4;
  CodeBE Model(V, C);
  std::vector<uint8_t> Allowed(V.size(), 0);
  Allowed[static_cast<size_t>(B)] = 1;
  CodeBE::Decoded Out = Model.generate({V.clsId(), A}, &Allowed);
  for (int Id : Out.Tokens)
    EXPECT_TRUE(Id == B || V.isCsToken(Id))
        << "disallowed token " << V.textOf(Id);
}

TEST(CodeBE, SaveLoadRoundTrip) {
  Vocab V;
  V.addToken("x");
  CodeBEConfig C;
  C.Epochs = 1;
  CodeBE M1(V, C);
  std::string Blob = M1.saveWeights();
  CodeBE M2(V, C);
  ASSERT_TRUE(M2.loadWeights(Blob));
  CodeBE::Decoded D1 = M1.generate({V.clsId()});
  CodeBE::Decoded D2 = M2.generate({V.clsId()});
  EXPECT_EQ(D1.Tokens, D2.Tokens);

  // Mismatched config must refuse.
  CodeBEConfig C2 = C;
  C2.DModel = 32;
  CodeBE M3(V, C2);
  EXPECT_FALSE(M3.loadWeights(Blob));
}

TEST(Autograd, GradSinkReductionIsScheduleInvariant) {
  // Shared leaves used by every example tape, as parameters are in
  // training: the per-example sink buffers folded in ascending example
  // order must produce the same bits no matter how many lanes ran.
  TensorPtr E = makeParam(6, 4, 0.5f, 7);
  TensorPtr W = makeParam(4, 3, 0.5f, 8);
  const size_t Examples = 8;
  std::vector<std::vector<int>> Ids(Examples), Targets(Examples);
  RNG Rng(99);
  for (size_t I = 0; I < Examples; ++I)
    for (int T = 0; T < 3; ++T) {
      Ids[I].push_back(static_cast<int>(Rng.nextBelow(6)));
      Targets[I].push_back(static_cast<int>(Rng.nextBelow(3)));
    }

  auto RunWith = [&](int Jobs) {
    ThreadPool Pool(Jobs);
    std::vector<TensorPtr> Tracked = {E, W};
    std::vector<GradSink> Sinks(Examples);
    for (GradSink &S : Sinks)
      S.track(Tracked);
    Pool.parallelFor(Examples, [&](size_t I) {
      GradSink::Scope Active(Sinks[I]);
      Sinks[I].zero();
      TensorPtr Logits = matmul(gatherRows(E, Ids[I]), W);
      backward(crossEntropy(Logits, Targets[I]));
    });
    std::vector<std::vector<float>> Reduced;
    for (size_t P = 0; P < Tracked.size(); ++P) {
      std::vector<float> Acc(Tracked[P]->Data.size(), 0.0f);
      for (size_t S = 0; S < Examples; ++S) {
        const std::vector<float> &Buf = Sinks[S].bufferAt(P);
        for (size_t K = 0; K < Acc.size(); ++K)
          Acc[K] += Buf[K];
      }
      Reduced.push_back(std::move(Acc));
    }
    return Reduced;
  };

  std::vector<std::vector<float>> Serial = RunWith(1);
  std::vector<std::vector<float>> Parallel = RunWith(4);
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t P = 0; P < Serial.size(); ++P) {
    ASSERT_EQ(Serial[P].size(), Parallel[P].size());
    EXPECT_EQ(0, std::memcmp(Serial[P].data(), Parallel[P].data(),
                             Serial[P].size() * sizeof(float)))
        << "reduced gradient " << P << " differs between jobs=1 and jobs=4";
    // The gradients are real (the tapes actually ran).
    float Sum = 0.0f;
    for (float G : Serial[P])
      Sum += std::fabs(G);
    EXPECT_GT(Sum, 0.0f);
  }
}

TEST(Trainer, JobsDoNotChangeTrainedWeights) {
  // A full Trainer run at jobs=1 vs jobs=4 from identical seeds must produce
  // byte-identical weights — and therefore identical WGTS checksums in a
  // session checkpoint, which stores fnv1a(saveWeights()).
  Vocab V;
  std::vector<std::string> Words;
  for (int I = 0; I < 12; ++I) {
    Words.push_back("w" + std::to_string(I));
    V.addToken(Words.back());
  }
  CodeBEConfig C;
  C.Epochs = 3;
  C.MaxSrcLen = 8;
  C.MaxDstLen = 6;
  std::vector<TrainPair> Data;
  RNG Rng(11);
  for (int I = 0; I < 60; ++I) {
    int A = static_cast<int>(Rng.nextBelow(12));
    int B = static_cast<int>(Rng.nextBelow(12));
    TrainPair P;
    P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
             V.idOf(Words[static_cast<size_t>(B)])};
    P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
             V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
    Data.push_back(P);
  }

  auto TrainWith = [&](int Jobs) {
    CodeBE Model(V, C);
    model::TrainOptions Opts = model::TrainOptions::fromConfig(C);
    Opts.Jobs = Jobs;
    model::Trainer Engine(Model, Opts);
    StatusOr<model::TrainResult> Result = Engine.run(Data);
    EXPECT_TRUE(Result.isOk());
    if (Result.isOk()) {
      EXPECT_EQ(Result->JobsUsed, Jobs);
      EXPECT_EQ(Result->EpochsRun, C.Epochs);
      EXPECT_EQ(Result->ExamplesSeen, Data.size() * 3);
      EXPECT_EQ(Result->EpochMeanLoss.size(), 3u);
      EXPECT_GT(Result->ExamplesPerSec, 0.0);
    }
    return Model.saveWeights();
  };

  std::string Weights1 = TrainWith(1);
  std::string Weights4 = TrainWith(4);
  ASSERT_EQ(Weights1.size(), Weights4.size());
  EXPECT_TRUE(Weights1 == Weights4)
      << "trained weights differ between jobs=1 and jobs=4";
  EXPECT_EQ(fnv1a(Weights1), fnv1a(Weights4));
}

TEST(Trainer, UnitExampleWeightsMatchUnweightedBytes) {
  // ExampleWeights of all 1.0 must be a no-op: byte-identical trained
  // weights versus the unweighted schedule, so the flywheel's weighted
  // corpus degenerates cleanly when every pair carries the default weight.
  Vocab V;
  std::vector<std::string> Words;
  for (int I = 0; I < 8; ++I) {
    Words.push_back("w" + std::to_string(I));
    V.addToken(Words.back());
  }
  CodeBEConfig C;
  C.Epochs = 2;
  C.MaxSrcLen = 8;
  C.MaxDstLen = 6;
  std::vector<TrainPair> Data;
  RNG Rng(7);
  for (int I = 0; I < 24; ++I) {
    int A = static_cast<int>(Rng.nextBelow(8));
    TrainPair P;
    P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)])};
    P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
    Data.push_back(P);
  }

  auto TrainWith = [&](std::vector<float> Weights) {
    CodeBE Model(V, C);
    model::TrainOptions Opts = model::TrainOptions::fromConfig(C);
    Opts.ExampleWeights = std::move(Weights);
    model::Trainer Engine(Model, Opts);
    StatusOr<model::TrainResult> Result = Engine.run(Data);
    EXPECT_TRUE(Result.isOk());
    return Model.saveWeights();
  };

  std::string Plain = TrainWith({});
  std::string Unit = TrainWith(std::vector<float>(Data.size(), 1.0f));
  EXPECT_TRUE(Plain == Unit)
      << "all-1.0 example weights changed the trained weights";

  // Down-weighting must actually change the optimization trajectory.
  std::vector<float> Skewed(Data.size(), 1.0f);
  Skewed.front() = 0.25f;
  EXPECT_FALSE(Plain == TrainWith(std::move(Skewed)));
}

TEST(Trainer, ExampleWeightsValidated) {
  Vocab V;
  V.addToken("x");
  CodeBEConfig C;
  CodeBE Model(V, C);
  TrainPair P;
  P.Src = {V.clsId(), V.idOf("x")};
  P.Dst = {V.csId(20), V.idOf("x"), V.eosId()};
  std::vector<TrainPair> Data(4, P);

  auto CodeFor = [&](std::vector<float> Weights) {
    model::TrainOptions Opts = model::TrainOptions::fromConfig(C);
    Opts.ExampleWeights = std::move(Weights);
    model::Trainer Engine(Model, Opts);
    StatusOr<model::TrainResult> Result = Engine.run(Data);
    EXPECT_FALSE(Result.isOk());
    return Result.isOk() ? StatusCode::Ok : Result.status().code();
  };

  // Size mismatch is typed, not silently truncated or padded.
  EXPECT_EQ(CodeFor(std::vector<float>(3, 1.0f)),
            StatusCode::InvalidArgument);
  // Negative and non-finite weights are rejected by validate().
  EXPECT_EQ(CodeFor({1.0f, -0.5f, 1.0f, 1.0f}), StatusCode::InvalidArgument);
  EXPECT_EQ(CodeFor({1.0f, std::nanf(""), 1.0f, 1.0f}),
            StatusCode::InvalidArgument);
}

TEST(Trainer, InvalidOptionsSurfaceTypedStatus) {
  Vocab V;
  V.addToken("x");
  CodeBEConfig C;
  CodeBE Model(V, C);

  auto CodeFor = [&](const model::TrainOptions &Opts) {
    model::Trainer Engine(Model, Opts);
    StatusOr<model::TrainResult> Result = Engine.run({});
    EXPECT_FALSE(Result.isOk());
    return Result.isOk() ? StatusCode::Ok : Result.status().code();
  };

  model::TrainOptions Bad = model::TrainOptions::fromConfig(C);
  Bad.BatchSize = 0;
  EXPECT_EQ(CodeFor(Bad), StatusCode::InvalidArgument);

  Bad = model::TrainOptions::fromConfig(C);
  Bad.Epochs = -1;
  EXPECT_EQ(CodeFor(Bad), StatusCode::InvalidArgument);

  Bad = model::TrainOptions::fromConfig(C);
  Bad.LearningRate = 0.0f;
  EXPECT_EQ(CodeFor(Bad), StatusCode::InvalidArgument);

  Bad = model::TrainOptions::fromConfig(C);
  Bad.LearningRate = std::nanf("");
  EXPECT_EQ(CodeFor(Bad), StatusCode::InvalidArgument);

  // Valid options succeed even on an empty dataset.
  model::Trainer Engine(Model, model::TrainOptions::fromConfig(C));
  StatusOr<model::TrainResult> Ok = Engine.run({});
  ASSERT_TRUE(Ok.isOk());
  EXPECT_EQ(Ok->ExamplesSeen, 0u);
}

namespace {

/// A small trained copy-task model shared by the decode-route tests
/// (training is the expensive part; the tests only decode).
struct SharedDecodeModel {
  Vocab V;
  std::vector<std::string> Words;
  std::unique_ptr<CodeBE> Model;

  SharedDecodeModel() {
    for (int I = 0; I < 12; ++I) {
      Words.push_back("qp" + std::to_string(I));
      V.addToken(Words.back());
    }
    CodeBEConfig C;
    C.Epochs = 6;
    C.MaxSrcLen = 8;
    C.MaxDstLen = 8;
    C.LearningRate = 2e-3f;
    std::vector<TrainPair> Data;
    RNG Rng(41);
    for (int I = 0; I < 120; ++I) {
      int A = static_cast<int>(Rng.nextBelow(12));
      int B = static_cast<int>(Rng.nextBelow(12));
      TrainPair P;
      P.Src = {V.clsId(), V.idOf(Words[static_cast<size_t>(A)]),
               V.idOf(Words[static_cast<size_t>(B)])};
      P.Dst = {V.csId(20), V.idOf(Words[static_cast<size_t>(B)]),
               V.idOf(Words[static_cast<size_t>(A)]), V.eosId()};
      Data.push_back(P);
    }
    Model = std::make_unique<CodeBE>(V, C);
    EXPECT_TRUE(model::Trainer(*Model, model::TrainOptions::fromConfig(C))
                    .run(Data)
                    .isOk());
  }

  static SharedDecodeModel &instance() {
    static SharedDecodeModel M;
    return M;
  }
};

} // namespace

TEST(CodeBE, PrefixSharingPreservesGreedyOutput) {
  // The pinned-step skip and the admissible-column logits (the work the KV
  // decoder avoids) must be invisible in the output: the default decode
  // and the independent FullRecompute reference choose the same tokens for
  // the same plan — singleton-pinned, multi-id and unconstrained steps, and
  // no plan at all — and, with WithProbs, the same probabilities exactly.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;

  CodeBE::DecodePlan Plan;
  Plan.Steps.push_back({V.csId(20)});
  Plan.Steps.push_back({V.idOf(M.Words[4])});
  Plan.Steps.push_back({V.idOf(M.Words[1]), V.idOf(M.Words[2])});
  Plan.Steps.push_back({});
  Plan.Steps.push_back({V.idOf(M.Words[7])});

  RNG Pick(59);
  for (int Case = 0; Case < 8; ++Case) {
    std::vector<int> Src = {V.clsId(), V.idOf(M.Words[Pick.nextBelow(12)]),
                            V.idOf(M.Words[Pick.nextBelow(12)])};
    for (const CodeBE::DecodePlan *P :
         std::initializer_list<const CodeBE::DecodePlan *>{nullptr, &Plan})
      for (bool WithProbs : {false, true}) {
        Model.setDecodeMode(CodeBE::DecodeMode::FullRecompute);
        CodeBE::Decoded Want = Model.generate(Src, nullptr, P, WithProbs);
        Model.setDecodeMode(CodeBE::DecodeMode::KVCache);
        CodeBE::Decoded Got = Model.generate(Src, nullptr, P, WithProbs);
        EXPECT_EQ(Got.Tokens, Want.Tokens)
            << "case " << Case << " plan " << (P != nullptr) << " probs "
            << WithProbs;
        ASSERT_EQ(Got.Probs.size(), Want.Probs.size()) << "case " << Case;
        for (size_t I = 0; I < Want.Probs.size(); ++I)
          EXPECT_EQ(Got.Probs[I], Want.Probs[I])
              << "case " << Case << " position " << I;
      }
  }
}

TEST(CodeBE, GenerateGroupMatchesPerRequestGenerate) {
  // Group decode shares the encoder pass and the longest common plan
  // prefix, then forks copy-on-write. Outputs must be byte-identical to
  // per-request generate(), including when the plans diverge mid-way
  // (fork-then-extend independence: one member's tail must not leak into
  // another's).
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;

  std::vector<int> Src = {V.clsId(), V.idOf(M.Words[3]), V.idOf(M.Words[8])};

  // Three plans sharing a 2-step prefix, diverging after it.
  CodeBE::DecodePlan P1, P2, P3;
  for (CodeBE::DecodePlan *P : {&P1, &P2, &P3}) {
    P->Steps.push_back({V.csId(20)});
    P->Steps.push_back({V.idOf(M.Words[5])});
  }
  P1.Steps.push_back({V.idOf(M.Words[0])});
  P1.Steps.push_back({V.idOf(M.Words[1])});
  P2.Steps.push_back({V.idOf(M.Words[2])});
  P2.Steps.push_back({V.idOf(M.Words[9])});
  // P3 ends at the shared prefix.

  std::vector<CodeBE::GroupRequest> Reqs = {
      {&Src, nullptr, &P1}, {&Src, nullptr, &P2}, {&Src, nullptr, &P3}};

  std::vector<CodeBE::Decoded> Group = Model.generateGroup(Reqs);
  ASSERT_EQ(Group.size(), Reqs.size());
  for (size_t I = 0; I < Reqs.size(); ++I) {
    CodeBE::Decoded Solo =
        Model.generate(*Reqs[I].Src, Reqs[I].Allowed, Reqs[I].Plan, false);
    EXPECT_EQ(Group[I].Tokens, Solo.Tokens) << "member " << I;
  }

  // Identical plans across the group: everyone gets the shared result.
  std::vector<CodeBE::GroupRequest> Same(4,
                                         CodeBE::GroupRequest{&Src, nullptr,
                                                              &P1});
  std::vector<CodeBE::Decoded> SameOut = Model.generateGroup(Same);
  ASSERT_EQ(SameOut.size(), 4u);
  CodeBE::Decoded Ref = Model.generate(Src, nullptr, &P1, false);
  for (size_t I = 0; I < SameOut.size(); ++I)
    EXPECT_EQ(SameOut[I].Tokens, Ref.Tokens) << "member " << I;

  // Mixed Src groups must fall back safely and still match.
  std::vector<int> Src2 = {V.clsId(), V.idOf(M.Words[6])};
  std::vector<CodeBE::GroupRequest> Mixed = {{&Src, nullptr, &P1},
                                             {&Src2, nullptr, &P1}};
  std::vector<CodeBE::Decoded> MixedOut = Model.generateGroup(Mixed);
  ASSERT_EQ(MixedOut.size(), 2u);
  EXPECT_EQ(MixedOut[0].Tokens, Model.generate(Src, nullptr, &P1, false).Tokens);
  EXPECT_EQ(MixedOut[1].Tokens,
            Model.generate(Src2, nullptr, &P1, false).Tokens);
}

TEST(CodeBE, SharedPrefixImmutableUnderConcurrentDecode) {
  // Four threads decode the same sources concurrently; every result must
  // match the serial decode. A mutable shared prefix
  // would corrupt one thread's KV rows with another's tail.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;

  std::vector<std::vector<int>> Srcs;
  RNG Pick(61);
  for (int I = 0; I < 16; ++I)
    Srcs.push_back({V.clsId(), V.idOf(M.Words[Pick.nextBelow(12)]),
                    V.idOf(M.Words[Pick.nextBelow(12)])});

  CodeBE::DecodePlan Plan;
  Plan.Steps.push_back({V.csId(20)});
  for (int I = 0; I < 5; ++I)
    Plan.Steps.push_back({V.idOf(M.Words[static_cast<size_t>(I * 2)])});

  std::vector<std::vector<int>> Want;
  for (const std::vector<int> &S : Srcs)
    Want.push_back(Model.generate(S, nullptr, &Plan, false).Tokens);

  std::vector<std::vector<int>> Got(Srcs.size());
  ThreadPool Pool(4);
  Pool.parallelFor(Srcs.size(), [&](size_t I) {
    Got[I] = Model.generate(Srcs[I], nullptr, &Plan, false).Tokens;
  });
  for (size_t I = 0; I < Srcs.size(); ++I)
    EXPECT_EQ(Got[I], Want[I]) << "lane " << I;
}

TEST(CodeBE, DecodeStepManyMatchesSoloWithMidFlightJoin) {
  // The continuous-batching contract at the model layer: streams stepped
  // together — including one admitted mid-flight, after its peers already
  // advanced — decode exactly the bytes a solo generate() produces. Tokens
  // AND probabilities must match; co-residency may change only timing.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;

  std::vector<int> SrcA = {V.clsId(), V.idOf(M.Words[1]), V.idOf(M.Words[9])};
  std::vector<int> SrcB = {V.clsId(), V.idOf(M.Words[5]), V.idOf(M.Words[2])};
  std::vector<int> SrcC = {V.clsId(), V.idOf(M.Words[7]), V.idOf(M.Words[7])};

  std::vector<CodeBE::Decoded> Want;
  for (const std::vector<int> *S : {&SrcA, &SrcB, &SrcC})
    Want.push_back(Model.generate(*S, nullptr, nullptr, true));

  // A and B co-step from the start; C joins after two interleaved steps.
  CodeBE::DecodeStream A = Model.beginDecode(SrcA, nullptr, nullptr, true);
  CodeBE::DecodeStream B = Model.beginDecode(SrcB, nullptr, nullptr, true);
  std::vector<CodeBE::DecodeStream *> Streams = {&A, &B};
  Model.decodeStepMany(Streams);
  Model.decodeStepMany(Streams);
  CodeBE::DecodeStream C = Model.beginDecode(SrcC, nullptr, nullptr, true);
  Streams.push_back(&C);
  size_t Guard = 0;
  while (Model.decodeStepMany(Streams) > 0)
    ASSERT_LT(++Guard, 64u) << "co-batched decode failed to terminate";

  std::vector<CodeBE::Decoded> Got;
  Got.push_back(Model.finishDecode(std::move(A)));
  Got.push_back(Model.finishDecode(std::move(B)));
  Got.push_back(Model.finishDecode(std::move(C)));

  for (size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ(Got[I].Tokens, Want[I].Tokens) << "stream " << I;
    ASSERT_EQ(Got[I].Probs.size(), Want[I].Probs.size()) << "stream " << I;
    for (size_t P = 0; P < Want[I].Probs.size(); ++P)
      EXPECT_EQ(Got[I].Probs[P], Want[I].Probs[P])
          << "stream " << I << " position " << P;
  }
}

namespace vega {
/// White-box access to CodeBE's private decode routes.
class CodeBEProbe {
public:
  static auto routeLogits(CodeBE &Model, const std::vector<int> &Src,
                          const std::vector<int> &DstIn, int RowsPerCall,
                          const std::vector<int> &Ids) {
    return Model.routeLogits(Src, DstIn, RowsPerCall, Ids);
  }

  /// Teacher-forced logits of the taped training graph (grad on, fresh
  /// combined embeddings, no cache): row T scores the token after
  /// DstIn[0..T].
  static TensorPtr tapedLogits(CodeBE &Model, std::vector<int> Src,
                               const std::vector<int> &DstIn) {
    EXPECT_FALSE(NoGradGuard::active());
    if (static_cast<int>(Src.size()) > Model.config().MaxSrcLen)
      Src.resize(static_cast<size_t>(Model.config().MaxSrcLen));
    TensorPtr Memory = Model.runEncoder(Src);
    TensorPtr DecOut = Model.runDecoder(Memory, DstIn);
    return Model.logitsFor(DecOut, Memory, Src, /*UseCombCache=*/false);
  }
};
} // namespace vega

TEST(CodeBE, ColumnLogitsMatchFullLogitsRow) {
  // Constrained greedy steps compute logits only at the step's admissible
  // ids. Each value must equal the same column of the full logitsFor row
  // bit for bit: sources with repeated ids (the copy head accumulates their
  // attention mass in source order), ids out of the vocabulary (skipped by
  // both routes), and decodes under plan biases, which must choose the same
  // tokens as the full-row reference.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;
  const int Vocab = static_cast<int>(V.size());
  auto W = [&](int I) { return V.idOf(M.Words[static_cast<size_t>(I)]); };

  std::vector<std::vector<int>> Srcs = {
      {V.clsId(), W(3), W(3), W(7), W(3), W(1)},
      {V.clsId(), W(5), W(2)},
      {V.clsId(), W(9), W(9), W(9), W(9), W(9), W(9), W(9), W(4)}};
  std::vector<int> Ids = {W(3), W(7), -1, V.eosId(), W(3), Vocab,
                          V.csId(20), W(11), Vocab + 5, W(1)};
  // Every position of the decode [E2D] cs20 w3 w7 (prefixes of length 0
  // to 3).
  std::vector<int> DstIn = {V.e2dId(), V.csId(20), W(3), W(7)};
  for (size_t SI = 0; SI < Srcs.size(); ++SI) {
    auto R =
        CodeBEProbe::routeLogits(Model, Srcs[SI], DstIn, 1, Ids);
    for (size_t T = 0; T < DstIn.size(); ++T)
      for (size_t K = 0; K < Ids.size(); ++K) {
        if (Ids[K] < 0 || Ids[K] >= Vocab)
          continue;
        const float Col = R.Cols[T * Ids.size() + K];
        const float Full = R.CachedRows[T * static_cast<size_t>(Vocab) +
                                        static_cast<size_t>(Ids[K])];
        EXPECT_EQ(std::memcmp(&Col, &Full, sizeof(float)), 0)
            << "source " << SI << " prefix " << T << " id " << Ids[K] << ": "
            << Col << " vs " << Full;
      }
  }

  // End to end: the KV decoder (column route on constrained steps) and full
  // recomputation (full rows) choose identically under biases that reorder
  // the admissible set.
  CodeBE::DecodePlan Plan;
  Plan.Steps = {{V.csId(20), V.csId(0), -3},
                {W(3), W(7), W(1), Vocab + 1},
                {W(7), W(3), V.eosId()},
                {V.eosId(), W(9)}};
  Plan.Bias = {{},
               {{W(7), 0.75f}, {W(1), -0.5f}},
               {{V.eosId(), -2.0f}, {W(3), 0.25f}}};
  for (const std::vector<int> &Src : Srcs) {
    Model.setDecodeMode(CodeBE::DecodeMode::FullRecompute);
    CodeBE::Decoded Want = Model.generate(Src, nullptr, &Plan, false);
    Model.setDecodeMode(CodeBE::DecodeMode::KVCache);
    CodeBE::Decoded Got = Model.generate(Src, nullptr, &Plan, false);
    EXPECT_EQ(Got.Tokens, Want.Tokens);
  }
}

namespace {

bool sameBits(float A, float B) { return std::memcmp(&A, &B, sizeof A) == 0; }

} // namespace

TEST(CodeBE, RawLogitsMatchTapedLogits) {
  // The raw inference routes (rowLogits over one or four decoder rows,
  // columnLogits at chosen ids, both reading the transposed embedding
  // cache) against the taped training graph's teacher-forced logits, which
  // share no cache and no raw kernel with them: every value bit for bit.
  // Sources repeat ids (the copy head accumulates their attention mass in
  // source order) and overrun MaxSrcLen; column ids repeat and fall outside
  // the vocabulary (skipped).
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;
  const int Vocab = static_cast<int>(V.size());
  auto W = [&](int I) { return V.idOf(M.Words[static_cast<size_t>(I)]); };

  std::vector<std::vector<int>> Srcs = {
      {V.clsId(), W(3), W(3), W(7), W(3), W(1)},
      {V.clsId(), W(5), W(2)},
      {V.clsId(), W(9), W(9), W(9), W(9), W(9), W(9), W(9), W(4)}};
  std::vector<int> DstIn = {V.e2dId(), V.csId(20), W(3), W(7), W(3), W(11)};
  std::vector<int> Ids = {W(3), -1, V.eosId(), W(3), Vocab, V.csId(20),
                          W(11), Vocab + 5, W(1)};
  for (size_t SI = 0; SI < Srcs.size(); ++SI) {
    TensorPtr Taped = CodeBEProbe::tapedLogits(Model, Srcs[SI], DstIn);
    ASSERT_EQ(Taped->Rows, static_cast<int>(DstIn.size()));
    ASSERT_EQ(Taped->Cols, Vocab);
    for (int RowsPerCall : {1, 4}) {
      auto R =
          CodeBEProbe::routeLogits(Model, Srcs[SI], DstIn, RowsPerCall, Ids);
      size_t Mismatch = 0;
      for (int T = 0; T < Taped->Rows; ++T)
        for (int J = 0; J < Vocab; ++J)
          if (!sameBits(R.Rows[static_cast<size_t>(T * Vocab + J)],
                        Taped->at(T, J)))
            ++Mismatch;
      EXPECT_EQ(Mismatch, 0u)
          << "source " << SI << ", " << RowsPerCall << " rows per call";
      for (int T = 0; T < Taped->Rows; ++T)
        for (size_t K = 0; K < Ids.size(); ++K) {
          const float Got = R.Cols[static_cast<size_t>(T) * Ids.size() + K];
          if (Ids[K] < 0 || Ids[K] >= Vocab)
            EXPECT_TRUE(std::isnan(Got)) << "id " << Ids[K] << " was written";
          else
            EXPECT_TRUE(sameBits(Got, Taped->at(T, Ids[K])))
                << "source " << SI << " position " << T << " id " << Ids[K];
        }
    }
  }

  // Decodes under plan biases: every token the KV decoder picks (column
  // route on multi-id steps, a full rowLogits row on the empty step) is the
  // biased argmax of the taped logits over the prefix it decoded.
  CodeBE::DecodePlan Plan;
  Plan.Steps = {{V.csId(20), V.csId(0), -3},
                {W(3), W(7), W(1), Vocab + 1},
                {},
                {W(7), W(3), W(9), V.eosId()},
                {V.eosId(), W(9)}};
  Plan.Bias = {{},
               {{W(7), 0.75f}, {W(1), -0.5f}},
               {},
               {{V.eosId(), -2.0f}, {W(3), 0.25f}}};
  for (const std::vector<int> &Src : Srcs) {
    CodeBE::Decoded Got = Model.generate(Src, nullptr, &Plan, false);
    std::vector<int> Prefix = {V.e2dId()};
    for (size_t Step = 0; Step <= Got.Tokens.size(); ++Step) {
      if (Step >= Plan.Steps.size())
        break;
      TensorPtr Taped = CodeBEProbe::tapedLogits(Model, Src, Prefix);
      const int Last = Taped->Rows - 1;
      std::vector<int> Set = Plan.Steps[Step];
      if (Set.empty())
        for (int J = 0; J < Vocab; ++J)
          Set.push_back(J);
      int Best = -1;
      float BestV = -1e30f;
      for (int J : Set) {
        if (J < 0 || J >= Vocab)
          continue;
        float Score = Taped->at(Last, J);
        if (Step < Plan.Bias.size()) {
          auto It = Plan.Bias[Step].find(J);
          if (It != Plan.Bias[Step].end())
            Score += It->second;
        }
        if (Score > BestV) {
          BestV = Score;
          Best = J;
        }
      }
      if (Step == Got.Tokens.size()) {
        EXPECT_TRUE(Best < 0 || Best == V.eosId()) << "decode stopped early";
        break;
      }
      EXPECT_EQ(Got.Tokens[Step], Best) << "step " << Step;
      Prefix.push_back(Got.Tokens[Step]);
    }
  }
}

namespace {

/// decodeBeam's search rules over logits from the taped full-prefix
/// decoder: raw-row log-sum-exp, plan bias on admissible ids, stable sort
/// with expansion-order ties, [EOS] retiring a hypothesis without taking a
/// slot, and best-first dedup of the finished set.
std::vector<CodeBE::BeamHypothesis>
referenceBeam(CodeBE &Model, const std::vector<int> &Src, int Width,
              const std::vector<uint8_t> *Allowed,
              const CodeBE::DecodePlan *Plan) {
  const Vocab &V = Model.vocab();
  const int Vocab = static_cast<int>(V.size());
  auto IsAllowed = [&](int Id) {
    if (!Allowed || Id == V.eosId() || V.isCsToken(Id))
      return true;
    return static_cast<size_t>(Id) < Allowed->size() &&
           (*Allowed)[static_cast<size_t>(Id)] != 0;
  };
  struct Hyp {
    std::vector<int> Tokens;
    double Score;
  };
  struct Expansion {
    size_t Parent;
    int Token;
    double Score;
  };
  std::vector<Hyp> Live = {{{}, 0.0}};
  std::vector<CodeBE::BeamHypothesis> Finished;
  for (int Step = 0; Step < Model.config().MaxDstLen && !Live.empty();
       ++Step) {
    const size_t S = static_cast<size_t>(Step);
    if (Plan && S >= Plan->Steps.size())
      break;
    const std::vector<int> *StepSet =
        Plan && !Plan->Steps[S].empty() ? &Plan->Steps[S] : nullptr;
    const std::map<int, float> *Bias =
        StepSet && Plan->Bias.size() > S ? &Plan->Bias[S] : nullptr;
    std::vector<Expansion> Exps;
    for (size_t BI = 0; BI < Live.size(); ++BI) {
      std::vector<int> DstIn = {V.e2dId()};
      DstIn.insert(DstIn.end(), Live[BI].Tokens.begin(), Live[BI].Tokens.end());
      TensorPtr Taped = CodeBEProbe::tapedLogits(Model, Src, DstIn);
      const float *Row = &Taped->Data[static_cast<size_t>(Taped->Rows - 1) *
                                      static_cast<size_t>(Vocab)];
      float MaxRaw = -1e30f;
      for (int J = 0; J < Vocab; ++J)
        MaxRaw = Row[J] > MaxRaw ? Row[J] : MaxRaw;
      double Sum = 0.0;
      for (int J = 0; J < Vocab; ++J)
        Sum += std::exp(static_cast<double>(Row[J] - MaxRaw));
      const double LSE = static_cast<double>(MaxRaw) + std::log(Sum);
      if (StepSet) {
        for (int J : *StepSet) {
          if (J < 0 || J >= Vocab)
            continue;
          float Val = Row[J];
          if (Bias && Bias->count(J))
            Val += Bias->at(J);
          Exps.push_back(
              {BI, J, Live[BI].Score + static_cast<double>(Val) - LSE});
        }
      } else {
        for (int J = 0; J < Vocab; ++J)
          if (IsAllowed(J))
            Exps.push_back(
                {BI, J, Live[BI].Score + static_cast<double>(Row[J]) - LSE});
      }
    }
    if (Exps.empty())
      break;
    std::stable_sort(Exps.begin(), Exps.end(),
                     [](const Expansion &A, const Expansion &B) {
                       return A.Score > B.Score;
                     });
    std::vector<Hyp> Next;
    for (const Expansion &E : Exps) {
      if (static_cast<int>(Next.size()) >= Width)
        break;
      if (E.Token == V.eosId()) {
        Finished.push_back({Live[E.Parent].Tokens, E.Score});
        continue;
      }
      Hyp H = Live[E.Parent];
      H.Tokens.push_back(E.Token);
      H.Score = E.Score;
      Next.push_back(std::move(H));
    }
    Live = std::move(Next);
  }
  for (Hyp &H : Live)
    Finished.push_back({std::move(H.Tokens), H.Score});
  std::stable_sort(Finished.begin(), Finished.end(),
                   [](const CodeBE::BeamHypothesis &A,
                      const CodeBE::BeamHypothesis &B) {
                     return A.Score > B.Score;
                   });
  std::vector<CodeBE::BeamHypothesis> Out;
  std::set<std::vector<int>> Seen;
  for (CodeBE::BeamHypothesis &H : Finished) {
    if (static_cast<int>(Out.size()) >= Width)
      break;
    if (Seen.insert(H.Tokens).second)
      Out.push_back(std::move(H));
  }
  return Out;
}

} // namespace

TEST(CodeBE, BeamMatchesTapedReferenceBeam) {
  // decodeBeam steps its hypotheses through KV caches and projects all live
  // rows in one GEMM per step; the reference re-runs the taped decoder over
  // every full prefix. Tokens and scores must agree exactly at every width,
  // with and without a plan (pinned, multi-id, empty and out-of-range
  // steps, biases that reorder the admissible set) and an Allowed mask.
  SharedDecodeModel &M = SharedDecodeModel::instance();
  CodeBE &Model = *M.Model;
  const Vocab &V = M.V;
  const int Vocab = static_cast<int>(V.size());
  auto W = [&](int I) { return V.idOf(M.Words[static_cast<size_t>(I)]); };

  std::vector<uint8_t> Allowed(V.size(), 0);
  for (int I : {1, 3, 4, 7, 9})
    Allowed[static_cast<size_t>(W(I))] = 1;
  CodeBE::DecodePlan Plan;
  Plan.Steps = {{V.csId(20), V.csId(0), -3},
                {W(3), W(7), W(1), Vocab + 1},
                {},
                {W(7), W(3), W(9), V.eosId()},
                {W(4)},
                {V.eosId(), W(9), W(4)}};
  Plan.Bias = {{{V.csId(0), 0.5f}},
               {{W(7), 0.75f}, {W(1), -0.5f}},
               {{W(2), 9.0f}}, // ignored: empty steps take no bias
               {{V.eosId(), -2.0f}, {W(3), 0.25f}}};

  std::vector<std::vector<int>> Srcs = {
      {V.clsId(), W(3), W(3), W(7), W(3), W(1)},
      {V.clsId(), W(5), W(2)},
      {V.clsId(), W(9), W(4)}};
  for (size_t SI = 0; SI < Srcs.size(); ++SI)
    for (int Width = 1; Width <= 4; ++Width)
      for (const CodeBE::DecodePlan *P :
           std::initializer_list<const CodeBE::DecodePlan *>{nullptr, &Plan})
        for (const std::vector<uint8_t> *A :
             std::initializer_list<const std::vector<uint8_t> *>{nullptr,
                                                                 &Allowed}) {
          std::vector<CodeBE::BeamHypothesis> Want =
              referenceBeam(Model, Srcs[SI], Width, A, P);
          std::vector<CodeBE::BeamHypothesis> Got =
              Model.decodeBeam(Srcs[SI], Width, A, P);
          ASSERT_EQ(Got.size(), Want.size())
              << "source " << SI << " width " << Width << " plan "
              << (P != nullptr) << " mask " << (A != nullptr);
          for (size_t I = 0; I < Want.size(); ++I) {
            EXPECT_EQ(Got[I].Tokens, Want[I].Tokens)
                << "source " << SI << " width " << Width << " rank " << I;
            EXPECT_EQ(std::memcmp(&Got[I].Score, &Want[I].Score,
                                  sizeof(double)),
                      0)
                << "source " << SI << " width " << Width << " rank " << I
                << ": " << Got[I].Score << " vs " << Want[I].Score;
          }
        }
}
