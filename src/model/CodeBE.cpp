//===- model/CodeBE.cpp - The CodeBE transformer ----------------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "model/CodeBE.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/RNG.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

using namespace vega;

uint64_t CodeBEConfig::fingerprint() const {
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ULL;
  };
  Mix(static_cast<uint64_t>(DModel));
  Mix(static_cast<uint64_t>(Heads));
  Mix(static_cast<uint64_t>(EncLayers));
  Mix(static_cast<uint64_t>(DecLayers));
  Mix(static_cast<uint64_t>(FFDim));
  Mix(static_cast<uint64_t>(MaxSrcLen));
  Mix(static_cast<uint64_t>(MaxDstLen));
  Mix(Seed);
  return H;
}

CodeBE::CodeBE(Vocab Vocabulary, CodeBEConfig Config)
    : Vocabulary(std::move(Vocabulary)), Config(Config) {
  RNG Seeder(Config.Seed);
  const int D = Config.DModel;
  float S = 0.08f;
  auto P = [&](int R, int C) { return makeParam(R, C, S, Seeder.next()); };

  // Token embeddings start at zero: a token's embedding is its word-piece
  // composition until fine-tuning learns a residual. Unseen-at-training
  // tokens therefore embed purely through their pieces instead of through
  // untrained random noise — the property that lets value selection
  // generalize to a new target's identifiers.
  Etok = makeTensor(static_cast<int>(this->Vocabulary.size()), D,
                    /*RequiresGrad=*/true);
  Epiece = P(static_cast<int>(this->Vocabulary.pieceCount()) + 64, D);
  EposSrc = P(Config.MaxSrcLen, D);
  EposDst = P(Config.MaxDstLen + 1, D);

  auto MakeLinear = [&](int In, int Out) {
    LinearP L;
    L.W = P(In, Out);
    L.B = makeTensor(1, Out, true);
    return L;
  };
  auto MakeLN = [&](int Width) {
    LNP L;
    L.G = makeTensor(1, Width, true);
    for (float &V : L.G->Data)
      V = 1.0f;
    L.B = makeTensor(1, Width, true);
    return L;
  };
  auto MakeMHA = [&] {
    MHAP M;
    M.Q = MakeLinear(D, D);
    M.K = MakeLinear(D, D);
    M.V = MakeLinear(D, D);
    M.O = MakeLinear(D, D);
    return M;
  };
  for (int I = 0; I < Config.EncLayers; ++I) {
    EncLayerP L;
    L.Self = MakeMHA();
    L.N1 = MakeLN(D);
    L.F1 = MakeLinear(D, Config.FFDim);
    L.F2 = MakeLinear(Config.FFDim, D);
    L.N2 = MakeLN(D);
    Enc.push_back(std::move(L));
  }
  for (int I = 0; I < Config.DecLayers; ++I) {
    DecLayerP L;
    L.Self = MakeMHA();
    L.N1 = MakeLN(D);
    L.Cross = MakeMHA();
    L.N2 = MakeLN(D);
    L.F1 = MakeLinear(D, Config.FFDim);
    L.F2 = MakeLinear(Config.FFDim, D);
    L.N3 = MakeLN(D);
    Dec.push_back(std::move(L));
  }
  CopyProj = MakeLinear(D, D);
  CopyGate = makeTensor(1, 1, true);
  CopyGate->Data[0] = 3.0f;
  SrcBias = makeTensor(1, 1, true);
  SrcBias->Data[0] = 1.0f;
}

std::vector<TensorPtr> CodeBE::parameters() const {
  std::vector<TensorPtr> Params = {Etok,       Epiece,     EposSrc, EposDst,
                                   CopyProj.W, CopyProj.B, CopyGate, SrcBias};
  auto AddMHA = [&](const MHAP &M) {
    for (const LinearP *L : {&M.Q, &M.K, &M.V, &M.O}) {
      Params.push_back(L->W);
      Params.push_back(L->B);
    }
  };
  for (const EncLayerP &L : Enc) {
    AddMHA(L.Self);
    Params.push_back(L.N1.G);
    Params.push_back(L.N1.B);
    Params.push_back(L.F1.W);
    Params.push_back(L.F1.B);
    Params.push_back(L.F2.W);
    Params.push_back(L.F2.B);
    Params.push_back(L.N2.G);
    Params.push_back(L.N2.B);
  }
  for (const DecLayerP &L : Dec) {
    AddMHA(L.Self);
    Params.push_back(L.N1.G);
    Params.push_back(L.N1.B);
    AddMHA(L.Cross);
    Params.push_back(L.N2.G);
    Params.push_back(L.N2.B);
    Params.push_back(L.F1.W);
    Params.push_back(L.F1.B);
    Params.push_back(L.F2.W);
    Params.push_back(L.F2.B);
    Params.push_back(L.N3.G);
    Params.push_back(L.N3.B);
  }
  return Params;
}

TensorPtr CodeBE::linear(const TensorPtr &X, const LinearP &P) {
  return addRow(matmul(X, P.W), P.B);
}

namespace {

/// linear() for one row on raw buffers: the matmul and addRow forward
/// kernels in the same order, so Y is bit-identical to linear()'s row.
void linearRow(const float *X, const TensorPtr &W, const TensorPtr &B,
               float *Y) {
  const int K = W->Rows, N = W->Cols;
  std::fill(Y, Y + N, 0.0f);
  detail::gemmAccum(X, W->Data.data(), Y, 1, K, N);
  detail::addBiasRows(Y, B->Data.data(), Y, 1, N);
}

/// One gemmNT element: +0 plus every product in ascending order.
float dotChain(const float *A, const float *B, int K) {
  float Acc = 0.0f;
  for (int P = 0; P < K; ++P)
    Acc += A[P] * B[P];
  return Acc;
}

/// A no-grad copy of \p T transposed.
TensorPtr transposed(const Tensor &T) {
  TensorPtr Out = makeTensor(T.Cols, T.Rows);
  for (int R = 0; R < T.Rows; ++R)
    for (int C = 0; C < T.Cols; ++C)
      Out->at(C, R) = T.at(R, C);
  return Out;
}

/// A no-grad 1×N tensor holding a copy of \p Row.
TensorPtr rowTensor(const float *Row, int N) {
  TensorPtr T = makeTensor(1, N);
  std::copy(Row, Row + N, T->Data.begin());
  return T;
}

/// The plan bias map of \p Step, or null when the plan has none there.
const std::map<int, float> *planBias(const CodeBE::DecodePlan *Plan,
                                     int Step) {
  return Plan && Plan->Bias.size() > static_cast<size_t>(Step)
             ? &Plan->Bias[static_cast<size_t>(Step)]
             : nullptr;
}

/// Greedy choice over a plan step's admissible ids: the first id in
/// step-set order with the highest bias-adjusted logit, skipping ids
/// outside [0, Cols). \p LogitAt(K) returns the logit of StepSet[K];
/// \p BestV carries the running maximum in and out.
template <class LogitFn>
int argmaxPlanStep(const std::vector<int> &StepSet,
                   const std::map<int, float> *Bias, int Cols,
                   LogitFn LogitAt, float &BestV) {
  int Best = -1;
  for (size_t K = 0; K < StepSet.size(); ++K) {
    const int J = StepSet[K];
    if (J < 0 || J >= Cols)
      continue;
    float Score = LogitAt(K);
    if (Bias) {
      auto It = Bias->find(J);
      if (It != Bias->end())
        Score += It->second;
    }
    if (Score > BestV) {
      BestV = Score;
      Best = J;
    }
  }
  return Best;
}

} // namespace

std::unique_ptr<Tensor> CodeBE::causalMask(int Len) const {
  auto Mask = std::make_unique<Tensor>(Len, Len, false);
  for (int I = 0; I < Len; ++I)
    for (int J = I + 1; J < Len; ++J)
      Mask->at(I, J) = -1e9f;
  return Mask;
}

TensorPtr CodeBE::attention(const TensorPtr &XQ, const TensorPtr &XKV,
                            const MHAP &P, const Tensor *Mask) {
  const int D = Config.DModel;
  const int H = Config.Heads;
  const int Dk = D / H;
  TensorPtr Q = linear(XQ, P.Q);
  TensorPtr K = linear(XKV, P.K);
  TensorPtr V = linear(XKV, P.V);
  std::vector<TensorPtr> Heads;
  float Scale = 1.0f / std::sqrt(static_cast<float>(Dk));
  for (int HIdx = 0; HIdx < H; ++HIdx) {
    TensorPtr Qh = sliceCols(Q, HIdx * Dk, Dk);
    TensorPtr Kh = sliceCols(K, HIdx * Dk, Dk);
    TensorPtr Vh = sliceCols(V, HIdx * Dk, Dk);
    TensorPtr Scores = scale(matmulNT(Qh, Kh), Scale);
    TensorPtr A = softmaxRows(Scores, Mask);
    Heads.push_back(matmul(A, Vh));
  }
  return linear(concatCols(Heads), P.O);
}

TensorPtr CodeBE::encLayer(const TensorPtr &X, EncLayerP &L) {
  TensorPtr A = attention(X, X, L.Self, nullptr);
  TensorPtr Y = layerNorm(add(X, A), L.N1.G, L.N1.B);
  TensorPtr F = linear(relu(linear(Y, L.F1)), L.F2);
  return layerNorm(add(Y, F), L.N2.G, L.N2.B);
}

TensorPtr CodeBE::decLayer(const TensorPtr &X, const TensorPtr &Memory,
                           DecLayerP &L, const Tensor *CausalMask) {
  TensorPtr A = attention(X, X, L.Self, CausalMask);
  TensorPtr Y = layerNorm(add(X, A), L.N1.G, L.N1.B);
  TensorPtr C = attention(Y, Memory, L.Cross, nullptr);
  TensorPtr Z = layerNorm(add(Y, C), L.N2.G, L.N2.B);
  TensorPtr F = linear(relu(linear(Z, L.F1)), L.F2);
  return layerNorm(add(Z, F), L.N3.G, L.N3.B);
}

TensorPtr CodeBE::embed(const std::vector<int> &Ids, const TensorPtr &Pos) {
  std::vector<std::vector<int>> Lists;
  Lists.reserve(Ids.size());
  for (int Id : Ids)
    Lists.push_back(Vocabulary.pieceLists()[static_cast<size_t>(Id)]);
  TensorPtr Tok = add(gatherRows(Etok, Ids), sparseMix(Epiece, Lists));
  std::vector<int> Positions(Ids.size());
  for (size_t I = 0; I < Ids.size(); ++I)
    Positions[I] = static_cast<int>(I) < Pos->Rows ? static_cast<int>(I)
                                                   : Pos->Rows - 1;
  return add(Tok, gatherRows(Pos, Positions));
}

TensorPtr CodeBE::runEncoder(const std::vector<int> &Src) {
  TensorPtr X = embed(Src, EposSrc);
  for (EncLayerP &L : Enc)
    X = encLayer(X, L);
  return X;
}

TensorPtr CodeBE::runDecoder(const TensorPtr &Memory,
                             const std::vector<int> &DstIn) {
  TensorPtr X = embed(DstIn, EposDst);
  std::unique_ptr<Tensor> Mask = causalMask(static_cast<int>(DstIn.size()));
  for (DecLayerP &L : Dec)
    X = decLayer(X, Memory, L, Mask.get());
  return X;
}

TensorPtr CodeBE::combinedEmbeddings() {
  return add(Etok, sparseMix(Epiece, Vocabulary.pieceLists()));
}

void CodeBE::refreshCombCache() {
  std::lock_guard<std::mutex> Lock(CombMu);
  if (!CombDirty.load(std::memory_order_acquire))
    return; // another thread already rebuilt it
  NoGradGuard Guard;
  CombT = transposed(*combinedEmbeddings());
  CombDirty.store(false, std::memory_order_release);
}

TensorPtr CodeBE::combT() {
  if (CombDirty.load(std::memory_order_acquire))
    refreshCombCache();
  return CombT;
}

void CodeBE::prepareGenerate() { combT(); }

TensorPtr CodeBE::presenceFor(int Rows, const std::vector<int> &SrcIds) {
  // Source-presence bias: a learned uniform boost for every distinct token
  // that occurs in the input (pointer-network prior).
  std::vector<int> UniqueSrc;
  {
    std::vector<uint8_t> Seen(Vocabulary.size(), 0);
    for (int Id : SrcIds)
      if (!Seen[static_cast<size_t>(Id)]) {
        Seen[static_cast<size_t>(Id)] = 1;
        UniqueSrc.push_back(Id);
      }
  }
  TensorPtr Ones = makeTensor(Rows, static_cast<int>(UniqueSrc.size()),
                              /*RequiresGrad=*/false);
  for (float &V : Ones->Data)
    V = 1.0f;
  return copyScatter(Ones, UniqueSrc, static_cast<int>(Vocabulary.size()));
}

TensorPtr CodeBE::logitsFor(const TensorPtr &DecOut, const TensorPtr &Memory,
                            const std::vector<int> &SrcIds, bool UseCombCache,
                            const TensorPtr &CachedPresence,
                            const TensorPtr &CombOverride) {
  TensorPtr Base;
  if (UseCombCache) {
    // gemmDense against the transposed cache is bit-identical to
    // matmulNT(DecOut, Comb); inference records no tape.
    assert(NoGradGuard::active() && "the embedding cache has no gradient");
    TensorPtr CT = combT();
    Base = makeTensor(DecOut->Rows, CT->Cols);
    detail::gemmDense(DecOut->Data.data(), CT->Data.data(), Base->Data.data(),
                      DecOut->Rows, CT->Rows, CT->Cols);
  } else {
    // Training batches share one combined-embeddings node across all
    // example tapes (the Trainer builds it once per batch).
    Base = matmulNT(DecOut, CombOverride ? CombOverride : combinedEmbeddings());
  }
  // Pointer/copy head: attend the encoder memory and scatter the attention
  // mass onto the source token ids.
  float Scale = 1.0f / std::sqrt(static_cast<float>(Config.DModel));
  TensorPtr CScores = scale(matmulNT(linear(DecOut, CopyProj), Memory), Scale);
  TensorPtr A = softmaxRows(CScores);
  TensorPtr Copy = copyScatter(A, SrcIds, static_cast<int>(Vocabulary.size()));
  // The presence tensor is a pure function of (Rows, SrcIds); incremental
  // decoding hands in the one-row tensor it computed before the loop.
  TensorPtr Presence =
      CachedPresence && CachedPresence->Rows == DecOut->Rows
          ? CachedPresence
          : presenceFor(DecOut->Rows, SrcIds);
  if (NoGradGuard::active()) {
    // Inference fast path: the three vocabulary-wide tails fuse into one
    // in-place sweep over Base (a fresh GEMM result, so mutation is safe
    // with no tape). Each element performs the identical float operations
    // in the identical order as the add/scaleByScalar chain below, so the
    // logits are bit-for-bit the same.
    float CG = CopyGate->Data[0], SB = SrcBias->Data[0];
    for (size_t I = 0; I < Base->Data.size(); ++I)
      Base->Data[I] =
          (Base->Data[I] + Copy->Data[I] * CG) + Presence->Data[I] * SB;
    return Base;
  }
  return add(add(Base, scaleByScalar(Copy, CopyGate)),
             scaleByScalar(Presence, SrcBias));
}

TensorPtr CodeBE::trainLoss(const TrainPair &Pair, const TensorPtr &Comb) {
  std::vector<int> Src = Pair.Src;
  if (static_cast<int>(Src.size()) > Config.MaxSrcLen)
    Src.resize(static_cast<size_t>(Config.MaxSrcLen));
  std::vector<int> Dst = Pair.Dst;
  if (static_cast<int>(Dst.size()) > Config.MaxDstLen)
    Dst.resize(static_cast<size_t>(Config.MaxDstLen));
  if (Src.empty() || Dst.empty())
    return nullptr;

  std::vector<int> DstIn;
  DstIn.push_back(Vocabulary.e2dId());
  DstIn.insert(DstIn.end(), Dst.begin(), Dst.end() - 1);

  TensorPtr Memory = runEncoder(Src);
  TensorPtr DecOut = runDecoder(Memory, DstIn);
  TensorPtr Logits = logitsFor(DecOut, Memory, Src, /*UseCombCache=*/false,
                               /*CachedPresence=*/nullptr,
                               /*CombOverride=*/Comb);
  return crossEntropy(Logits, Dst);
}

/// An immutable, refcount-shared run of decoded self-attention K/V rows.
/// Prefix nodes form a parent chain from the most recent run back to the
/// root; assembled root-first they reproduce the chronological row order of
/// a single flat cache. Nodes are only ever created by KVCacheState::seal()
/// and never mutated afterwards, so any number of forked decodes (beam
/// hypotheses, group members — possibly on different threads) can read a
/// shared prefix concurrently while extending their own private tails.
struct CodeBE::KVPrefix {
  std::shared_ptr<const KVPrefix> Parent;
  std::vector<std::vector<float>> K, V; ///< [layer], Rows×DModel
  int Rows = 0;                         ///< rows in this node alone
  int TotalRows = 0;                    ///< rows including the parent chain
};

/// Incremental decode scratch. SelfK/SelfV hold the per-layer K/V rows this
/// decode appended past the shared Prefix (row-major, tail-rows×DModel).
/// The cross-attention operands are computed once per encoder pass and are
/// read-only, so forks share them by pointer: CrossKT holds each head's
/// keys transposed (Dk×S) and CrossV its values (S×Dk); MemoryT is the
/// encoder memory transposed (DModel×S) for the copy head. Copying a sealed
/// state is the O(1) copy-on-write fork: the prefix chain and cross
/// operands are shared, the tail starts empty.
struct CodeBE::KVCacheState {
  TensorPtr Memory;
  TensorPtr MemoryT;
  std::vector<std::vector<TensorPtr>> CrossKT, CrossV; ///< [layer][head]
  std::shared_ptr<const KVPrefix> Prefix;              ///< sealed shared rows
  std::vector<std::vector<float>> SelfK, SelfV;        ///< [layer] owned tail
  int Len = 0; ///< total rows = prefix rows + tail rows

  int prefixRows() const { return Prefix ? Prefix->TotalRows : 0; }

  /// Freezes the owned tail into a new immutable prefix node (no-op on an
  /// empty tail). Must run before a state is copied as a fork — afterwards
  /// the copy and the original each extend a fresh private tail.
  void seal() {
    const int Tail = Len - prefixRows();
    if (Tail == 0)
      return;
    auto Node = std::make_shared<KVPrefix>();
    Node->Parent = std::move(Prefix);
    Node->K = std::move(SelfK);
    Node->V = std::move(SelfV);
    Node->Rows = Tail;
    Node->TotalRows = (Node->Parent ? Node->Parent->TotalRows : 0) + Tail;
    const size_t Layers = Node->K.size();
    SelfK.assign(Layers, {});
    SelfV.assign(Layers, {});
    Prefix = std::move(Node);
  }
};

/// Row buffers reused by every decodeStep/columnLogits call on one stream.
/// Buffers only grow (to the longest prefix and source seen), so a stream's
/// steady-state step performs no allocation.
struct CodeBE::StepScratch {
  std::vector<float> X, Q, K, V, Heads, Proj, Sum, Y, Z, FF;
  std::vector<float> Scores, Att; ///< [head] × attended rows
  std::vector<const KVPrefix *> Chain;
  /// Copy head: projected query, scores/attention over the source, and a
  /// vocabulary-wide mass row kept all-zero between calls.
  std::vector<float> CopyQ, CopyScores, CopyAtt, CopyRow;
  std::vector<float> ColLogits; ///< columnLogits output, one per step id
  std::vector<float> DecRows;   ///< beam: one decoder row per live hypothesis
  std::vector<float> Logits;    ///< rowLogits output, rows × vocabulary

  static float *fit(std::vector<float> &B, size_t N) {
    if (B.size() < N)
      B.resize(N);
    return B.data();
  }

  /// Returns CopyRow to all-zero after copyMass() scattered \p Input.
  void clearCopyRow(const std::vector<int> &Input) {
    for (int Id : Input)
      CopyRow[static_cast<size_t>(Id)] = 0.0f;
  }
};

/// Everything one in-flight decode owns: the truncated input, borrowed
/// constraint pointers, the KV scratch, and the partial result. Step/Done
/// carry the decode position across decodeStepMany() calls, so a stream can
/// be stepped in any interleaving with any other streams.
struct CodeBE::DecodeStream::Impl {
  std::vector<int> Input; ///< Src truncated to MaxSrcLen
  const std::vector<uint8_t> *Allowed = nullptr; ///< borrowed
  const DecodePlan *Plan = nullptr;              ///< borrowed
  bool WithProbs = false;
  KVCacheState St;
  StepScratch Scratch;
  TensorPtr PresenceRow;
  Decoded Result;
  int PrevTok = 0;
  int Step = 0;
  bool Done = false;
};

CodeBE::DecodeStream::DecodeStream() = default;
CodeBE::DecodeStream::DecodeStream(DecodeStream &&Other) noexcept = default;
CodeBE::DecodeStream &
CodeBE::DecodeStream::operator=(DecodeStream &&Other) noexcept = default;
CodeBE::DecodeStream::~DecodeStream() = default;

bool CodeBE::DecodeStream::done() const { return !I || I->Done; }

const CodeBE::Decoded &CodeBE::DecodeStream::partial() const {
  assert(I && "partial() on a moved-from stream");
  return I->Result;
}

void CodeBE::initCross(KVCacheState &St, const TensorPtr &Memory) {
  const int Dk = Config.DModel / Config.Heads;
  St.Memory = Memory;
  St.MemoryT = transposed(*Memory);
  St.CrossKT.assign(Dec.size(), {});
  St.CrossV.assign(Dec.size(), {});
  St.SelfK.assign(Dec.size(), {});
  St.SelfV.assign(Dec.size(), {});
  for (size_t LI = 0; LI < Dec.size(); ++LI) {
    TensorPtr K = linear(Memory, Dec[LI].Cross.K);
    TensorPtr V = linear(Memory, Dec[LI].Cross.V);
    for (int HI = 0; HI < Config.Heads; ++HI) {
      St.CrossKT[LI].push_back(transposed(*sliceCols(K, HI * Dk, Dk)));
      St.CrossV[LI].push_back(sliceCols(V, HI * Dk, Dk));
    }
  }
}

const float *CodeBE::decodeStep(KVCacheState &St, StepScratch &S,
                                int TokenId) {
  // Every statement below is the raw-kernel form of the tensor op in
  // decLayer()/attention(), performing the same float operations in the
  // same order, so the output row is bit-identical to the taped decoder's.
  const int D = Config.DModel, H = Config.Heads, Dk = D / H;
  const float AttnScale = 1.0f / std::sqrt(static_cast<float>(Dk));
  const int Len = St.Len + 1;
  const int Src = St.Memory->Rows;
  const size_t Span = static_cast<size_t>(std::max(Len, Src));
  float *X = StepScratch::fit(S.X, D), *Q = StepScratch::fit(S.Q, D);
  float *K = StepScratch::fit(S.K, D), *V = StepScratch::fit(S.V, D);
  float *Heads = StepScratch::fit(S.Heads, D);
  float *Proj = StepScratch::fit(S.Proj, D), *Sum = StepScratch::fit(S.Sum, D);
  float *Y = StepScratch::fit(S.Y, D), *Z = StepScratch::fit(S.Z, D);
  float *FF = StepScratch::fit(S.FF, static_cast<size_t>(Config.FFDim));
  float *Scores = StepScratch::fit(S.Scores, H * Span);
  float *Att = StepScratch::fit(S.Att, H * Span);

  // Embedding — embed() for one id at position St.Len: (token + piece mix)
  // + position.
  {
    const std::vector<int> &Pieces =
        Vocabulary.pieceLists()[static_cast<size_t>(TokenId)];
    std::fill(Sum, Sum + D, 0.0f);
    if (!Pieces.empty()) {
      const float Inv = 1.0f / static_cast<float>(Pieces.size());
      for (int P : Pieces) {
        const float *E = Epiece->Data.data() + static_cast<size_t>(P) * D;
        for (int J = 0; J < D; ++J)
          Sum[J] += E[J] * Inv;
      }
    }
    const int Pos = St.Len < EposDst->Rows ? St.Len : EposDst->Rows - 1;
    const float *Tok = Etok->Data.data() + static_cast<size_t>(TokenId) * D;
    const float *PosRow = EposDst->Data.data() + static_cast<size_t>(Pos) * D;
    for (int J = 0; J < D; ++J)
      X[J] = (Tok[J] + Sum[J]) + PosRow[J];
  }

  // Shared-prefix chain, root-first (chronological row order). Computed
  // once per step; the same chain serves every layer.
  S.Chain.clear();
  for (const KVPrefix *N = St.Prefix.get(); N; N = N->Parent.get())
    S.Chain.push_back(N);
  std::reverse(S.Chain.begin(), S.Chain.end());

  for (size_t LI = 0; LI < Dec.size(); ++LI) {
    DecLayerP &L = Dec[LI];
    // Self-attention over the cached prefix plus this row. Restricting the
    // keys to positions 0..Len-1 is bit-identical to the full causal-masked
    // pass: masked scores sit at ~-1e9, so their exp() underflows to
    // exactly 0.0f and they contribute nothing to max, sum, or the
    // attention-weighted value rows.
    linearRow(X, L.Self.Q.W, L.Self.Q.B, Q);
    linearRow(X, L.Self.K.W, L.Self.K.B, K);
    linearRow(X, L.Self.V.W, L.Self.V.B, V);
    std::vector<float> &KTail = St.SelfK[LI];
    std::vector<float> &VTail = St.SelfV[LI];
    KTail.insert(KTail.end(), K, K + D);
    VTail.insert(VTail.end(), V, V + D);
    // K/V rows are read in place: the prefix nodes root-first, then the
    // owned tail — the row order of a single flat cache.
    auto ForEachRun = [&](auto Fn) {
      int Row = 0;
      for (const KVPrefix *Node : S.Chain) {
        Fn(Node->K[LI].data(), Node->V[LI].data(), Row, Node->Rows);
        Row += Node->Rows;
      }
      Fn(KTail.data(), VTail.data(), Row, Len - Row);
    };
    ForEachRun([&](const float *KRows, const float *, int Row, int Rows) {
      for (int R = 0; R < Rows; ++R)
        for (int HI = 0; HI < H; ++HI)
          Scores[static_cast<size_t>(HI) * Len + Row + R] =
              dotChain(Q + HI * Dk,
                       KRows + static_cast<size_t>(R) * D + HI * Dk, Dk) *
              AttnScale;
    });
    for (int HI = 0; HI < H; ++HI)
      detail::softmaxRow(Scores + static_cast<size_t>(HI) * Len, nullptr,
                         Att + static_cast<size_t>(HI) * Len, Len);
    std::fill(Heads, Heads + D, 0.0f);
    ForEachRun([&](const float *, const float *VRows, int Row, int Rows) {
      for (int HI = 0; HI < H; ++HI)
        detail::gemmAccumStrided(Att + static_cast<size_t>(HI) * Len + Row,
                                 Rows, VRows + HI * Dk, D, Heads + HI * Dk, Dk,
                                 1, Rows, Dk);
    });
    linearRow(Heads, L.Self.O.W, L.Self.O.B, Proj);
    for (int J = 0; J < D; ++J)
      Sum[J] = X[J] + Proj[J];
    float Mean, InvStd;
    detail::layerNormRow(Sum, L.N1.G->Data.data(), L.N1.B->Data.data(), Y, D,
                         Mean, InvStd);

    // Cross-attention against the precomputed memory projections.
    linearRow(Y, L.Cross.Q.W, L.Cross.Q.B, Q);
    std::fill(Heads, Heads + D, 0.0f);
    for (int HI = 0; HI < H; ++HI) {
      float *Sc = Scores + static_cast<size_t>(HI) * Src;
      float *A = Att + static_cast<size_t>(HI) * Src;
      detail::gemmDense(Q + HI * Dk, St.CrossKT[LI][HI]->Data.data(), Sc, 1,
                        Dk, Src);
      for (int J = 0; J < Src; ++J)
        Sc[J] = Sc[J] * AttnScale;
      detail::softmaxRow(Sc, nullptr, A, Src);
      detail::gemmAccum(A, St.CrossV[LI][HI]->Data.data(), Heads + HI * Dk, 1,
                        Src, Dk);
    }
    linearRow(Heads, L.Cross.O.W, L.Cross.O.B, Proj);
    for (int J = 0; J < D; ++J)
      Sum[J] = Y[J] + Proj[J];
    detail::layerNormRow(Sum, L.N2.G->Data.data(), L.N2.B->Data.data(), Z, D,
                         Mean, InvStd);

    linearRow(Z, L.F1.W, L.F1.B, FF);
    for (int J = 0; J < Config.FFDim; ++J)
      FF[J] = FF[J] > 0.0f ? FF[J] : 0.0f;
    linearRow(FF, L.F2.W, L.F2.B, Proj);
    for (int J = 0; J < D; ++J)
      Sum[J] = Z[J] + Proj[J];
    detail::layerNormRow(Sum, L.N3.G->Data.data(), L.N3.B->Data.data(), X, D,
                         Mean, InvStd);
  }
  ++St.Len;
  return X;
}

const float *CodeBE::copyMass(const float *DecRow, const KVCacheState &St,
                              const std::vector<int> &Input, StepScratch &S) {
  const int D = Config.DModel;
  const int Src = St.Memory->Rows;
  float *CopyQ = StepScratch::fit(S.CopyQ, D);
  float *CScores = StepScratch::fit(S.CopyScores, Src);
  float *CAtt = StepScratch::fit(S.CopyAtt, Src);
  if (S.CopyRow.size() != Vocabulary.size())
    S.CopyRow.assign(Vocabulary.size(), 0.0f);
  float *CopyRow = S.CopyRow.data();
  linearRow(DecRow, CopyProj.W, CopyProj.B, CopyQ);
  detail::gemmDense(CopyQ, St.MemoryT->Data.data(), CScores, 1, D, Src);
  const float Scale = 1.0f / std::sqrt(static_cast<float>(D));
  for (int J = 0; J < Src; ++J)
    CScores[J] = CScores[J] * Scale;
  detail::softmaxRow(CScores, nullptr, CAtt, Src);
  for (int J = 0; J < Src; ++J)
    CopyRow[Input[static_cast<size_t>(J)]] += CAtt[J];
  return CopyRow;
}

void CodeBE::rowLogits(const float *DecRows, int M, const KVCacheState &St,
                       const std::vector<int> &Input,
                       const Tensor &PresenceRow, StepScratch &S, float *Out) {
  const int D = Config.DModel;
  const int V = static_cast<int>(Vocabulary.size());
  TensorPtr CT = combT();
  detail::gemmDense(DecRows, CT->Data.data(), Out, M, D, V);
  const float CG = CopyGate->Data[0], SB = SrcBias->Data[0];
  const float *Presence = PresenceRow.Data.data();
  for (int I = 0; I < M; ++I) {
    const float *CopyRow =
        copyMass(DecRows + static_cast<size_t>(I) * D, St, Input, S);
    float *Row = Out + static_cast<size_t>(I) * V;
    for (int J = 0; J < V; ++J)
      Row[J] = (Row[J] + CopyRow[J] * CG) + Presence[J] * SB;
    S.clearCopyRow(Input);
  }
}

void CodeBE::columnLogits(const float *DecRow, const KVCacheState &St,
                          const std::vector<int> &Input,
                          const Tensor &PresenceRow,
                          const std::vector<int> &Ids, StepScratch &S,
                          float *Out) {
  const int D = Config.DModel;
  const int V = static_cast<int>(Vocabulary.size());
  const float *CopyRow = copyMass(DecRow, St, Input, S);
  const float CG = CopyGate->Data[0], SB = SrcBias->Data[0];
  const float *Presence = PresenceRow.Data.data();
  TensorPtr CT = combT();
  for (size_t K = 0; K < Ids.size(); ++K) {
    const int J = Ids[K];
    if (J < 0 || J >= V)
      continue;
    const float *Col = CT->Data.data() + J;
    float Base = 0.0f;
    for (int P = 0; P < D; ++P)
      Base += DecRow[P] * Col[static_cast<size_t>(P) * V];
    Out[K] = (Base + CopyRow[J] * CG) + Presence[J] * SB;
  }
  S.clearCopyRow(Input);
}

CodeBE::RouteLogits CodeBE::routeLogits(const std::vector<int> &Src,
                                       const std::vector<int> &DstIn,
                                       int RowsPerCall,
                                       const std::vector<int> &Ids) {
  NoGradGuard Guard;
  std::vector<int> Input = Src;
  if (static_cast<int>(Input.size()) > Config.MaxSrcLen)
    Input.resize(static_cast<size_t>(Config.MaxSrcLen));
  KVCacheState St;
  initCross(St, runEncoder(Input));
  StepScratch S;
  TensorPtr PresenceRow = presenceFor(1, Input);
  const size_t D = static_cast<size_t>(Config.DModel);
  const size_t V = Vocabulary.size(), T = DstIn.size();
  RouteLogits Out;
  Out.Cols.assign(T * Ids.size(), std::numeric_limits<float>::quiet_NaN());
  std::vector<float> DecRows(T * D);
  for (size_t I = 0; I < T; ++I) {
    const float *Row = decodeStep(St, S, DstIn[I]);
    std::copy(Row, Row + D, DecRows.data() + I * D);
    columnLogits(Row, St, Input, *PresenceRow, Ids, S,
                 Out.Cols.data() + I * Ids.size());
    TensorPtr Cached = logitsFor(rowTensor(Row, Config.DModel), St.Memory,
                                 Input, /*UseCombCache=*/true, PresenceRow);
    Out.CachedRows.insert(Out.CachedRows.end(), Cached->Data.begin(),
                          Cached->Data.end());
  }
  Out.Rows.assign(T * V, 0.0f);
  const size_t Step = static_cast<size_t>(std::max(RowsPerCall, 1));
  for (size_t I = 0; I < T; I += Step)
    rowLogits(DecRows.data() + I * D, static_cast<int>(std::min(Step, T - I)),
              St, Input, *PresenceRow, S, Out.Rows.data() + I * V);
  return Out;
}

int CodeBE::chooseGreedy(const float *Row, int Cols,
                         const std::vector<uint8_t> *Allowed,
                         const DecodePlan *Plan, int Step, bool WithProbs,
                         double &Prob) const {
  // Greedy choice over the row, restricted to the admissible set.
  const std::vector<int> *StepSet =
      Plan && !Plan->Steps[static_cast<size_t>(Step)].empty()
          ? &Plan->Steps[static_cast<size_t>(Step)]
          : nullptr;
  int Best = -1;
  float BestV = -1e30f;
  if (StepSet) {
    Best = argmaxPlanStep(
        *StepSet, planBias(Plan, Step), Cols,
        [&](size_t K) { return Row[(*StepSet)[K]]; }, BestV);
  } else {
    auto IsAllowed = [&](int Id) {
      if (!Allowed)
        return true;
      if (Id == Vocabulary.eosId() || Vocabulary.isCsToken(Id))
        return true;
      return static_cast<size_t>(Id) < Allowed->size() &&
             (*Allowed)[static_cast<size_t>(Id)] != 0;
    };
    for (int J = 0; J < Cols; ++J) {
      if (!IsAllowed(J))
        continue;
      if (Row[J] > BestV) {
        BestV = Row[J];
        Best = J;
      }
    }
  }
  if (Best < 0)
    return -1;
  // Softmax probability of the chosen token over the full vocabulary, in
  // a single fused pass: an online softmax keeps a running maximum and a
  // sum rescaled whenever the maximum moves, replacing the separate
  // max-then-sum sweeps of the row. Seeding the maximum at BestV keeps
  // the anchor at the global maximum even when a plan bias lifted the
  // winner above every raw logit. Callers that ignore probabilities
  // skip the sweep entirely (a vocabulary of exp() calls per step).
  Prob = 1.0;
  if (WithProbs) {
    float MaxAll = BestV;
    double Sum = 0.0;
    for (int J = 0; J < Cols; ++J) {
      float V = Row[J];
      if (V > MaxAll) {
        Sum = Sum * std::exp(static_cast<double>(MaxAll - V)) + 1.0;
        MaxAll = V;
      } else {
        Sum += std::exp(static_cast<double>(V - MaxAll));
      }
    }
    Prob = std::exp(static_cast<double>(BestV - MaxAll)) / Sum;
  }
  return Best;
}

bool CodeBE::decodeGreedyKV(KVCacheState &St, StepScratch &S,
                            const std::vector<int> &Input,
                            const std::vector<uint8_t> *Allowed,
                            const DecodePlan *Plan, bool WithProbs, int Begin,
                            int End, const TensorPtr &PresenceRow,
                            int &PrevTok, Decoded &Result) {
  for (int Step = Begin; Step < End; ++Step) {
    // Positions past the plan end the statement.
    if (Plan && static_cast<size_t>(Step) >= Plan->Steps.size())
      return true;
    const std::vector<int> *StepSet =
        Plan && !Plan->Steps[static_cast<size_t>(Step)].empty()
            ? &Plan->Steps[static_cast<size_t>(Step)]
            : nullptr;
    // Pinned-step fast path: when the plan admits exactly one token and the
    // caller skipped probabilities, the argmax over the singleton is forced
    // and the vocabulary-wide logit projection — the dominant GEMM of the
    // step — can be skipped outright. decodeStep still runs, so the KV
    // cache holds exactly the rows the logits path would have produced, and
    // the out-of-range and [EOS] break conditions mirror the argmax path, so
    // the output equals the FullRecompute reference byte for byte.
    if (!WithProbs && StepSet && StepSet->size() == 1) {
      const int J = (*StepSet)[0];
      if (J < 0 || J >= static_cast<int>(Vocabulary.size()))
        return true; // the argmax would find nothing admissible
      decodeStep(St, S, PrevTok);
      if (J == Vocabulary.eosId())
        return true;
      Result.Tokens.push_back(J);
      PrevTok = J;
      continue;
    }
    const float *Row = decodeStep(St, S, PrevTok);
    double Prob = 1.0;
    int Best;
    if (StepSet && !WithProbs) {
      // Admissible-column route: the argmax reads only the step set, so
      // only its columns of the logits row are computed — bit-identical
      // to those columns of the full row (columnLogits).
      float *Cols = StepScratch::fit(S.ColLogits, StepSet->size());
      columnLogits(Row, St, Input, *PresenceRow, *StepSet, S, Cols);
      float BestV = -1e30f;
      Best = argmaxPlanStep(
          *StepSet, planBias(Plan, Step), static_cast<int>(Vocabulary.size()),
          [&](size_t K) { return Cols[K]; }, BestV);
    } else {
      const int V = static_cast<int>(Vocabulary.size());
      float *Logits = StepScratch::fit(S.Logits, static_cast<size_t>(V));
      rowLogits(Row, 1, St, Input, *PresenceRow, S, Logits);
      Best = chooseGreedy(Logits, V, Allowed, Plan, Step, WithProbs, Prob);
    }
    if (Best < 0 || Best == Vocabulary.eosId())
      return true;
    Result.Tokens.push_back(Best);
    if (WithProbs)
      Result.Probs.push_back(Prob);
    PrevTok = Best;
  }
  return false;
}

CodeBE::DecodeStream CodeBE::beginDecode(const std::vector<int> &Src,
                                         const std::vector<uint8_t> *Allowed,
                                         const DecodePlan *Plan,
                                         bool WithProbs) {
  // Inference never backpropagates: build no tape, so every intermediate
  // tensor dies at the end of its statement instead of living until the
  // decode finishes.
  NoGradGuard Guard;
  DecodeStream S;
  S.I = std::make_unique<DecodeStream::Impl>();
  DecodeStream::Impl &D = *S.I;
  D.Input = Src;
  if (static_cast<int>(D.Input.size()) > Config.MaxSrcLen)
    D.Input.resize(static_cast<size_t>(Config.MaxSrcLen));
  D.Allowed = Allowed;
  D.Plan = Plan;
  D.WithProbs = WithProbs;
  TensorPtr Memory;
  {
    obs::Span EncSpan("model.encode", "model");
    Memory = runEncoder(D.Input);
  }
  initCross(D.St, Memory);
  // The one-row presence bias is constant across all incremental steps.
  D.PresenceRow = presenceFor(1, D.Input);
  D.PrevTok = Vocabulary.e2dId();
  return S;
}

CodeBE::DecodeStream
CodeBE::forkDecode(const KVCacheState &Proto, const Decoded &PrefixOut,
                   int PrevTok, int Step, const std::vector<int> &Input,
                   const std::vector<uint8_t> *Allowed, const DecodePlan *Plan,
                   const TensorPtr &PresenceRow) {
  DecodeStream S;
  S.I = std::make_unique<DecodeStream::Impl>();
  DecodeStream::Impl &D = *S.I;
  D.Input = Input;
  D.Allowed = Allowed;
  D.Plan = Plan;
  D.St = Proto; // CoW fork: shared sealed prefix, private tail
  D.PresenceRow = PresenceRow;
  D.Result = PrefixOut;
  D.PrevTok = PrevTok;
  D.Step = Step;
  return S;
}

size_t CodeBE::decodeStepMany(const std::vector<DecodeStream *> &Streams) {
  NoGradGuard Guard;
  size_t Live = 0;
  for (DecodeStream *S : Streams) {
    assert(S && S->I && "stepping a consumed or moved-from stream");
    DecodeStream::Impl &D = *S->I;
    if (D.Done)
      continue;
    if (D.Step >= Config.MaxDstLen) {
      D.Done = true;
      continue;
    }
    // One position of the KV-cached greedy loop — exactly the iteration
    // body a whole-range decodeGreedyKV call would run at this step, with
    // the state (cache, previous token, partial result) carried in the
    // stream. A stream therefore produces the same bytes whether it is
    // stepped alone or interleaved with any co-batch.
    const bool Ended =
        decodeGreedyKV(D.St, D.Scratch, D.Input, D.Allowed, D.Plan,
                       D.WithProbs, D.Step, D.Step + 1, D.PresenceRow,
                       D.PrevTok, D.Result);
    ++D.Step;
    if (Ended || D.Step >= Config.MaxDstLen)
      D.Done = true;
    else
      ++Live;
  }
  return Live;
}

CodeBE::Decoded CodeBE::finishDecode(DecodeStream S) {
  assert(S.I && "finishing a consumed or moved-from stream");
  std::vector<DecodeStream *> Solo = {&S};
  while (decodeStepMany(Solo) > 0) {
  }
  return std::move(S.I->Result);
}

CodeBE::Decoded CodeBE::generate(const std::vector<int> &Src,
                                 const std::vector<uint8_t> *Allowed,
                                 const DecodePlan *Plan, bool WithProbs) {
  NoGradGuard Guard;
  Decoded Result;
  if (Mode == DecodeMode::KVCache) {
    // The solo decode is one stream run to completion — the same step-level
    // path generateGroup() and the serve scheduler co-step many streams
    // through, so solo and co-batched requests cannot diverge.
    DecodeStream S = beginDecode(Src, Allowed, Plan, WithProbs);
    obs::Span DecSpan("model.decode", "model");
    Result = finishDecode(std::move(S));
  } else {
    std::vector<int> Input = Src;
    if (static_cast<int>(Input.size()) > Config.MaxSrcLen)
      Input.resize(static_cast<size_t>(Config.MaxSrcLen));
    TensorPtr Memory;
    {
      obs::Span EncSpan("model.encode", "model");
      Memory = runEncoder(Input);
    }
    obs::Span DecSpan("model.decode", "model");
    std::vector<int> DstIn = {Vocabulary.e2dId()};
    for (int Step = 0; Step < Config.MaxDstLen; ++Step) {
      // Positions past the plan end the statement.
      if (Plan && static_cast<size_t>(Step) >= Plan->Steps.size())
        break;
      TensorPtr DecOut = runDecoder(Memory, DstIn);
      TensorPtr Logits =
          logitsFor(DecOut, Memory, Input, /*UseCombCache=*/true);
      double Prob = 1.0;
      int Best = chooseGreedy(
          &Logits->Data[static_cast<size_t>(Logits->Rows - 1) * Logits->Cols],
          Logits->Cols, Allowed, Plan, Step, WithProbs, Prob);
      if (Best < 0 || Best == Vocabulary.eosId())
        break;
      Result.Tokens.push_back(Best);
      if (WithProbs)
        Result.Probs.push_back(Prob);
      DstIn.push_back(Best);
    }
  }
  auto &Metrics = obs::MetricsRegistry::instance();
  Metrics.addCounter("model.generate_calls");
  Metrics.observe("model.tokens_decoded",
                  static_cast<double>(Result.Tokens.size()), 0.0,
                  static_cast<double>(Config.MaxDstLen + 1), 16);
  return Result;
}

std::vector<CodeBE::Decoded>
CodeBE::generateGroup(const std::vector<GroupRequest> &Reqs, bool WithProbs) {
  std::vector<Decoded> Out(Reqs.size());
  if (Reqs.empty())
    return Out;

  // Sharing preconditions: KV decode without probabilities and a group that
  // actually coincides — identical encoder input and identical admissible
  // sets. Anything else falls back to per-request generate(), which is the
  // semantic baseline sharing must reproduce.
  bool Share = Mode == DecodeMode::KVCache && !WithProbs && Reqs.size() > 1;
  for (size_t I = 0; Share && I < Reqs.size(); ++I)
    if (!Reqs[I].Src)
      Share = false;
  for (size_t I = 1; Share && I < Reqs.size(); ++I) {
    if (*Reqs[I].Src != *Reqs[0].Src)
      Share = false;
    const std::vector<uint8_t> *A = Reqs[I].Allowed, *B = Reqs[0].Allowed;
    if ((A == nullptr) != (B == nullptr) || (A && *A != *B))
      Share = false;
  }
  if (!Share) {
    for (size_t I = 0; I < Reqs.size(); ++I)
      Out[I] = generate(Reqs[I].Src ? *Reqs[I].Src : std::vector<int>{},
                        Reqs[I].Allowed, Reqs[I].Plan, WithProbs);
    return Out;
  }

  // Longest common plan prefix: steps AND biases must agree position by
  // position (a bias shifts the argmax, so it is part of step identity).
  // A missing Bias entry and an empty map are the same thing.
  size_t Shared = SIZE_MAX;
  for (const GroupRequest &R : Reqs)
    Shared = std::min(Shared, R.Plan ? R.Plan->Steps.size() : 0);
  auto BiasAt = [](const DecodePlan *P, size_t Step) {
    static const std::map<int, float> Empty;
    return P->Bias.size() > Step ? &P->Bias[Step] : &Empty;
  };
  for (size_t S = 0; S < Shared; ++S)
    for (size_t I = 1; I < Reqs.size(); ++I)
      if (Reqs[I].Plan->Steps[S] != Reqs[0].Plan->Steps[S] ||
          *BiasAt(Reqs[I].Plan, S) != *BiasAt(Reqs[0].Plan, S)) {
        Shared = S;
        break;
      }

  NoGradGuard Guard;
  obs::Span GroupSpan("model.generate_group", "model");
  GroupSpan.arg("group", std::to_string(Reqs.size()));
  GroupSpan.arg("shared_steps", std::to_string(Shared));

  std::vector<int> Input = *Reqs[0].Src;
  if (static_cast<int>(Input.size()) > Config.MaxSrcLen)
    Input.resize(static_cast<size_t>(Config.MaxSrcLen));
  TensorPtr Memory;
  {
    obs::Span EncSpan("model.encode", "model");
    Memory = runEncoder(Input);
  }
  obs::Span DecSpan("model.decode", "model");

  // One decode scratch for the whole group: encoder memory and cross
  // projections are computed once and shared read-only by every fork.
  KVCacheState Proto;
  initCross(Proto, Memory);
  TensorPtr PresenceRow = presenceFor(1, Input);

  // Decode the common prefix once. Any request's plan stands in for the
  // group over [0, Shared) — the steps are identical by construction.
  Decoded PrefixOut;
  int PrevTok = Vocabulary.e2dId();
  StepScratch Scratch;
  bool Ended = Shared > 0 &&
               decodeGreedyKV(Proto, Scratch, Input, Reqs[0].Allowed,
                              Reqs[0].Plan, /*WithProbs=*/false, 0,
                              static_cast<int>(Shared), PresenceRow, PrevTok,
                              PrefixOut);

  auto &Metrics = obs::MetricsRegistry::instance();
  Metrics.addCounter("gen.prefix.hits",
                     static_cast<uint64_t>(Reqs.size() - 1));
  for (size_t I = 1; I < Reqs.size(); ++I)
    Metrics.observe("gen.prefix_reuse_tokens",
                    static_cast<double>(Proto.Len)); // shape declared centrally

  if (Ended) {
    // The decode finished inside the shared prefix, so every member's own
    // decode would have produced exactly these tokens.
    for (size_t I = 0; I < Reqs.size(); ++I)
      Out[I] = PrefixOut;
  } else {
    Proto.seal();
    Metrics.addCounter("gen.prefix.forks", static_cast<uint64_t>(Reqs.size()));
    // Fork every member copy-on-write off the sealed prefix and advance the
    // forks in lockstep — one KV-cached pass per member per step, retiring
    // members at EOS. Members are independent streams, so co-stepping is
    // byte-identical to running each tail to completion on its own.
    std::vector<DecodeStream> Tails;
    Tails.reserve(Reqs.size());
    for (size_t I = 0; I < Reqs.size(); ++I)
      Tails.push_back(forkDecode(Proto, PrefixOut, PrevTok,
                                 static_cast<int>(Shared), Input,
                                 Reqs[I].Allowed, Reqs[I].Plan, PresenceRow));
    std::vector<DecodeStream *> CoBatch;
    CoBatch.reserve(Tails.size());
    for (DecodeStream &T : Tails)
      CoBatch.push_back(&T);
    while (decodeStepMany(CoBatch) > 0) {
    }
    for (size_t I = 0; I < Reqs.size(); ++I)
      Out[I] = finishDecode(std::move(Tails[I]));
  }
  // Per-member accounting matches what the unshared fallback would emit.
  Metrics.addCounter("model.generate_calls",
                     static_cast<uint64_t>(Reqs.size()));
  for (const Decoded &D : Out)
    Metrics.observe("model.tokens_decoded", static_cast<double>(D.Tokens.size()),
                    0.0, static_cast<double>(Config.MaxDstLen + 1), 16);
  return Out;
}

std::vector<CodeBE::BeamHypothesis>
CodeBE::decodeBeam(const std::vector<int> &Src, int Width,
                   const std::vector<uint8_t> *Allowed,
                   const DecodePlan *Plan) {
  NoGradGuard Guard;
  if (Width < 1)
    Width = 1;
  obs::Span BeamSpan("beam.decode", "model");
  BeamSpan.arg("width", std::to_string(Width));

  std::vector<int> Input = Src;
  if (static_cast<int>(Input.size()) > Config.MaxSrcLen)
    Input.resize(static_cast<size_t>(Config.MaxSrcLen));
  TensorPtr Memory;
  {
    obs::Span EncSpan("model.encode", "model");
    Memory = runEncoder(Input);
  }

  // The shared decode scratch template: cross projections computed once and
  // shared read-only by every hypothesis; self K/V rows are forked per
  // hypothesis when the beam branches.
  KVCacheState Proto;
  initCross(Proto, Memory);

  auto IsAllowed = [&](int Id) {
    if (!Allowed)
      return true;
    if (Id == Vocabulary.eosId() || Vocabulary.isCsToken(Id))
      return true;
    return static_cast<size_t>(Id) < Allowed->size() &&
           (*Allowed)[static_cast<size_t>(Id)] != 0;
  };

  struct LiveBeam {
    KVCacheState St;
    std::vector<int> Tokens;
    double Score = 0.0;
    int PrevTok = 0;
  };
  std::vector<LiveBeam> Live;
  Live.push_back({Proto, {}, 0.0, Vocabulary.e2dId()});
  std::vector<BeamHypothesis> Finished;
  auto Retire = [&](LiveBeam &B) {
    Finished.push_back({std::move(B.Tokens), B.Score});
  };

  TensorPtr PresenceRow = presenceFor(1, Input);
  StepScratch Scratch;
  const size_t D = static_cast<size_t>(Config.DModel);
  const int V = static_cast<int>(Vocabulary.size());
  struct Expansion {
    size_t Parent;
    int Token;
    double Score;
  };
  std::vector<Expansion> Exps;
  for (int Step = 0; Step < Config.MaxDstLen && !Live.empty(); ++Step) {
    // Positions past the plan end every surviving statement, exactly like
    // the greedy loop.
    if (Plan && static_cast<size_t>(Step) >= Plan->Steps.size())
      break;
    const std::vector<int> *StepSet =
        Plan && !Plan->Steps[static_cast<size_t>(Step)].empty()
            ? &Plan->Steps[static_cast<size_t>(Step)]
            : nullptr;
    const std::map<int, float> *Bias =
        StepSet && Plan->Bias.size() > static_cast<size_t>(Step)
            ? &Plan->Bias[static_cast<size_t>(Step)]
            : nullptr;

    // Lockstep logits: step every live hypothesis through its own KV cache,
    // gather the decoder rows, and project them all in one GEMM. Each row's
    // logits are the bits a solo rowLogits call would produce.
    const size_t M = Live.size();
    float *DecRows = StepScratch::fit(Scratch.DecRows, M * D);
    for (size_t BI = 0; BI < M; ++BI) {
      const float *DecRow = decodeStep(Live[BI].St, Scratch, Live[BI].PrevTok);
      std::copy(DecRow, DecRow + D, DecRows + BI * D);
    }
    float *Logits = StepScratch::fit(Scratch.Logits, M * Vocabulary.size());
    rowLogits(DecRows, static_cast<int>(M), Proto, Input, *PresenceRow,
              Scratch, Logits);

    Exps.clear();
    for (size_t BI = 0; BI < M; ++BI) {
      const double Parent = Live[BI].Score;
      const float *Row = Logits + BI * Vocabulary.size();
      // Raw-row log-sum-exp: the same normalizer generate()'s confidence
      // pass divides by, so log P(token) = biasedLogit - LSE. A plan bias
      // can lift the winner above the raw maximum — that only shifts the
      // score, never breaks the ranking.
      float MaxRaw = -1e30f;
      for (int J = 0; J < V; ++J)
        if (Row[J] > MaxRaw)
          MaxRaw = Row[J];
      double Sum = 0.0;
      for (int J = 0; J < V; ++J)
        Sum += std::exp(static_cast<double>(Row[J] - MaxRaw));
      double LSE = static_cast<double>(MaxRaw) + std::log(Sum);
      if (StepSet) {
        for (int J : *StepSet) {
          if (J < 0 || J >= V)
            continue;
          float Val = Row[J];
          if (Bias) {
            auto It = Bias->find(J);
            if (It != Bias->end())
              Val += It->second;
          }
          Exps.push_back({BI, J, Parent + static_cast<double>(Val) - LSE});
        }
      } else {
        for (int J = 0; J < V; ++J)
          if (IsAllowed(J))
            Exps.push_back({BI, J, Parent + static_cast<double>(Row[J]) - LSE});
      }
    }
    if (Exps.empty())
      break; // no admissible continuation: surviving beams finish as-is

    // Deterministic selection: stable sort keeps expansion order (parent
    // rank, then admissible-set order) on exact score ties — the same
    // first-wins rule as greedy argmax.
    std::stable_sort(Exps.begin(), Exps.end(),
                     [](const Expansion &A, const Expansion &B) {
                       return A.Score > B.Score;
                     });
    std::vector<LiveBeam> Next;
    for (const Expansion &E : Exps) {
      if (static_cast<int>(Next.size()) >= Width)
        break;
      if (E.Token == Vocabulary.eosId()) {
        // [EOS] retires the hypothesis; like greedy, the terminator itself
        // is not part of the statement.
        Finished.push_back({Live[E.Parent].Tokens, E.Score});
        continue;
      }
      LiveBeam NB;
      // O(1) copy-on-write fork: freeze the parent's decoded rows into the
      // shared prefix chain (idempotent when several children fork the same
      // parent) instead of deep-copying Len×D floats per hypothesis.
      Live[E.Parent].St.seal();
      NB.St = Live[E.Parent].St;
      NB.Tokens = Live[E.Parent].Tokens;
      NB.Tokens.push_back(E.Token);
      NB.Score = E.Score;
      NB.PrevTok = E.Token;
      Next.push_back(std::move(NB));
    }
    Live = std::move(Next);
  }
  for (LiveBeam &B : Live)
    Retire(B);

  std::stable_sort(Finished.begin(), Finished.end(),
                   [](const BeamHypothesis &A, const BeamHypothesis &B) {
                     return A.Score > B.Score;
                   });
  std::vector<BeamHypothesis> Result;
  std::set<std::vector<int>> Seen;
  for (BeamHypothesis &H : Finished) {
    if (static_cast<int>(Result.size()) >= Width)
      break;
    if (!Seen.insert(H.Tokens).second)
      continue;
    Result.push_back(std::move(H));
  }

  auto &Metrics = obs::MetricsRegistry::instance();
  Metrics.addCounter("beam.decode_calls");
  Metrics.observe("beam.candidates", static_cast<double>(Result.size()), 0.0,
                  static_cast<double>(Width + 1), 16);
  return Result;
}

double CodeBE::exactMatch(const std::vector<TrainPair> &Data) {
  if (Data.empty())
    return 1.0;
  size_t Matches = 0;
  for (const TrainPair &Pair : Data) {
    Decoded Out = generate(Pair.Src);
    std::vector<int> Expected = Pair.Dst;
    if (!Expected.empty() && Expected.back() == Vocabulary.eosId())
      Expected.pop_back();
    if (static_cast<int>(Expected.size()) > Config.MaxDstLen)
      Expected.resize(static_cast<size_t>(Config.MaxDstLen));
    if (Out.Tokens == Expected)
      ++Matches;
  }
  return static_cast<double>(Matches) / static_cast<double>(Data.size());
}

std::string CodeBE::saveWeights() const {
  std::string Blob;
  uint64_t Magic = Config.fingerprint();
  Blob.append(reinterpret_cast<const char *>(&Magic), sizeof(Magic));
  for (const TensorPtr &P : parameters()) {
    uint64_t N = P->Data.size();
    Blob.append(reinterpret_cast<const char *>(&N), sizeof(N));
    Blob.append(reinterpret_cast<const char *>(P->Data.data()),
                N * sizeof(float));
  }
  return Blob;
}

bool CodeBE::loadWeights(const std::string &Blob) {
  size_t Pos = 0;
  auto Read = [&](void *Dst, size_t N) {
    if (Pos + N > Blob.size())
      return false;
    std::memcpy(Dst, Blob.data() + Pos, N);
    Pos += N;
    return true;
  };
  uint64_t Magic = 0;
  if (!Read(&Magic, sizeof(Magic)) || Magic != Config.fingerprint())
    return false;
  for (const TensorPtr &P : parameters()) {
    uint64_t N = 0;
    if (!Read(&N, sizeof(N)) || N != P->Data.size())
      return false;
    if (!Read(P->Data.data(), N * sizeof(float)))
      return false;
  }
  CombDirty = true;
  return Pos == Blob.size();
}
