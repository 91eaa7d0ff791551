//===- model/CodeBE.h - The CodeBE transformer -------------------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CodeBE (§3.3): a transformer encoder-decoder fine-tuned to map feature
/// vectors (input sequences) to confidence-scored statements (output
/// sequences). The paper fine-tunes UniXcoder (12 layers / 125M params on
/// 8×V100); this is the architecturally equivalent laptop-scale model:
/// token+position embeddings with word-piece composition (BPE stand-in),
/// multi-head self/cross attention, and a pointer/copy head — the
/// copy-from-input ability a large pre-trained code model brings for free.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_MODEL_CODEBE_H
#define VEGA_MODEL_CODEBE_H

#include "model/Autograd.h"
#include "model/Vocab.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace vega {

namespace model {
class Trainer;
} // namespace model

class CodeBEProbe;

/// Hyperparameters (paper §4.1.2 scaled down; see DESIGN.md §2).
struct CodeBEConfig {
  int DModel = 64;
  int Heads = 4;
  int EncLayers = 2;
  int DecLayers = 2;
  int FFDim = 192;
  int MaxSrcLen = 128;
  int MaxDstLen = 48;
  float LearningRate = 1e-3f;
  int Epochs = 2;
  int BatchSize = 8;
  uint64_t Seed = 42;

  /// A stable fingerprint of the architecture (for cache validation).
  uint64_t fingerprint() const;
};

/// One fine-tuning example: input sequence I_k → output sequence O_k.
struct TrainPair {
  std::vector<int> Src;
  std::vector<int> Dst; ///< starts with a CS bucket token, ends with [EOS]
};

/// The sequence-to-sequence model.
class CodeBE {
public:
  CodeBE(Vocab Vocabulary, CodeBEConfig Config);

  /// Greedy decode for \p Src. When \p Allowed is non-null (one byte per
  /// vocab id), decoding is constrained to the allowed set — the
  /// grammar-constrained decoding used during backend generation ([EOS] and
  /// the CS buckets are always allowed).
  struct Decoded {
    std::vector<int> Tokens;   ///< without the trailing [EOS]
    std::vector<double> Probs; ///< per-token chosen probability
  };

  /// Template-guided decoding plan: per output position, the set of
  /// admissible token ids (empty set = fall back to \p Allowed /
  /// unconstrained). Positions beyond the plan force [EOS]. This is how
  /// Stage 3 "customizes function templates": the skeleton is fixed, the
  /// model chooses confidence buckets and placeholder fillers.
  struct DecodePlan {
    std::vector<std::vector<int>> Steps;
    /// Optional per-position additive logit biases (e.g. the lexical
    /// affinity prior standing in for pre-trained subword morphology;
    /// DESIGN.md §2). Indexed like Steps; missing entries mean no bias.
    std::vector<std::map<int, float>> Bias;
  };

  /// When \p WithProbs is false, the per-token probability pass (a full
  /// softmax over the vocabulary at every step) is skipped and
  /// Decoded::Probs comes back empty; token choice is unaffected. Stage 3
  /// reads the confidence bucket, not the probabilities, so it decodes
  /// with WithProbs=false.
  Decoded generate(const std::vector<int> &Src,
                   const std::vector<uint8_t> *Allowed = nullptr,
                   const DecodePlan *Plan = nullptr, bool WithProbs = true);

  /// One member of a group decode (pointers must outlive the call).
  struct GroupRequest {
    const std::vector<int> *Src = nullptr;
    const std::vector<uint8_t> *Allowed = nullptr;
    const DecodePlan *Plan = nullptr;
  };

  /// Decodes every request, sharing work across the group when it is safe:
  /// requests with identical Src (and identical Allowed sets) run the
  /// encoder and the cross-attention projections once, decode the longest
  /// common prefix of their plans (steps AND biases must agree) once into a
  /// shared KV prefix, and fork copy-on-write per request for the
  /// divergent tail. Results are byte-identical to calling generate() per
  /// request with the same WithProbs — sharing only skips recomputation,
  /// never changes a choice. Falls back to per-request generate() whenever
  /// sharing cannot apply (mixed Src or Allowed, WithProbs, or
  /// FullRecompute mode). Emits gen.prefix.hits / gen.prefix.forks counters
  /// and the gen.prefix_reuse_tokens histogram when sharing fires.
  std::vector<Decoded> generateGroup(const std::vector<GroupRequest> &Reqs,
                                     bool WithProbs = false);

  /// One in-flight KV-cached greedy decode, advanced one output position at
  /// a time by decodeStepMany(). A stream owns its decode scratch (KV cache,
  /// presence row, partial result), so any number of streams can be stepped
  /// in any interleaving; the Allowed/Plan pointers passed to beginDecode()
  /// are borrowed and must outlive the stream (the GroupRequest contract).
  /// Move-only.
  class DecodeStream {
  public:
    DecodeStream(DecodeStream &&Other) noexcept;
    DecodeStream &operator=(DecodeStream &&Other) noexcept;
    DecodeStream(const DecodeStream &) = delete;
    DecodeStream &operator=(const DecodeStream &) = delete;
    ~DecodeStream();

    /// True once the decode ended (EOS, nothing admissible, plan exhausted,
    /// or MaxDstLen reached). Stepping a done stream is a no-op.
    bool done() const;

    /// Tokens chosen so far (the final result once done()).
    const Decoded &partial() const;

  private:
    friend class CodeBE;
    DecodeStream();
    struct Impl;
    std::unique_ptr<Impl> I;
  };

  /// Starts a stream for \p Src: runs the encoder, builds the
  /// cross-attention projections and the KV scratch, and leaves the stream
  /// ready for its first step. Streams always decode on the KV-cache path
  /// (like decodeBeam), regardless of the DecodeMode knob. generateGroup()
  /// co-steps its forked members through decodeStepMany(), and generate()
  /// itself is one stream run to completion, so solo and group decodes are
  /// the same code path and byte-identical.
  DecodeStream beginDecode(const std::vector<int> &Src,
                           const std::vector<uint8_t> *Allowed = nullptr,
                           const DecodePlan *Plan = nullptr,
                           bool WithProbs = false);

  /// Advances every live stream in \p Streams by exactly one output
  /// position — one KV-cached decoder pass per stream — retiring streams
  /// that end (EOS / plan exhausted / MaxDstLen). Done streams are skipped,
  /// so callers can admit new streams and retire finished ones between
  /// calls (continuous batching). Streams are independent: the result bytes
  /// of each stream never depend on which other streams share a call.
  /// Returns the number of streams still live after the step.
  size_t decodeStepMany(const std::vector<DecodeStream *> &Streams);

  /// Consumes the stream and returns its result, stepping it to completion
  /// first if it is not done. Emits no metrics — callers account for whole
  /// decodes (see generate()/generateGroup()).
  Decoded finishDecode(DecodeStream S);

  /// One ranked beam-search candidate.
  struct BeamHypothesis {
    std::vector<int> Tokens; ///< without the trailing [EOS]
    /// Sum of per-token log-probabilities under the same normalizer
    /// generate() uses for its confidence pass (plan biases included for
    /// the chosen token, so beam ranking agrees with greedy choice).
    double Score = 0.0;
  };

  /// Beam/top-k decoding for \p Src under the same constraints as
  /// generate(): up to \p Width hypotheses ranked best-first. Always runs
  /// on the KV-cache path (each hypothesis forks its own cache; the cross
  /// projections are shared read-only). Deterministic at any thread count:
  /// no RNG, and exact score ties resolve by expansion order (parent rank,
  /// then admissible-set order), so Width=1 reproduces the greedy decode.
  /// Duplicate token sequences are collapsed to their best-scoring copy.
  std::vector<BeamHypothesis> decodeBeam(const std::vector<int> &Src,
                                         int Width,
                                         const std::vector<uint8_t> *Allowed = nullptr,
                                         const DecodePlan *Plan = nullptr);

  /// Decode strategy. KVCache (the default) caches per-layer self-attention
  /// K/V rows and the cross-attention memory projections so each step does
  /// O(prefix) work instead of re-running the decoder over the whole prefix
  /// — bit-identical to FullRecompute because the causal mask zeroes future
  /// positions exactly (exp(-1e9) underflows to 0.0f) and every kernel
  /// keeps per-element accumulation order fixed. FullRecompute is kept as
  /// the reference path for equivalence tests and benchmarks.
  enum class DecodeMode { KVCache, FullRecompute };
  void setDecodeMode(DecodeMode M) { Mode = M; }
  DecodeMode decodeMode() const { return Mode; }

  /// Readies the model for concurrent generate() calls: forces the shared
  /// inference embedding cache fresh so worker threads never race to build
  /// it. generate() is safe to call from many threads afterwards, provided
  /// no training or loadWeights() runs concurrently.
  void prepareGenerate();

  /// Fraction of pairs whose greedy decode exactly matches Dst (the paper's
  /// Exact Match score, §4.1.2).
  double exactMatch(const std::vector<TrainPair> &Data);

  const Vocab &vocab() const { return Vocabulary; }
  const CodeBEConfig &config() const { return Config; }

  /// Raw weight blob (for on-disk caching of the fine-tuned model).
  std::string saveWeights() const;

  /// Restores weights; false on shape mismatch.
  bool loadWeights(const std::string &Blob);

private:
  struct LinearP {
    TensorPtr W, B;
  };
  struct LNP {
    TensorPtr G, B;
  };
  struct MHAP {
    LinearP Q, K, V, O;
  };
  struct EncLayerP {
    MHAP Self;
    LNP N1;
    LinearP F1, F2;
    LNP N2;
  };
  struct DecLayerP {
    MHAP Self;
    LNP N1;
    MHAP Cross;
    LNP N2;
    LinearP F1, F2;
    LNP N3;
  };

  /// An immutable, refcount-shared run of decoded K/V rows (see
  /// KVCacheState in CodeBE.cpp).
  struct KVPrefix;
  /// Per-call incremental decode scratch (one per generate() invocation,
  /// so concurrent decodes never share mutable state).
  struct KVCacheState;
  /// Reusable row buffers for decodeStep and the admissible-column logits
  /// (one per stream or beam search; never shared between threads).
  struct StepScratch;

  TensorPtr linear(const TensorPtr &X, const LinearP &P);
  /// Fills \p St's cross-attention operands for encoder output \p Memory
  /// (per-head Kᵀ and V, Memoryᵀ for the copy head) and sizes its K/V
  /// tails for the decoder layers.
  void initCross(KVCacheState &St, const TensorPtr &Memory);
  /// Feeds one token through the decoder using (and extending) the K/V
  /// cache, on raw row kernels over \p S (no Tensor is allocated); returns
  /// the new DModel-wide decoder output row, valid until \p S is reused.
  const float *decodeStep(KVCacheState &St, StepScratch &S, int TokenId);
  /// The inference combined embeddings, transposed (DModel×vocab): the one
  /// embedding cache, rebuilt by refreshCombCache() when the weights moved.
  TensorPtr combT();
  /// The copy head of logitsFor for decoder row \p DecRow: scaled scores
  /// against the encoder memory, a softmax over the source, and the
  /// attention mass scattered onto the source ids of \p Input in ascending
  /// source order (repeated ids accumulate exactly as copyScatter does).
  /// Returns S.CopyRow, a vocabulary-wide row; the caller hands it back
  /// all-zero through StepScratch::clearCopyRow.
  const float *copyMass(const float *DecRow, const KVCacheState &St,
                        const std::vector<int> &Input, StepScratch &S);
  /// Full logits rows for the \p M decoder rows at \p DecRows (M×DModel,
  /// all decoding \p Input): one gemmDense against combT(), then per row
  /// the copy head and the fused (base + copy·gate) + presence·bias tail.
  /// Row I of \p Out (M×vocab) is bit-identical to logitsFor's row for the
  /// same decoder output.
  void rowLogits(const float *DecRows, int M, const KVCacheState &St,
                 const std::vector<int> &Input, const Tensor &PresenceRow,
                 StepScratch &S, float *Out);
  /// The rowLogits row of decoder output \p DecRow evaluated only at \p Ids
  /// (Out[K] for Ids[K]; ids outside the vocabulary are left untouched):
  /// each column of combT() is one ascending +0 chain, the gemmDense
  /// element chain, so every value is bit-identical to that column of the
  /// full row.
  void columnLogits(const float *DecRow, const KVCacheState &St,
                    const std::vector<int> &Input, const Tensor &PresenceRow,
                    const std::vector<int> &Ids, StepScratch &S, float *Out);
  /// Every logits route over one teacher-forced KV decode, for the
  /// bit-equality tests: \p DstIn is fed one token at a time for input
  /// \p Src. Per position, Cols holds columnLogits at \p Ids (NaN where an
  /// id is skipped), Rows the rowLogits row (\p RowsPerCall decoder rows
  /// per call) and CachedRows the no-grad logitsFor row.
  struct RouteLogits {
    std::vector<float> Cols;       ///< |DstIn|×|Ids|
    std::vector<float> Rows;       ///< |DstIn|×vocab
    std::vector<float> CachedRows; ///< |DstIn|×vocab
  };
  RouteLogits routeLogits(const std::vector<int> &Src,
                          const std::vector<int> &DstIn, int RowsPerCall,
                          const std::vector<int> &Ids);
  TensorPtr attention(const TensorPtr &XQ, const TensorPtr &XKV,
                      const MHAP &P, const Tensor *Mask);
  TensorPtr encLayer(const TensorPtr &X, EncLayerP &L);
  TensorPtr decLayer(const TensorPtr &X, const TensorPtr &Memory,
                     DecLayerP &L, const Tensor *CausalMask);
  TensorPtr embed(const std::vector<int> &Ids, const TensorPtr &Pos);
  TensorPtr runEncoder(const std::vector<int> &Src);
  TensorPtr runDecoder(const TensorPtr &Memory, const std::vector<int> &DstIn);
  /// One-row-per-step decoding recomputes the source-presence bias tensor
  /// identically every step; presenceFor builds it once and logitsFor
  /// accepts it pre-computed (\p CachedPresence, matched on row count).
  TensorPtr presenceFor(int Rows, const std::vector<int> &SrcIds);
  /// Logits rows on Tensor ops: the taped training graph (\p CombOverride,
  /// or a fresh combinedEmbeddings()), and with \p UseCombCache the no-grad
  /// FullRecompute / routeLogits reference, whose base reads combT()
  /// through gemmDense.
  TensorPtr logitsFor(const TensorPtr &DecOut, const TensorPtr &Memory,
                      const std::vector<int> &SrcIds, bool UseCombCache,
                      const TensorPtr &CachedPresence = nullptr,
                      const TensorPtr &CombOverride = nullptr);
  /// Builds the full differentiable tape for one training pair — the
  /// encoder/decoder/logits/loss slice the Trainer fans out per example.
  /// \p Comb is the batch-shared combined-embeddings node; returns the 1×1
  /// loss, or nullptr for untrainable (empty-sided) pairs.
  TensorPtr trainLoss(const TrainPair &Pair, const TensorPtr &Comb);
  /// Greedy constrained argmax over the logits row \p Row (\p Cols wide)
  /// at plan step \p Step (bias-adjusted), plus — when \p WithProbs — the
  /// fused online-softmax probability of the winner. Returns -1 when
  /// nothing is admissible.
  int chooseGreedy(const float *Row, int Cols,
                   const std::vector<uint8_t> *Allowed, const DecodePlan *Plan,
                   int Step, bool WithProbs, double &Prob) const;
  /// Runs the KV-cache greedy loop over plan steps [Begin, End), extending
  /// \p St and appending chosen tokens to \p Result. \p PrevTok carries the
  /// last token fed to the decoder across calls. Returns true when the
  /// decode ended inside the range (EOS, no admissible token, or plan
  /// exhausted) — the caller must not continue it.
  /// Constrained steps without probabilities choose through columnLogits;
  /// the rest through one rowLogits row.
  bool decodeGreedyKV(KVCacheState &St, StepScratch &S,
                      const std::vector<int> &Input,
                      const std::vector<uint8_t> *Allowed,
                      const DecodePlan *Plan, bool WithProbs, int Begin,
                      int End, const TensorPtr &PresenceRow, int &PrevTok,
                      Decoded &Result);
  /// Forks a stream off a sealed group-decode prefix: shares \p Proto's
  /// prefix chain and cross projections copy-on-write, seeds the partial
  /// result/previous token/step so the fork continues where the shared
  /// prefix stopped.
  DecodeStream forkDecode(const KVCacheState &Proto, const Decoded &PrefixOut,
                          int PrevTok, int Step, const std::vector<int> &Input,
                          const std::vector<uint8_t> *Allowed,
                          const DecodePlan *Plan,
                          const TensorPtr &PresenceRow);
  TensorPtr combinedEmbeddings();
  void refreshCombCache();
  std::vector<TensorPtr> parameters() const;
  std::unique_ptr<Tensor> causalMask(int Len) const;

  Vocab Vocabulary;
  CodeBEConfig Config;
  TensorPtr Etok, Epiece, EposSrc, EposDst;
  std::vector<EncLayerP> Enc;
  std::vector<DecLayerP> Dec;
  LinearP CopyProj;
  TensorPtr CopyGate;
  TensorPtr SrcBias; ///< learned boost for tokens present in the source
  TensorPtr CombT; ///< see combT(); no grad
  std::atomic<bool> CombDirty{true};
  std::mutex CombMu; ///< serializes CombT refresh across threads
  DecodeMode Mode = DecodeMode::KVCache;

  /// The data-parallel training engine drives trainLoss/parameters/
  /// combinedEmbeddings directly.
  friend class model::Trainer;
  /// White-box access for the model unit tests.
  friend class CodeBEProbe;
};

} // namespace vega

#endif // VEGA_MODEL_CODEBE_H
