//===- perfbench/src/Finetune.cpp - Offline Stage 1 + fine-tuning ---------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// finetune: corpus build, Stage 1 (templates + feature selection), the
/// fine-tuning dataset and a fresh CodeBE, then a fixed training budget of
/// whole epochs over the real Stage-1 pairs. To keep a run short the
/// dataset uses the pipeline's own function-group split at a 10% training
/// fraction (about 1 400 pairs instead of 8 970 at the default 75%); every
/// pair is still produced by the code under test. Each epoch is one
/// VegaSystem::fineTuneRound whose shuffle seed comes from --seed.
///
/// Gates: a finite final loss, and a weights fingerprint that every run of
/// one build with the same seed reproduces. Quality is exp(-loss) of the
/// last epoch: the geometric-mean probability the model gives each target
/// token (the inverse of its perplexity). Exact match on held-out pairs
/// swings by a quarter between shuffle seeds at this budget; the epoch
/// loss averages over every training example and does not.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Pipeline.h"
#include "corpus/Corpus.h"
#include "model/Trainer.h"
#include "support/BinaryIO.h"

#include <cmath>
#include <memory>

namespace perfbench {
namespace {

constexpr double TrainFraction = 0.1;
/// The example budget: this many epochs over the training split.
constexpr int Rounds = 5;

struct FinetuneSetup {
  std::unique_ptr<vega::BackendCorpus> Corpus;
  std::unique_ptr<vega::VegaSystem> System;
  double TotalS = 0.0;

  void tearDown() {
    System.reset();
    Corpus.reset();
  }
};

FinetuneSetup setUp() {
  FinetuneSetup S;
  auto T0 = Clock::now();
  ScopedSpan Setup("setup");
  {
    ScopedSpan Sp("corpus.build");
    S.Corpus = std::make_unique<vega::BackendCorpus>(
        vega::BackendCorpus::build(vega::TargetDatabase::standard()));
  }
  vega::VegaOptions Opts;
  Opts.TrainFraction = TrainFraction;
  Opts.Jobs = Lanes;
  Opts.TrainJobs = Lanes;
  S.System = std::make_unique<vega::VegaSystem>(*S.Corpus, Opts);
  {
    ScopedSpan Sp("stage1.templates");
    S.System->buildTemplates();
  }
  {
    ScopedSpan Sp("stage1.dataset");
    S.System->buildDataset();
  }
  {
    ScopedSpan Sp("model.init");
    S.System->initModelFromCache(); // no cache path: a fresh model
  }
  S.TotalS = secondsSince(T0);
  return S;
}

} // namespace

WorkloadResult runFinetune(const RunConfig &Cfg) {
  WorkloadResult R;
  std::vector<double> SetupS;
  FinetuneSetup S;
  for (int K = 0; K < SetupRepeats; ++K) {
    S.tearDown();
    S = setUp();
    SetupS.push_back(S.TotalS);
  }
  size_t Pairs = S.System->trainPairCount();

  std::vector<double> RoundMs;
  size_t Examples = 0;
  double Loss = 0.0;
  auto Train0 = Clock::now();
  for (int K = 0; K < Rounds; ++K) {
    ++R.Attempted;
    auto T = Clock::now();
    vega::StatusOr<vega::model::TrainResult> Res = [&] {
      ScopedSpan Sp("train.round", static_cast<uint64_t>(K + 1));
      return S.System->fineTuneRound(1, Cfg.Seed * 1000003ULL + K);
    }();
    RoundMs.push_back(secondsSince(T) * 1000.0);
    if (!Res.isOk()) {
      ++R.Failed;
      R.fail("fineTuneRound: " + Res.status().toString());
      continue;
    }
    Examples += Res->ExamplesSeen;
    Loss = Res->FinalMeanLoss;
  }
  double TrainS = secondsSince(Train0);

  if (!std::isfinite(Loss))
    R.fail("final training loss is not finite");
  uint64_t Fingerprint = vega::fnv1a(S.System->model()->saveWeights());
  std::string Why;
  if (!crossRunGate(Cfg.StateDir,
                    "finetune.weights.seed" + std::to_string(Cfg.Seed),
                    std::to_string(Fingerprint), Why))
    R.fail(Why);

  R.EndToEnd["throughput_per_s"] = {static_cast<double>(Examples) / TrainS,
                                    "1/s"};
  R.EndToEnd["latency_p50_ms"] = {quantile(RoundMs, 0.5), "ms"};
  R.EndToEnd["latency_p90_ms"] = {quantile(RoundMs, 0.9), "ms"};
  R.EndToEnd["quality"] = {std::exp(-Loss), "ratio"};
  R.note("train pairs " + std::to_string(Pairs) + ", " +
         std::to_string(Rounds) + " epochs, " + std::to_string(Examples) +
         " examples in " + fmt(TrainS) + " s, final loss " + fmt(Loss) +
         ", weights fnv1a " + std::to_string(Fingerprint));
  R.note("aliases: train_examples_per_s = throughput_per_s; latency is one "
         "epoch (fineTuneRound)");

  R.PerLayer["stage1.train_pairs"] = {static_cast<double>(Pairs), "count"};
  R.PerLayer["train.examples"] = {static_cast<double>(Examples), "count"};
  R.PerLayer["train.loss_final"] = {Loss, "loss"};

  if (Cfg.Trace) {
    // Tracing overhead: one more epoch untraced against one traced.
    SpanRecorder::instance().setEnabled(false);
    auto U0 = Clock::now();
    vega::StatusOr<vega::model::TrainResult> U =
        S.System->fineTuneRound(1, Cfg.Seed * 1000003ULL + Rounds);
    double Untraced = secondsSince(U0);
    SpanRecorder::instance().setEnabled(true);
    auto T0 = Clock::now();
    vega::StatusOr<vega::model::TrainResult> T = [&] {
      ScopedSpan Sp("train.round", Rounds + 2);
      return S.System->fineTuneRound(1, Cfg.Seed * 1000003ULL + Rounds + 1);
    }();
    double Traced = secondsSince(T0);
    if (!U.isOk() || !T.isOk())
      R.fail("overhead epochs failed");
    R.PerLayer["trace.overhead_frac"] = {Traced / Untraced - 1.0, "ratio"};
  }

  reportSetup(R, SetupS);
  return R;
}

} // namespace perfbench
