//===- perfbench/src/RepairLoop.cpp - generate -> evaluate -> repair ------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// repair_loop: a closed loop with one caller cycling over the evaluation
/// targets (RISCV, RI5CY, XCORE; the seed picks where the cycle starts).
/// One target cycle is VegaSession::generate, evaluateBackend with the
/// differential oracle, and RepairEngine::repairBackend (beam 4, rounds 2,
/// differential-gated). It bypasses the serve scheduler entirely.
///
/// Quality guards: per target, pass_repaired >= pass1, both identical on
/// every cycle of a run and across runs of one build.
///
//===----------------------------------------------------------------------===//

#include "Session.h"

#include "eval/Harness.h"
#include "eval/Oracle.h"
#include "repair/RepairEngine.h"

namespace perfbench {
namespace {

constexpr int BeamWidth = 4;
constexpr int MaxRounds = 2;

struct RepairSetup {
  LoadedSession Loaded;
  std::unique_ptr<vega::repair::RepairEngine> Engine;
  double TotalS = 0.0;

  void tearDown() {
    Engine.reset();
    Loaded.Session.reset();
    Loaded.Corpus.reset();
  }
};

vega::repair::RepairOptions repairOptions() {
  vega::repair::RepairOptions Opts;
  Opts.BeamWidth = BeamWidth;
  Opts.MaxRounds = MaxRounds;
  Opts.Jobs = Lanes;
  Opts.OracleImpl = &vega::eval::differentialOracle();
  Opts.Classifier = &vega::eval::differentialOracle();
  return Opts;
}

vega::StatusOr<RepairSetup> setUp(const RunConfig &Cfg) {
  RepairSetup S;
  auto T0 = Clock::now();
  ScopedSpan Setup("setup");
  {
    ScopedSpan Sp("setup.checkpoint_load");
    vega::StatusOr<LoadedSession> L = loadSession(Cfg.SessionPath);
    if (!L.isOk())
      return L.status();
    S.Loaded = std::move(*L);
  }
  S.Engine = std::make_unique<vega::repair::RepairEngine>(
      S.Loaded.Session->system(), repairOptions());
  {
    ScopedSpan Sp("setup.warmup");
    vega::StatusOr<vega::GeneratedBackend> B =
        S.Loaded.Session->generate(vega::TargetDatabase::evaluationTargetNames()
                                       .front());
    if (!B.isOk())
      return B.status();
  }
  S.TotalS = secondsSince(T0);
  return S;
}

/// What one target cycle measured. The time of each call inside the cycle
/// is taken from its span in traced runs.
struct Cycle {
  double WallS = 0.0;
  double Pass1 = 0.0, PassRepaired = 0.0;
  size_t DiffCases = 0, Candidates = 0, StmtsRepaired = 0, Flagged = 0;
};

vega::StatusOr<Cycle> runCycle(RepairSetup &S, const std::string &Target,
                               bool WithTextOracle, uint64_t RequestId) {
  Cycle C;
  const vega::BackendCorpus &Corpus = *S.Loaded.Corpus;
  const vega::Backend *Golden = Corpus.backend(Target);
  const vega::TargetTraits *Traits = Corpus.targets().find(Target);
  if (!Golden || !Traits)
    return vega::Status::notFound("no golden backend for " + Target);

  auto T0 = Clock::now();
  ScopedSpan CycleSpan("repair_loop.cycle", RequestId);
  vega::StatusOr<vega::GeneratedBackend> B = [&] {
    ScopedSpan Sp("core.generate", RequestId);
    return S.Loaded.Session->generate(Target);
  }();
  if (!B.isOk())
    return B.status();

  if (WithTextOracle) {
    // Traced runs also time the text oracle, which the cycle itself skips.
    ScopedSpan Sp("eval.text", RequestId);
    vega::evaluateBackend(*B, *Golden, *Traits, vega::eval::textOracle());
  }
  vega::BackendEval Eval = [&] {
    ScopedSpan Sp("eval.differential", RequestId);
    return vega::evaluateBackend(*B, *Golden, *Traits,
                                 vega::eval::differentialOracle(),
                                 &vega::eval::differentialOracle());
  }();
  for (const vega::FunctionEval &F : Eval.Functions)
    C.DiffCases += F.DiffCases;

  vega::StatusOr<vega::repair::RepairReport> Report = [&] {
    ScopedSpan Sp("repair.engine", RequestId);
    return S.Engine->repairBackend(*B);
  }();
  if (!Report.isOk())
    return Report.status();
  C.WallS = secondsSince(T0);

  C.Pass1 = Eval.functionAccuracy();
  C.PassRepaired = Report->RepairedEval.functionAccuracy();
  C.Candidates = Report->CandidatesTried;
  C.StmtsRepaired = Report->StatementsAutoRepaired;
  C.Flagged = Report->FunctionsFlagged;
  if (Report->BaselineEval.functionAccuracy() != C.Pass1)
    return vega::Status::internal(
        "repair baseline disagrees with the differential evaluation for " +
        Target);
  return C;
}

} // namespace

WorkloadResult runRepairLoop(const RunConfig &Cfg) {
  WorkloadResult R;
  R.note(sessionScheduleNote(Cfg.SessionPath));

  std::vector<double> SetupS;
  RepairSetup S;
  for (int K = 0; K < SetupRepeats; ++K) {
    S.tearDown();
    vega::StatusOr<RepairSetup> Up = setUp(Cfg);
    if (!Up.isOk()) {
      R.fail("set-up: " + Up.status().toString());
      return R;
    }
    S = std::move(*Up);
    SetupS.push_back(S.TotalS);
  }

  const std::vector<std::string> &Targets =
      vega::TargetDatabase::evaluationTargetNames();
  size_t Start = static_cast<size_t>(Cfg.Seed % Targets.size());

  std::map<std::string, std::pair<double, double>> Quality; // pass1, repaired
  std::vector<Cycle> Cycles;
  auto Loop0 = Clock::now();
  for (uint64_t I = 0; secondsSince(Loop0) < Cfg.Seconds || I < Targets.size();
       ++I) {
    const std::string &Target = Targets[(Start + I) % Targets.size()];
    ++R.Attempted;
    vega::StatusOr<Cycle> C = runCycle(S, Target, Cfg.Trace, I + 1);
    if (!C.isOk()) {
      ++R.Failed;
      R.fail("cycle " + Target + ": " + C.status().toString());
      continue;
    }
    auto [It, New] =
        Quality.emplace(Target, std::make_pair(C->Pass1, C->PassRepaired));
    if (!New && It->second != std::make_pair(C->Pass1, C->PassRepaired))
      R.fail("pass1/pass_repaired for " + Target + " changed between cycles");
    if (C->PassRepaired < C->Pass1)
      R.fail("repair lowered accuracy on " + Target);
    Cycles.push_back(*C);
  }
  double LoopS = secondsSince(Loop0);

  double Pass1 = 0.0, Repaired = 0.0;
  std::string GateValue;
  for (const std::string &T : Targets) {
    auto It = Quality.find(T);
    if (It == Quality.end()) {
      R.fail("no completed cycle for " + T);
      continue;
    }
    Pass1 += It->second.first / static_cast<double>(Targets.size());
    Repaired += It->second.second / static_cast<double>(Targets.size());
    GateValue += T + ":" + fmt(It->second.first) + "/" +
                 fmt(It->second.second) + " ";
    R.note("target " + T + ": pass1 " + fmt(It->second.first) +
           " pass_repaired " + fmt(It->second.second));
  }
  std::string Why;
  if (!crossRunGate(Cfg.StateDir, "repair_loop.quality", GateValue, Why))
    R.fail(Why);

  std::vector<double> WallMs, Cases, Cand, Stmts, Flag;
  for (const Cycle &C : Cycles) {
    WallMs.push_back(C.WallS * 1000.0);
    Cases.push_back(static_cast<double>(C.DiffCases));
    Cand.push_back(static_cast<double>(C.Candidates));
    Stmts.push_back(static_cast<double>(C.StmtsRepaired));
    Flag.push_back(static_cast<double>(C.Flagged));
  }
  auto Sum = [](const std::vector<double> &V) {
    double S = 0.0;
    for (double X : V)
      S += X;
    return S;
  };

  R.EndToEnd["latency_p50_ms"] = {quantile(WallMs, 0.5), "ms"};
  R.EndToEnd["latency_p90_ms"] = {quantile(WallMs, 0.9), "ms"};
  R.EndToEnd["throughput_per_s"] = {
      static_cast<double>(Cycles.size()) / LoopS, "1/s"};
  R.EndToEnd["quality"] = {Repaired, "ratio"};
  R.note("cycles " + std::to_string(Cycles.size()) + " in " + fmt(LoopS) +
         " s; pass1 " + fmt(Pass1) + ", pass_repaired " + fmt(Repaired));
  R.note("aliases: repair_p50_s = latency_p50_ms/1000, repair_p90_s = "
         "latency_p90_ms/1000, pass_repaired = quality");
  R.PerLayer["eval.diff_cases"] = {quantile(Cases, 0.5), "count"};
  R.PerLayer["repair.candidates"] = {quantile(Cand, 0.5), "count"};
  R.PerLayer["repair.stmts_repaired"] = {quantile(Stmts, 0.5), "count"};
  R.PerLayer["repair.functions_flagged"] = {quantile(Flag, 0.5), "count"};
  R.PerLayer["repair.useful_ratio"] = {
      Sum(Cand) > 0 ? Sum(Stmts) / Sum(Cand) : 0.0, "ratio"};
  R.PerLayer["pass1"] = {Pass1, "ratio"};
  R.PerLayer["pass_repaired"] = {Repaired, "ratio"};

  if (Cfg.Trace) {
    // Tracing overhead: one untraced cycle per target against a traced one.
    double Untraced = 0.0, Traced = 0.0;
    for (const std::string &T : Targets) {
      SpanRecorder::instance().setEnabled(false);
      vega::StatusOr<Cycle> U = runCycle(S, T, true, 0);
      SpanRecorder::instance().setEnabled(true);
      vega::StatusOr<Cycle> V = runCycle(S, T, true, 0);
      if (U.isOk() && V.isOk()) {
        Untraced += U->WallS;
        Traced += V->WallS;
      }
    }
    R.PerLayer["trace.overhead_frac"] = {
        Untraced > 0 ? Traced / Untraced - 1.0 : 0.0, "ratio"};
  }

  reportSetup(R, SetupS);
  return R;
}

} // namespace perfbench
