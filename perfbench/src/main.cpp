//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// vega_perfbench runs one seeded workload against the library's public API
/// and prints its verdict as one JSON line (the last line of stdout):
///
///   vega_perfbench --workload <serve_zipf|repair_loop|finetune>
///                  --seed <n> --seconds <s> --trace <0|1>
///                  --session <file.vega> --state-dir <dir>
///   vega_perfbench train-session --out <file.vega>
///
/// With --trace 0 the line carries the end-to-end metrics; with --trace 1
/// the per-layer metrics of a traced run, whose spans are written to
/// <state-dir>/spans-<workload>-<seed>.json after the workload finishes.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "vega_perfbench: %s\n"
               "usage: vega_perfbench --workload <serve_zipf|repair_loop|"
               "finetune> --seed <n> --seconds <s> --trace <0|1> "
               "--session <file.vega> --state-dir <dir>\n"
               "       vega_perfbench train-session --out <file.vega>\n",
               Why);
  return 2;
}

const char *const Serve = "serve_zipf";
const char *const Repair = "repair_loop";
const char *const Finetune = "finetune";
const char *const Sessions = "serve_zipf repair_loop";
const char *const All = "serve_zipf repair_loop finetune";

/// Every per-layer metric a traced run reports: its unit and the workloads
/// that must produce it (a traced run of any other workload reports it as
/// 0). A metric with a Span is read from the span recorder: quantile Q of
/// the durations (or, with Self, the self times) of every span of that
/// name, times Scale. Every other metric is set by the workload itself.
struct LayerMetric {
  const char *Name;
  const char *Unit;
  const char *Workloads;
  const char *Span = nullptr;
  double Q = 0.5;
  double Scale = 1.0;
  bool Self = false;
};

const LayerMetric PerLayerMetrics[] = {
    {"checkpoint.load_s", "s", Sessions, "setup.checkpoint_load"},
    {"gen.warmup_s", "s", Sessions, "setup.warmup"},
    {"self.setup_s", "s", All, "setup", 0.5, 1.0, true},
    {"serve.queue_ms.p50", "ms", Serve},
    {"serve.queue_ms.p90", "ms", Serve},
    {"serve.sched.steps", "count", Serve},
    {"serve.step_units.mean", "count", Serve},
    {"serve.sched.attach_ratio", "ratio", Serve},
    {"serve.sched.rejected", "count", Serve},
    {"load.gen_lag_ms.max", "ms", Serve},
    {"load.poisson_p50_ms", "ms", Serve},
    {"load.poisson_p90_ms", "ms", Serve},
    {"load.poisson_attach_ratio", "ratio", Serve},
    {"gen.unit_ms.p50", "ms", Serve, "gen.unit", 0.5, 1000.0},
    {"gen.unit_ms.p90", "ms", Serve, "gen.unit", 0.9, 1000.0},
    {"gen.backend_ms", "ms", Serve, "gen.backend", 0.5, 1000.0},
    {"self.gen.backend_ms", "ms", Serve, "gen.backend", 0.5, 1000.0, true},
    {"gen.units", "count", Serve},
    {"gen.tokens", "count", Serve},
    {"core.generate_s", "s", Repair, "core.generate"},
    {"eval.text_s", "s", Repair, "eval.text"},
    {"eval.diff_s", "s", Repair, "eval.differential"},
    {"eval.diff_cases", "count", Repair},
    {"repair.engine_s", "s", Repair, "repair.engine"},
    {"repair.candidates", "count", Repair},
    {"repair.stmts_repaired", "count", Repair},
    {"repair.functions_flagged", "count", Repair},
    {"repair.useful_ratio", "ratio", Repair},
    {"self.repair_loop.cycle_s", "s", Repair, "repair_loop.cycle", 0.5, 1.0,
     true},
    {"pass1", "ratio", Repair},
    {"pass_repaired", "ratio", Repair},
    {"corpus.build_s", "s", Finetune, "corpus.build"},
    {"stage1.templates_s", "s", Finetune, "stage1.templates"},
    {"stage1.dataset_s", "s", Finetune, "stage1.dataset"},
    {"stage1.train_pairs", "count", Finetune},
    {"train.epoch_s", "s", Finetune, "train.round"},
    {"train.examples", "count", Finetune},
    {"train.loss_final", "loss", Finetune},
    {"trace.overhead_frac", "ratio", All},
};

/// The end-to-end metrics every workload reports (see README.md for what
/// each means per workload).
const char *const EndToEndMetrics[] = {"setup_s",          "peak_rss_mb",
                                       "throughput_per_s", "latency_p50_ms",
                                       "latency_p90_ms",   "quality"};

bool belongsTo(const LayerMetric &M, const std::string &Workload) {
  std::string Names = std::string(" ") + M.Workloads + " ";
  return Names.find(" " + Workload + " ") != std::string::npos;
}

/// Fills the span-derived per-layer metrics, prints the self-time table,
/// and checks that the workload produced each metric that belongs to it.
void reportLayers(WorkloadResult &R, const std::string &Workload) {
  std::map<std::string, SpanRecorder::Times> Times =
      SpanRecorder::instance().times();
  for (const auto &[Name, T] : Times) {
    double Total = 0.0, Self = 0.0;
    for (size_t I = 0; I < T.Duration.size(); ++I) {
      Total += T.Duration[I];
      Self += T.Self[I];
    }
    R.note("span " + Name + ": " + std::to_string(T.Duration.size()) +
           " spans, " + fmt(Total) + " s, self time " + fmt(Self) + " s");
  }
  for (const LayerMetric &M : PerLayerMetrics) {
    if (!M.Span)
      continue;
    auto It = Times.find(M.Span);
    if (It != Times.end())
      R.PerLayer[M.Name] = {
          quantile(M.Self ? It->second.Self : It->second.Duration, M.Q) *
              M.Scale,
          M.Unit};
  }
  for (const LayerMetric &M : PerLayerMetrics) {
    if (R.PerLayer.count(M.Name))
      continue;
    if (belongsTo(M, Workload))
      R.fail(std::string("traced run did not measure ") + M.Name);
    R.PerLayer[M.Name] = {0.0, M.Unit};
  }
}

/// Busy-spins every CPU for \p Seconds. A virtual CPU that sat idle runs
/// several times slower for its first fraction of a second; spinning first
/// keeps that ramp out of every measurement.
void warmCpus(double Seconds) {
  unsigned N = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([Seconds] {
      auto T0 = Clock::now();
      volatile uint64_t Sink = 0;
      while (secondsSince(T0) < Seconds)
        for (int K = 0; K < 10000; ++K)
          Sink = Sink + static_cast<uint64_t>(K);
    });
  for (std::thread &T : Threads)
    T.join();
}

/// (steal, total) jiffies from the first line of /proc/stat; zeros when it
/// cannot be read.
std::pair<double, double> cpuSteal() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  double V = 0, Total = 0, Steal = 0;
  In >> Cpu;
  for (int I = 0; I < 8 && (In >> V); ++I) {
    Total += V;
    if (I == 7)
      Steal = V;
  }
  return {Steal, Total};
}

vega::Json metricsJson(const std::map<std::string, Metric> &Metrics) {
  vega::Json Out = vega::Json::object();
  for (const auto &[Name, M] : Metrics) {
    vega::Json Entry = vega::Json::object();
    Entry.set("value", M.Value);
    Entry.set("unit", M.Unit);
    Out.set(Name, std::move(Entry));
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  std::string OutPath;
  bool Train = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "train-session") {
      Train = true;
      continue;
    }
    if (!(V = Next()))
      return usage(("missing value for " + Arg).c_str());
    if (Arg == "--workload")
      Cfg.Workload = V;
    else if (Arg == "--seed")
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      Cfg.Seconds = std::atof(V);
    else if (Arg == "--trace")
      Cfg.Trace = std::strcmp(V, "0") != 0;
    else if (Arg == "--session")
      Cfg.SessionPath = V;
    else if (Arg == "--state-dir")
      Cfg.StateDir = V;
    else if (Arg == "--out")
      OutPath = V;
    else
      return usage(("unknown argument " + Arg).c_str());
  }

  if (Train) {
    if (OutPath.empty())
      return usage("train-session needs --out");
    return trainSession(OutPath);
  }
  if (Cfg.Seconds <= 0.0)
    return usage("--seconds must be positive");
  if (Cfg.StateDir.empty())
    return usage("--state-dir is required");

  WorkloadResult (*Run)(const RunConfig &) = nullptr;
  if (Cfg.Workload == "serve_zipf")
    Run = runServeZipf;
  else if (Cfg.Workload == "repair_loop")
    Run = runRepairLoop;
  else if (Cfg.Workload == "finetune")
    Run = runFinetune;
  else
    return usage(("unknown workload '" + Cfg.Workload + "'").c_str());

  warmCpus(1.0);
  std::pair<double, double> Steal0 = cpuSteal();
  SpanRecorder::instance().setEnabled(Cfg.Trace);
  WorkloadResult R = Run(Cfg);

  std::pair<double, double> Steal1 = cpuSteal();
  if (Steal1.second > Steal0.second)
    R.note("host steal: " +
           fmt(100.0 * (Steal1.first - Steal0.first) /
               (Steal1.second - Steal0.second)) +
           "% of CPU time during the run");
  R.EndToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
  for (const char *Name : EndToEndMetrics)
    if (!R.EndToEnd.count(Name)) {
      R.fail(std::string("workload did not measure ") + Name);
      R.EndToEnd[Name] = {0.0, "missing"};
    }
  if (Cfg.Trace) {
    reportLayers(R, Cfg.Workload);
    std::string SpanPath = Cfg.StateDir + "/spans-" + Cfg.Workload + "-" +
                           std::to_string(Cfg.Seed) + ".json";
    if (!SpanRecorder::instance().dump(SpanPath))
      R.fail("cannot write spans to " + SpanPath);
    else
      R.note("spans written to " + SpanPath);
  }

  std::map<std::string, Metric> &Shown = Cfg.Trace ? R.PerLayer : R.EndToEnd;
  for (auto &[Name, M] : Shown)
    if (!std::isfinite(M.Value)) {
      R.fail("metric " + Name + " is not finite");
      M.Value = 0.0;
    }
  for (const std::string &Line : R.Notes)
    std::printf("%s\n", Line.c_str());
  for (const auto &[Name, M] : Shown)
    std::printf("%-28s %s %s\n", Name.c_str(), fmt(M.Value).c_str(),
                M.Unit.c_str());

  vega::Json Line = vega::Json::object();
  Line.set("correct", R.Correct);
  Line.set("attempted", R.Attempted);
  Line.set("failed", R.Failed);
  Line.set("metrics", metricsJson(Shown));
  std::printf("%s\n", Line.dump().c_str());
  std::fflush(stdout);
  return 0;
}
