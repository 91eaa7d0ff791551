//===- perfbench/src/ServeZipf.cpp - Open-loop backend serving ------------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve_zipf: an open loop into an in-process serve::VegaServer. The
/// Poisson phase sends arrivals at a fixed low rate with targets drawn
/// Zipf-skewed over all corpus targets, so the scheduler's attach-dedup
/// fires for the head and not for the tail. The capacity phase then sends
/// saturating bursts (every target once, all due at once, so no request
/// can attach to another and each one is a distinct decode); their
/// due-to-response latencies and requests answered per second of makespan
/// are the end-to-end metrics. At this run length the Poisson phase yields
/// a few dozen samples and its quantiles swung by 17-43% of the median
/// between sets of seeds, so it reports per-layer metrics only.
///
/// One submitter (this thread) sends each request at its due time; one
/// collector thread stamps responses as they resolve. Latency runs from the
/// due time, so a stalled submitter shows up as latency, and the
/// submitter's lateness is reported on its own.
///
/// Every generate response must be byte-equal to a solo
/// VegaSession::generate reference for its target rendered through
/// serve::Protocol with the same request id. Rejected (-32005), errored,
/// mismatched and missing responses are failures.
///
//===----------------------------------------------------------------------===//

#include "Session.h"

#include "eval/Harness.h"
#include "eval/Oracle.h"
#include "obs/Metrics.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/Json.h"

#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <thread>

namespace perfbench {
namespace {

/// The Poisson phase: arrivals at this rate (requests/s) for this share of
/// the run, about a quarter of capacity so most requests decode alone.
constexpr double NominalRate = 2.5;
constexpr double NominalShare = 0.4;
/// The capacity phase fills the rest of the run with saturating bursts in
/// which every target is requested once, all due at once.
constexpr int MinBursts = 2;
/// Zipf exponent over the corpus targets (rank = corpus order).
constexpr double ZipfS = 1.0;
/// Scheduler admission window and queue bound (the daemon defaults).
constexpr int Window = 8;
constexpr int MaxQueue = 64;
/// Warm-up target: the same for every seed, so set-up is seed-independent.
const char *const WarmupTarget = "RISCV";

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double uniform(uint64_t &State) {
  return static_cast<double>(splitmix(State) >> 11) * 0x1.0p-53;
}

struct Request {
  uint64_t Id = 0;
  std::string Target;
  double DueS = 0.0; ///< offset from level start
  Clock::time_point Due, Sent, Done;
  std::future<std::string> Future;
  std::string Response;
  bool Completed = false;
};

/// What one phase (the nominal level or one capacity burst) measured.
struct PhaseResult {
  size_t Sent = 0, Ok = 0, Rejected = 0, Errored = 0, Mismatched = 0,
         Missing = 0;
  std::vector<double> LatencyMs; ///< successful requests, due -> response
  std::vector<double> LagMs;     ///< submitter lateness per request
  double MakespanS = 0.0;        ///< first due time to last response
  size_t failures() const { return Rejected + Errored + Mismatched + Missing; }
};

/// Poisson arrivals at \p Rate for \p Seconds with Zipf-drawn targets.
std::vector<Request> poissonSchedule(uint64_t Seed, double Rate,
                                     double Seconds,
                                     const std::vector<std::string> &Targets,
                                     uint64_t &NextId) {
  std::vector<double> Cdf;
  double Sum = 0.0;
  for (size_t R = 0; R < Targets.size(); ++R) {
    Sum += 1.0 / std::pow(static_cast<double>(R + 1), ZipfS);
    Cdf.push_back(Sum);
  }
  uint64_t State = Seed * 0x100000001b3ULL + 17;
  std::vector<Request> Out;
  double T = 0.0;
  while (true) {
    T += -std::log(1.0 - uniform(State)) / Rate;
    if (T >= Seconds)
      break;
    double U = uniform(State) * Sum;
    size_t Rank = static_cast<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    Request R;
    R.Id = NextId++;
    R.Target = Targets[std::min(Rank, Targets.size() - 1)];
    R.DueS = T;
    Out.push_back(std::move(R));
  }
  return Out;
}

/// One saturating burst: every target once, in a seeded order, all due at
/// once.
std::vector<Request> burstSchedule(uint64_t Seed, size_t Burst,
                                   const std::vector<std::string> &Targets,
                                   uint64_t &NextId) {
  std::vector<std::string> Order = Targets;
  uint64_t State = Seed * 0x9e3779b97f4a7c15ULL + Burst * 0x632be5ab + 29;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[splitmix(State) % I]);
  std::vector<Request> Out;
  for (std::string &T : Order) {
    Request R;
    R.Id = NextId++;
    R.Target = std::move(T);
    Out.push_back(std::move(R));
  }
  return Out;
}

std::string requestLine(const Request &R) {
  return "{\"jsonrpc\":\"2.0\",\"id\":" + std::to_string(R.Id) +
         ",\"method\":\"generate\",\"params\":{\"target\":\"" + R.Target +
         "\"}}";
}

/// How long the collector waits for outstanding responses after the last
/// request was sent; whatever is still unanswered then counts as missing.
constexpr std::chrono::seconds DrainLimit(60);

/// Sends \p Reqs at their due times from this thread while a collector
/// thread stamps each response as it resolves; returns once every request
/// has been answered or the drain limit has passed.
void driveLevel(vega::serve::VegaServer &Server, std::vector<Request> &Reqs) {
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<size_t> Handed;  ///< guarded by Mu
  bool SubmitDone = false;    ///< guarded by Mu
  Clock::time_point GiveUpAt; ///< guarded by Mu, set with SubmitDone

  std::thread Collector([&] {
    std::vector<size_t> Pending; ///< in submission order
    auto Stamp = [&](size_t K) {
      Request &R = Reqs[Pending[K]];
      R.Done = Clock::now();
      R.Response = R.Future.get();
      R.Completed = true;
      Pending.erase(Pending.begin() + static_cast<std::ptrdiff_t>(K));
    };
    while (true) {
      {
        std::unique_lock<std::mutex> Lock(Mu);
        if (Pending.empty())
          Cv.wait(Lock, [&] { return SubmitDone || !Handed.empty(); });
        while (!Handed.empty()) {
          Pending.push_back(Handed.front());
          Handed.pop_front();
        }
        if (SubmitDone && (Pending.empty() || Clock::now() > GiveUpAt))
          return;
      }
      // Block on the oldest request (it usually finishes first), waking at
      // least every millisecond to stamp any that finished out of order.
      if (Reqs[Pending.front()].Future.wait_for(std::chrono::milliseconds(
              1)) == std::future_status::ready)
        Stamp(0);
      for (size_t K = 0; K < Pending.size();) {
        if (Reqs[Pending[K]].Future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready)
          Stamp(K);
        else
          ++K;
      }
    }
  });

  Clock::time_point Start = Clock::now();
  for (size_t I = 0; I < Reqs.size(); ++I) {
    Request &R = Reqs[I];
    R.Due = Start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(R.DueS));
    std::this_thread::sleep_until(R.Due);
    std::string Line = requestLine(R);
    R.Sent = Clock::now();
    R.Future = Server.submitLine(std::move(Line));
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Handed.push_back(I);
    }
    Cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    SubmitDone = true;
    GiveUpAt = Clock::now() + DrainLimit;
  }
  Cv.notify_one();
  Collector.join();
}

double ms(Clock::duration D) {
  return std::chrono::duration<double, std::milli>(D).count();
}

/// Drives \p Reqs and checks every response against its reference.
PhaseResult runPhase(vega::serve::VegaServer &Server, std::vector<Request> &Reqs,
                     const std::map<std::string, vega::Json> &Reference,
                     bool RecordSpans) {
  driveLevel(Server, Reqs);
  PhaseResult P;
  P.Sent = Reqs.size();
  Clock::time_point FirstDue = Reqs.empty() ? Clock::now() : Reqs[0].Due;
  Clock::time_point LastDone = FirstDue;
  for (Request &Q : Reqs) {
    if (RecordSpans)
      SpanRecorder::instance().record("serve.request", Q.Id, Q.Due, Q.Done);
    P.LagMs.push_back(ms(Q.Sent - Q.Due));
    if (!Q.Completed) {
      ++P.Missing;
      continue;
    }
    LastDone = std::max(LastDone, Q.Done);
    if (Q.Response.find("\"error\"") != std::string::npos) {
      if (Q.Response.find("-32005") != std::string::npos)
        ++P.Rejected;
      else
        ++P.Errored;
      continue;
    }
    std::string Expected =
        vega::serve::makeRpcResult(vega::Json(Q.Id), Reference.at(Q.Target))
            .dump();
    if (Q.Response != Expected) {
      ++P.Mismatched;
      continue;
    }
    ++P.Ok;
    P.LatencyMs.push_back(ms(Q.Done - Q.Due));
  }
  P.MakespanS = std::chrono::duration<double>(LastDone - FirstDue).count();
  return P;
}

/// One set-up: corpus + session + server. The server references the
/// session and the session the corpus, so they are torn down in reverse.
struct ServeSetup {
  LoadedSession Loaded;
  std::unique_ptr<vega::serve::VegaServer> Server;
  double TotalS = 0.0;

  void tearDown() {
    Server.reset();
    Loaded.Session.reset();
    Loaded.Corpus.reset();
  }
};

vega::StatusOr<ServeSetup> setUp(const RunConfig &Cfg) {
  ServeSetup S;
  auto T0 = Clock::now();
  ScopedSpan Setup("setup");
  {
    ScopedSpan Sp("setup.checkpoint_load");
    vega::StatusOr<LoadedSession> L = loadSession(Cfg.SessionPath);
    if (!L.isOk())
      return L.status();
    S.Loaded = std::move(*L);
  }
  vega::serve::ServerOptions Opts;
  Opts.Window = Window;
  Opts.MaxQueue = MaxQueue;
  S.Server =
      std::make_unique<vega::serve::VegaServer>(*S.Loaded.Session, Opts);
  {
    ScopedSpan Sp("setup.warmup");
    std::string Resp = S.Server->handleLine(
        std::string("{\"jsonrpc\":\"2.0\",\"id\":0,\"method\":\"generate\","
                    "\"params\":{\"target\":\"") +
        WarmupTarget + "\"}}");
    if (Resp.find("\"result\"") == std::string::npos)
      return vega::Status::internal("warm-up request failed: " + Resp);
  }
  S.TotalS = secondsSince(T0);
  return S;
}

/// The scheduler counters of a `stats` RPC, plus the gen.functions counter
/// (decode units folded), which exists only while the metrics registry is
/// on.
struct StatsSnapshot {
  double Steps = 0, Admitted = 0, Attached = 0, Rejected = 0, Units = 0;
};

vega::StatusOr<StatsSnapshot> readStats(vega::serve::VegaServer &Server,
                                        bool WithUnits) {
  std::string Line = Server.handleLine(
      "{\"jsonrpc\":\"2.0\",\"id\":\"stats\",\"method\":\"stats\"}");
  vega::StatusOr<vega::Json> Doc = vega::Json::parse(Line);
  const vega::Json *Result = Doc.isOk() ? Doc->get("result") : nullptr;
  const vega::Json *Sch = Result ? Result->get("scheduler") : nullptr;
  const vega::Json *Counters = Result ? Result->get("counters") : nullptr;
  if (!Sch || (WithUnits && !Counters))
    return vega::Status::internal("unexpected stats reply: " + Line);
  const double Absent = std::nan("");
  StatsSnapshot Snap;
  Snap.Steps = Sch->getNumber("steps", Absent);
  Snap.Admitted = Sch->getNumber("admitted", Absent);
  Snap.Attached = Sch->getNumber("attached", Absent);
  Snap.Rejected = Sch->getNumber("rejected", Absent);
  Snap.Units = WithUnits ? Counters->getNumber("gen.functions", Absent) : 0.0;
  for (double V : {Snap.Steps, Snap.Admitted, Snap.Attached, Snap.Rejected,
                   Snap.Units})
    if (!std::isfinite(V))
      return vega::Status::internal("stats reply lacks a counter: " + Line);
  return Snap;
}

/// Solo generation through the handle API of the evaluation targets, with
/// one span per step() (a function decode) inside one span per backend.
void soloGenerate(vega::VegaSession &Session, WorkloadResult &R) {
  std::vector<double> Units, Tokens;
  for (const std::string &Target :
       vega::TargetDatabase::evaluationTargetNames()) {
    ScopedSpan BackendSpan("gen.backend");
    vega::StatusOr<vega::VegaSession::GenerationHandle> H =
        Session.beginGenerate(Target);
    if (!H.isOk()) {
      R.fail("beginGenerate(" + Target + "): " + H.status().toString());
      return;
    }
    while (!H->complete()) {
      ScopedSpan UnitSpan("gen.unit");
      if (!Session.step(*H))
        break;
    }
    size_t N = H->unitCount();
    vega::StatusOr<vega::GeneratedBackend> B = Session.finish(std::move(*H));
    if (!B.isOk()) {
      R.fail("finish(" + Target + "): " + B.status().toString());
      return;
    }
    double T = 0;
    for (const vega::GeneratedFunction &F : B->Functions)
      for (const vega::GeneratedStatement &St : F.Statements)
        T += static_cast<double>(St.Tokens.size());
    Units.push_back(static_cast<double>(N));
    Tokens.push_back(T);
  }
  R.PerLayer["gen.units"] = {quantile(Units, 0.5), "count"};
  R.PerLayer["gen.tokens"] = {quantile(Tokens, 0.5), "count"};
}

} // namespace

WorkloadResult runServeZipf(const RunConfig &Cfg) {
  WorkloadResult R;
  R.note(sessionScheduleNote(Cfg.SessionPath));
  if (Cfg.Trace)
    vega::obs::MetricsRegistry::instance().setEnabled(true);

  // ---- Set-up, repeated; the last one serves the load. ----
  std::vector<double> SetupS;
  ServeSetup S;
  for (int K = 0; K < SetupRepeats; ++K) {
    S.tearDown();
    vega::StatusOr<ServeSetup> Up = setUp(Cfg);
    if (!Up.isOk()) {
      R.fail("set-up: " + Up.status().toString());
      return R;
    }
    S = std::move(*Up);
    SetupS.push_back(S.TotalS);
  }
  vega::VegaSession &Session = *S.Loaded.Session;
  vega::serve::VegaServer &Server = *S.Server;

  // ---- Inputs, drawn from the seed. ----
  std::vector<std::string> Targets;
  for (const vega::TargetTraits &T : S.Loaded.Corpus->targets().targets())
    Targets.push_back(T.Name);
  uint64_t NextId = 1;
  std::vector<Request> Nominal = poissonSchedule(
      Cfg.Seed, NominalRate, Cfg.Seconds * NominalShare, Targets, NextId);

  // ---- Solo references for every target (not timed). ----
  const std::vector<std::string> &EvalTargets =
      vega::TargetDatabase::evaluationTargetNames();
  auto Ref0 = Clock::now();
  std::map<std::string, vega::Json> Reference;
  double Pass1 = 0.0;
  std::string GateValue;
  for (const std::string &T : Targets) {
    std::lock_guard<std::mutex> Engine(Server.scheduler().engineMutex());
    vega::StatusOr<vega::GeneratedBackend> B = Session.generate(T);
    if (!B.isOk()) {
      R.fail("reference generate(" + T + "): " + B.status().toString());
      return R;
    }
    Reference.emplace(T, vega::serve::backendToJson(*B));
    if (std::find(EvalTargets.begin(), EvalTargets.end(), T) ==
        EvalTargets.end())
      continue;
    const vega::BackendCorpus &Corpus = *S.Loaded.Corpus;
    double Acc = vega::evaluateBackend(*B, *Corpus.backend(T),
                                       *Corpus.targets().find(T),
                                       vega::eval::differentialOracle(),
                                       &vega::eval::differentialOracle())
                     .functionAccuracy();
    Pass1 += Acc / static_cast<double>(EvalTargets.size());
    GateValue += T + ":" + fmt(Acc) + " ";
  }
  std::string Why;
  if (!crossRunGate(Cfg.StateDir, "serve_zipf.quality", GateValue, Why))
    R.fail(Why);
  R.EndToEnd["quality"] = {Pass1, "ratio"};
  R.note("served pass1 over the evaluation targets: " + GateValue);
  R.note("references: " + std::to_string(Reference.size()) +
         " targets rendered in " + fmt(secondsSince(Ref0)) + " s");

  auto Account = [&](const PhaseResult &P, const std::string &Name) {
    R.Attempted += P.Sent;
    R.Failed += P.failures();
    if (P.Mismatched)
      R.fail(std::to_string(P.Mismatched) + " " + Name +
             " responses differ from the solo reference");
    if (P.Errored)
      R.fail(std::to_string(P.Errored) + " " + Name +
             " requests were answered with an error");
    if (P.Missing)
      R.fail(std::to_string(P.Missing) + " " + Name +
             " requests were never answered");
  };
  // Scheduler counters over one phase, from `stats` before and after it.
  auto Stats = [&](StatsSnapshot &Out, bool WithUnits) {
    vega::StatusOr<StatsSnapshot> Snap = readStats(Server, WithUnits);
    if (!Snap.isOk()) {
      R.fail(Snap.status().toString());
      return false;
    }
    Out = *Snap;
    return true;
  };
  auto AttachRatio = [](const StatsSnapshot &A, const StatsSnapshot &B) {
    double Admitted = B.Admitted - A.Admitted;
    double Attached = B.Attached - A.Attached;
    return Admitted + Attached > 0 ? Attached / (Admitted + Attached) : 0.0;
  };

  // ---- Nominal phase: the open loop at the fixed rate. ----
  StatsSnapshot Before, After;
  if (!Stats(Before, false))
    return R;
  PhaseResult P = runPhase(Server, Nominal, Reference, true);
  if (!Stats(After, false))
    return R;
  Account(P, "nominal");
  // A failed request misses any latency limit: it sorts past every success.
  std::vector<double> AllMs = P.LatencyMs;
  AllMs.insert(AllMs.end(), P.failures(), 1e12);
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "nominal %.1f rps: sent %zu ok %zu rejected %zu errored %zu "
                "mismatched %zu missing %zu | p50 %.1f ms p90 %.1f ms "
                "(n=%zu) | gen_lag_ms p50 %.3f max %.3f | steps %.0f "
                "admitted %.0f attached %.0f",
                NominalRate, P.Sent, P.Ok, P.Rejected, P.Errored,
                P.Mismatched, P.Missing, quantile(AllMs, 0.5),
                quantile(AllMs, 0.9), AllMs.size(), quantile(P.LagMs, 0.5),
                quantile(P.LagMs, 1.0), After.Steps - Before.Steps,
                After.Admitted - Before.Admitted,
                After.Attached - Before.Attached);
  R.note(Buf);
  R.PerLayer["load.poisson_p50_ms"] = {quantile(AllMs, 0.5), "ms"};
  R.PerLayer["load.poisson_p90_ms"] = {quantile(AllMs, 0.9), "ms"};
  R.PerLayer["load.poisson_attach_ratio"] = {AttachRatio(Before, After),
                                             "ratio"};
  std::vector<double> LagMs = P.LagMs;

  // ---- Capacity phase: saturating bursts until the run's time is up. ----
  // The scheduler counters and the queue histogram cover this phase, the
  // one behind the end-to-end metrics. Clearing the registry zeroes the
  // decode-unit counter, so the phase's units are its final value.
  if (Cfg.Trace)
    vega::obs::MetricsRegistry::instance().clear();
  if (!Stats(Before, false))
    return R;
  double CapacityBudget = Cfg.Seconds * (1.0 - NominalShare);
  double Served = 0.0, Busy = 0.0;
  std::vector<double> BurstRps, BurstMs;
  auto Cap0 = Clock::now();
  for (size_t K = 0; static_cast<int>(K) < MinBursts ||
                     secondsSince(Cap0) < CapacityBudget;
       ++K) {
    std::vector<Request> Burst = burstSchedule(Cfg.Seed, K, Targets, NextId);
    PhaseResult B = runPhase(Server, Burst, Reference, false);
    Account(B, "burst");
    Served += static_cast<double>(B.Ok);
    Busy += B.MakespanS;
    BurstRps.push_back(static_cast<double>(B.Ok) / B.MakespanS);
    BurstMs.insert(BurstMs.end(), B.LatencyMs.begin(), B.LatencyMs.end());
    BurstMs.insert(BurstMs.end(), B.failures(), 1e12);
    LagMs.insert(LagMs.end(), B.LagMs.begin(), B.LagMs.end());
  }
  if (!Stats(After, Cfg.Trace))
    return R;
  double Capacity = Busy > 0 ? Served / Busy : 0.0;
  double Steps = After.Steps - Before.Steps;
  R.note("capacity: " + std::to_string(BurstRps.size()) + " bursts of " +
         std::to_string(Targets.size()) + " requests, " + fmt(Capacity) +
         " requests/s (per burst min " + fmt(quantile(BurstRps, 0.0)) +
         " max " + fmt(quantile(BurstRps, 1.0)) + "); steps " + fmt(Steps) +
         " admitted " + fmt(After.Admitted - Before.Admitted) + " attached " +
         fmt(After.Attached - Before.Attached));
  R.PerLayer["serve.sched.steps"] = {Steps, "count"};
  R.PerLayer["serve.sched.rejected"] = {After.Rejected - Before.Rejected,
                                        "count"};
  R.PerLayer["serve.sched.attach_ratio"] = {AttachRatio(Before, After),
                                            "ratio"};
  R.PerLayer["serve.step_units.mean"] = {
      Steps > 0 ? (After.Units - Before.Units) / Steps : 0.0, "count"};
  R.PerLayer["load.gen_lag_ms.max"] = {quantile(LagMs, 1.0), "ms"};
  if (Cfg.Trace) {
    std::optional<vega::obs::Histogram> Queue =
        vega::obs::MetricsRegistry::instance().histogram("serve.queue_ms");
    if (Queue) {
      R.PerLayer["serve.queue_ms.p50"] = {Queue->quantile(0.5), "ms"};
      R.PerLayer["serve.queue_ms.p90"] = {Queue->quantile(0.9), "ms"};
    } else {
      R.fail("the metrics registry holds no serve.queue_ms histogram");
    }
  }

  R.EndToEnd["throughput_per_s"] = {Capacity, "1/s"};
  R.EndToEnd["latency_p50_ms"] = {quantile(BurstMs, 0.5), "ms"};
  R.EndToEnd["latency_p90_ms"] = {quantile(BurstMs, 0.9), "ms"};
  R.note("burst latency: p50 " + fmt(quantile(BurstMs, 0.5)) + " ms, p90 " +
         fmt(quantile(BurstMs, 0.9)) + " ms over " +
         std::to_string(BurstMs.size()) + " requests");
  R.note("aliases: gen_p50_ms/gen_p90_ms at " + fmt(NominalRate) +
         " rps are load.poisson_p50_ms/p90_ms; latency_p50_ms/p90_ms are "
         "burst latencies; throughput_per_s is saturation capacity in "
         "distinct backends/s");
  if (Cfg.Trace) {
    // Tracing overhead: one solo pass untraced, then the traced pass.
    std::lock_guard<std::mutex> Engine(Server.scheduler().engineMutex());
    SpanRecorder::instance().setEnabled(false);
    auto U0 = Clock::now();
    WorkloadResult Scratch;
    soloGenerate(Session, Scratch);
    double Untraced = secondsSince(U0);
    SpanRecorder::instance().setEnabled(true);
    auto T0 = Clock::now();
    soloGenerate(Session, R);
    double Traced = secondsSince(T0);
    R.PerLayer["trace.overhead_frac"] = {Traced / Untraced - 1.0, "ratio"};
  }

  reportSetup(R, SetupS);
  return R;
}

} // namespace perfbench
