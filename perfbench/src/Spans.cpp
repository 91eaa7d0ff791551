//===- perfbench/src/Spans.cpp - Span recorder and shared helpers ---------===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void reportSetup(WorkloadResult &R, const std::vector<double> &SetupS) {
  R.EndToEnd["setup_s"] = {quantile(SetupS, 0.5), "s"};
  std::string Each;
  for (double X : SetupS)
    Each += " " + fmt(X);
  R.note("set-ups (s):" + Each);
}

bool crossRunGate(const std::string &StateDir, const std::string &Key,
                  const std::string &Value, std::string &Why) {
  std::string Path = StateDir + "/gate." + Key;
  std::ifstream In(Path);
  if (In) {
    std::stringstream Buf;
    Buf << In.rdbuf();
    if (Buf.str() != Value) {
      Why = Key + " differs from an earlier run of this build (" + StateDir +
            "): '" + Value +
            "' vs recorded '" + Buf.str() + "'";
      return false;
    }
    return true;
  }
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp);
    Out << Value;
  }
  std::rename(Tmp.c_str(), Path.c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// SpanRecorder
//===----------------------------------------------------------------------===//

namespace {
/// Open spans on this thread, innermost last.
thread_local std::vector<uint64_t> OpenStack;
} // namespace

SpanRecorder::SpanRecorder() : Epoch(Clock::now()) {}

SpanRecorder &SpanRecorder::instance() {
  static SpanRecorder R;
  return R;
}

double SpanRecorder::nowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
      .count();
}

uint64_t SpanRecorder::open(const std::string &Name, uint64_t Request) {
  if (!Enabled)
    return 0;
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = OpenStack.empty() ? 0 : OpenStack.back();
  S.StartUs = nowUs();
  std::lock_guard<std::mutex> Lock(Mu);
  S.Id = NextId++;
  OpenIdx[S.Id] = Spans.size();
  Spans.push_back(std::move(S));
  OpenStack.push_back(Spans.back().Id);
  return Spans.back().Id;
}

void SpanRecorder::close(uint64_t Id) {
  if (Id == 0)
    return;
  double End = nowUs();
  if (!OpenStack.empty() && OpenStack.back() == Id)
    OpenStack.pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = OpenIdx.find(Id);
  if (It == OpenIdx.end())
    return;
  Spans[It->second].EndUs = End;
  OpenIdx.erase(It);
}

void SpanRecorder::record(const std::string &Name, uint64_t Request,
                          Clock::time_point Start, Clock::time_point End) {
  if (!Enabled)
    return;
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.StartUs =
      std::chrono::duration<double, std::micro>(Start - Epoch).count();
  S.EndUs = std::chrono::duration<double, std::micro>(End - Epoch).count();
  std::lock_guard<std::mutex> Lock(Mu);
  S.Id = NextId++;
  Spans.push_back(std::move(S));
}

std::map<std::string, SpanRecorder::Times> SpanRecorder::times() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::map<uint64_t, std::vector<std::pair<double, double>>> Children;
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Children[S.Parent].push_back({S.StartUs, S.EndUs});
  std::map<std::string, Times> Out;
  for (const Span &S : Spans) {
    double Covered = 0.0;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      // Union of the child intervals, clipped to the parent.
      std::vector<std::pair<double, double>> Iv = It->second;
      std::sort(Iv.begin(), Iv.end());
      double CurLo = 0.0, CurHi = -1.0;
      for (auto [Lo, Hi] : Iv) {
        Lo = std::max(Lo, S.StartUs);
        Hi = std::min(Hi, S.EndUs);
        if (Hi <= Lo)
          continue;
        if (Lo > CurHi) {
          if (CurHi > CurLo)
            Covered += CurHi - CurLo;
          CurLo = Lo;
          CurHi = Hi;
        } else {
          CurHi = std::max(CurHi, Hi);
        }
      }
      if (CurHi > CurLo)
        Covered += CurHi - CurLo;
    }
    Times &T = Out[S.Name];
    T.Duration.push_back((S.EndUs - S.StartUs) / 1e6);
    T.Self.push_back(std::max(0.0, S.EndUs - S.StartUs - Covered) / 1e6);
  }
  return Out;
}

bool SpanRecorder::dump(const std::string &Path) const {
  vega::Json Events = vega::Json::array();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const Span &S : Spans) {
      vega::Json E = vega::Json::object();
      E.set("name", S.Name);
      E.set("ph", "X");
      E.set("ts", S.StartUs);
      E.set("dur", S.EndUs - S.StartUs);
      E.set("pid", 1);
      E.set("tid", static_cast<uint64_t>(S.Request));
      vega::Json Args = vega::Json::object();
      Args.set("id", S.Id);
      Args.set("parent", S.Parent);
      Args.set("req", S.Request);
      E.set("args", std::move(Args));
      Events.push(std::move(E));
    }
  }
  vega::Json Doc = vega::Json::object();
  Doc.set("traceEvents", std::move(Events));
  std::ofstream Out(Path);
  Out << Doc.dump() << "\n";
  return static_cast<bool>(Out);
}

ScopedSpan::ScopedSpan(const char *Name, uint64_t Request)
    : Id(SpanRecorder::instance().enabled()
             ? SpanRecorder::instance().open(Name, Request)
             : 0) {}

ScopedSpan::~ScopedSpan() { SpanRecorder::instance().close(Id); }

} // namespace perfbench
