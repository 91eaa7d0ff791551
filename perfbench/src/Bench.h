//===- perfbench/src/Bench.h - Shared benchmark plumbing ---------*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: the run configuration parsed from
/// the command line, the result a workload hands back (correctness verdict,
/// attempted/failed counts, end-to-end and per-layer metrics), clock and
/// quantile helpers, and the benchmark-side span recorder used by traced
/// runs. Spans live in memory and are written only after the workload
/// returns, never while it is being timed.
///
//===----------------------------------------------------------------------===//

#ifndef VEGA_PERFBENCH_BENCH_H
#define VEGA_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Linear-interpolated quantile (the same rule as numpy's default) over an
/// unsorted sample; 0 when empty.
double quantile(std::vector<double> Values, double Q);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// The trained session artifact (serve_zipf, repair_loop).
  std::string SessionPath;
  /// Directory of one build's state, keyed by its sources: the trained
  /// session, the cross-run gate records and trace output.
  std::string StateDir;
};

/// One metric as printed: value and unit.
struct Metric {
  double Value = 0.0;
  std::string Unit;
};

struct WorkloadResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// End-to-end metrics (printed with --trace 0).
  std::map<std::string, Metric> EndToEnd;
  /// Per-layer metrics (printed with --trace 1).
  std::map<std::string, Metric> PerLayer;
  /// Human-readable lines printed before the result line (metric aliases,
  /// level tables, gate verdicts).
  std::vector<std::string> Notes;

  /// Marks the run incorrect and records why.
  void fail(const std::string &Why) {
    Correct = false;
    Notes.push_back("CHECK FAILED: " + Why);
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
};

/// Stage-3 generation, repair and training lanes for every workload. The
/// baseline machine has 4 vCPUs; the fourth is left to the serving path's
/// scheduler, completion and load threads, which otherwise preempt lanes.
constexpr int Lanes = 3;

/// Set-up time is the median over this many set-ups, run back to back
/// before the workload; the last one serves it.
constexpr int SetupRepeats = 7;

/// A benchmark-side span recorder. Spans are opened around calls into the
/// program's public API; each carries a name, start, end, the id of the
/// span that encloses it on the same thread, and a request id shared by
/// every span of one request. Recording is a mutex-guarded push into a
/// vector, and nothing is written until dump().
class SpanRecorder {
public:
  struct Span {
    uint64_t Id = 0;
    uint64_t Parent = 0; ///< 0 = root
    uint64_t Request = 0;
    std::string Name;
    double StartUs = 0.0;
    double EndUs = 0.0;
  };

  static SpanRecorder &instance();

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }

  /// Opens a span on the calling thread (0 when disabled).
  uint64_t open(const std::string &Name, uint64_t Request);
  /// Closes span \p Id, which must be the innermost open span on this
  /// thread.
  void close(uint64_t Id);
  /// Records a span whose interval was measured elsewhere (for example a
  /// request's due-to-response interval, which begins on the submitter
  /// thread and ends on the collector thread).
  void record(const std::string &Name, uint64_t Request, Clock::time_point Start,
              Clock::time_point End);

  /// Every span's duration and self time (its duration minus the part of
  /// it covered by its children), in seconds.
  struct Times {
    std::vector<double> Duration, Self;
  };
  /// Times of every recorded span, by span name.
  std::map<std::string, Times> times() const;

  /// Writes every span as Chrome trace-event JSON.
  bool dump(const std::string &Path) const;

  double nowUs() const;

private:
  SpanRecorder();
  bool Enabled = false;
  Clock::time_point Epoch;
  mutable std::mutex Mu;
  std::vector<Span> Spans;            ///< guarded by Mu
  std::map<uint64_t, size_t> OpenIdx; ///< guarded by Mu: id -> Spans index
  uint64_t NextId = 1;                ///< guarded by Mu
};

/// RAII span: opens on construction, closes on destruction. Cheap no-op
/// when the recorder is disabled.
class ScopedSpan {
public:
  ScopedSpan(const char *Name, uint64_t Request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  uint64_t Id = 0;
};

/// Workload entry points.
WorkloadResult runServeZipf(const RunConfig &Cfg);
WorkloadResult runRepairLoop(const RunConfig &Cfg);
WorkloadResult runFinetune(const RunConfig &Cfg);

/// Trains the session artifact the serving workloads load, at the fixed
/// reduced schedule, and writes \p Path plus a JSON sidecar recording the
/// schedule and the training wall time. Returns a process exit code.
int trainSession(const std::string &Path);

/// Cross-run gate: the first run of a build records \p Value under \p Key
/// in \p StateDir, the build's own state directory; later runs of the same
/// build must reproduce it. Returns false (and fills \p Why) on a mismatch.
bool crossRunGate(const std::string &StateDir, const std::string &Key,
                  const std::string &Value, std::string &Why);

/// Reports the median of \p SetupS as setup_s, with every set-up time as a
/// note.
void reportSetup(WorkloadResult &R, const std::vector<double> &SetupS);

/// Formats a double with all its digits.
std::string fmt(double V);

} // namespace perfbench

#endif // VEGA_PERFBENCH_BENCH_H
