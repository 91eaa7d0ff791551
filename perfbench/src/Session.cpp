//===- perfbench/src/Session.cpp - Trained session for the serving loads --===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve_zipf and repair_loop need a trained session. The benchmark trains
/// one from the code under test at a fixed reduced schedule (3 epochs
/// instead of the paper's 18) and stores it in the build directory, never
/// in the repository. A JSON sidecar next to the artifact records the
/// schedule and the training wall time, so work moved into training shows.
///
//===----------------------------------------------------------------------===//

#include "Session.h"

#include "core/Checkpoint.h"
#include "support/Json.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

/// The fixed session-training schedule.
constexpr int SessionEpochs = 3;

int trainSession(const std::string &Path) {
  vega::VegaOptions Opts;
  Opts.Model.Epochs = SessionEpochs;
  Opts.Jobs = Lanes;
  Opts.TrainJobs = Lanes;
  auto T0 = Clock::now();
  vega::StatusOr<std::unique_ptr<vega::VegaSession>> Built =
      vega::VegaSession::build(Opts);
  if (!Built.isOk()) {
    std::fprintf(stderr, "train-session: %s\n",
                 Built.status().toString().c_str());
    return 1;
  }
  double TrainS = secondsSince(T0);
  if (vega::Status St = (*Built)->save(Path); !St.isOk()) {
    std::fprintf(stderr, "train-session: %s\n", St.toString().c_str());
    return 1;
  }
  vega::model::TrainOptions Schedule = (*Built)->system().trainOptions();
  vega::Json Doc = vega::Json::object();
  Doc.set("epochs", Schedule.Epochs);
  Doc.set("batch", Schedule.BatchSize);
  Doc.set("lr", static_cast<double>(Schedule.LearningRate));
  Doc.set("seed", Schedule.Seed);
  Doc.set("lanes", Lanes);
  Doc.set("trainPairs",
          static_cast<uint64_t>((*Built)->system().trainPairCount()));
  Doc.set("wallSeconds", TrainS);
  std::ofstream Out(Path + ".json");
  Out << Doc.dump() << "\n";
  if (!Out) {
    std::fprintf(stderr, "train-session: cannot write %s.json\n",
                 Path.c_str());
    return 1;
  }
  std::printf("session trained in %.1f s (%s) -> %s\n", TrainS,
              Doc.dump().c_str(), Path.c_str());
  return 0;
}

std::string sessionScheduleNote(const std::string &Path) {
  std::ifstream In(Path + ".json");
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();
  while (!Text.empty() && (Text.back() == '\n' || Text.back() == '\r'))
    Text.pop_back();
  return "session schedule: " + (Text.empty() ? "<missing>" : Text);
}

vega::StatusOr<LoadedSession> loadSession(const std::string &Path) {
  LoadedSession L;
  L.Corpus = std::make_unique<vega::BackendCorpus>(
      vega::BackendCorpus::build(vega::TargetDatabase::standard()));
  vega::StatusOr<std::unique_ptr<vega::VegaSession>> S =
      vega::VegaSession::load(*L.Corpus, Path);
  if (!S.isOk())
    return S.status();
  L.Session = std::move(*S);
  L.Session->setJobs(Lanes);
  return L;
}

} // namespace perfbench
