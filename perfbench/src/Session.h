//===- perfbench/src/Session.h - Loading the benchmark session ---*- C++ -*-===//
//
// Part of the VEGA reproduction project.
// SPDX-License-Identifier: Apache-2.0 WITH LLVM-exception
//
//===----------------------------------------------------------------------===//

#ifndef VEGA_PERFBENCH_SESSION_H
#define VEGA_PERFBENCH_SESSION_H

#include "Bench.h"

#include "core/VegaSession.h"
#include "corpus/Corpus.h"

#include <memory>
#include <string>

namespace perfbench {

/// A session restored from the benchmark's .vega artifact over its own
/// freshly built corpus (the corpus must outlive the session).
struct LoadedSession {
  std::unique_ptr<vega::BackendCorpus> Corpus;
  std::unique_ptr<vega::VegaSession> Session;
};

vega::StatusOr<LoadedSession> loadSession(const std::string &Path);

/// One line describing the training schedule recorded next to \p Path.
std::string sessionScheduleNote(const std::string &Path);

} // namespace perfbench

#endif // VEGA_PERFBENCH_SESSION_H
