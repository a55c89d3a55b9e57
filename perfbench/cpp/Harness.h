//===- perfbench/cpp/Harness.h - Requests, replay and checks ---*- C++ -*-===//
//
// The pieces the benchmark and its self-test share: one compile request
// and its expected output, in-process runs through driver::run, the
// pass-by-pass replay through CompilationSession, and the VM check of
// generated programs.  Everything here calls the program from outside;
// nothing in the program is changed or instrumented.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "Checks.h"

#include "core/ArtifactStore.h"
#include "core/SharedArtifactCache.h"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

namespace sdsp {
class LoopProgram;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

/// One sdspc invocation of a workload's stream.
struct Request {
  std::vector<std::string> Argv;
  Expectation Expect;
  /// Bundled kernel id when the request compiles one (-k), else empty.
  std::string KernelId;
  /// Source file (relative to the checkout root) when not a kernel.
  std::string Path;
};

/// What an invocation printed.
struct Output {
  int Exit = -1;
  std::string Out;
  std::string Err;
  bool operator==(const Output &O) const {
    return Exit == O.Exit && Out == O.Out && Err == O.Err;
  }
};

/// The kernels stream: every corpus entry crossed with every mode, in
/// corpus order.
std::vector<Request> kernelsStream();

/// Runs \p R through driver::run in this process, on \p Store (null =
/// no store, a fresh session-private cache as in a plain sdspc run).
Output runLocal(const Request &R, sdsp::ArtifactStore *Store = nullptr);

/// The per-pass wall times of one request replayed one pass at a time
/// through a fresh CompilationSession (milliseconds; zero for a pass the
/// request does not run).
struct PassTimes {
  double Lower = 0, Transform = 0, Sdsp = 0, SdspPn = 0, Rate = 0, Scp = 0,
         Frustum = 0, Schedule = 0, Program = 0, Verify = 0;
  /// Frustum instants simulated (the repeat time) and SDSP-PN size.
  double Instants = 0, Transitions = 0;
  double sum() const {
    return Lower + Transform + Sdsp + SdspPn + Rate + Scp + Frustum +
           Schedule + Program + Verify;
  }
  PassTimes &operator+=(const PassTimes &O) {
    Lower += O.Lower;
    Transform += O.Transform;
    Sdsp += O.Sdsp;
    SdspPn += O.SdspPn;
    Rate += O.Rate;
    Scp += O.Scp;
    Frustum += O.Frustum;
    Schedule += O.Schedule;
    Program += O.Program;
    Verify += O.Verify;
    Instants += O.Instants;
    Transitions += O.Transitions;
    return *this;
  }
};

/// Replays \p R pass by pass.  Also checks the compiler's alpha* and,
/// on the ideal machine, every transition's frustum rate against
/// R.Expect.  Returns an empty string on success.  When the request
/// emits a program and \p Program is given, the program is stored there.
std::string replay(const Request &R, PassTimes &T,
                   std::shared_ptr<const sdsp::LoopProgram> *Program =
                       nullptr);

/// Source text of \p R (bundled kernel or file).
std::string requestSource(const Request &R);

/// For a --emit=program request on a bundled kernel: recompiles it,
/// requires the printed program to equal \p Stdout, runs it on the
/// kernel's own inputs in the VM and compares with the kernel's
/// reference implementation.  \p Perturb adds to the first reference
/// value (the self-test uses it to show the check can fail).
std::string checkProgramOnVm(const Request &R, const std::string &Stdout,
                             double Perturb = 0);

/// An ArtifactStore that forwards to another store and times each call.
class TimedStore final : public sdsp::ArtifactStore {
public:
  explicit TimedStore(sdsp::ArtifactStore &Inner) : Inner(Inner) {}
  std::optional<sdsp::ArtifactEntry>
  lookupOrLock(const sdsp::ArtifactKey &K, sdsp::FaultContext *F) override;
  sdsp::PublishResult publish(const sdsp::ArtifactKey &K,
                              sdsp::ArtifactEntry E,
                              sdsp::FaultContext *F) override;
  void abandon(const sdsp::ArtifactKey &K) override { Inner.abandon(K); }

  double LookupMs = 0, PublishMs = 0;
  uint64_t Lookups = 0, Hits = 0, Publishes = 0;

private:
  sdsp::ArtifactStore &Inner;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
