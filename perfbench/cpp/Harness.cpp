//===- perfbench/cpp/Harness.cpp - Requests, replay and checks ------------===//

#include "Harness.h"

#include "codegen/Vm.h"
#include "core/Session.h"
#include "livermore/Livermore.h"
#include "tools/DriverCore.h"

#include <cmath>
#include <fstream>
#include <sstream>

using namespace perfbench;
using namespace sdsp;

std::vector<Request> perfbench::kernelsStream() {
  std::vector<Request> S;
  for (const CorpusEntry &C : corpus())
    for (const ModeSpec &M : modes()) {
      Request R;
      if (C.Path) {
        R.Path = C.Path;
        R.Argv.push_back(C.Path);
      } else {
        R.KernelId = C.Id;
        R.Argv = {"-k", C.Id};
      }
      R.Argv.insert(R.Argv.end(), M.Args.begin(), M.Args.end());
      R.Expect = {M.M, C.Ops, C.Alpha, true};
      S.push_back(std::move(R));
    }
  return S;
}

Output perfbench::runLocal(const Request &R, ArtifactStore *Store) {
  driver::Options Opts;
  std::ostringstream Out, Err;
  Output O;
  if (driver::parseArgs(R.Argv, Opts, Out, Err) != driver::ParseResult::Ok) {
    O.Exit = 1;
  } else {
    driver::Env E;
    E.Store = Store;
    O.Exit = driver::run(Opts, E, Out, Err);
  }
  O.Out = Out.str();
  O.Err = Err.str();
  return O;
}

std::string perfbench::requestSource(const Request &R) {
  if (!R.KernelId.empty())
    return findKernel(R.KernelId)->Source;
  std::ifstream In(R.Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

namespace {

template <typename T, typename Fn>
bool timed(double &Ms, T &Out, std::string &Error, const char *What,
           Fn &&Call) {
  Clock::time_point T0 = Clock::now();
  auto R = Call();
  Ms += msSince(T0);
  if (!R) {
    Error = std::string(What) + ": " + R.status().str();
    return false;
  }
  Out = *R;
  return true;
}

Frac toFrac(const Rational &R) { return makeFrac(R.num(), R.den()); }

} // namespace

std::string perfbench::replay(const Request &R, PassTimes &T,
                              std::shared_ptr<const LoopProgram> *Program) {
  driver::Options Opts;
  std::ostringstream Sink;
  if (driver::parseArgs(R.Argv, Opts, Sink, Sink) != driver::ParseResult::Ok)
    return "unparsable request";
  const PipelineOptions &Pipe = Opts.Pipe;
  std::string Source = requestSource(R);
  std::string Error;
  CompilationSession S;

  ArtifactRef<DataflowGraph> G;
  if (!timed(T.Lower, G, Error, "lower", [&] { return S.lower(Source); }))
    return Error;
  ArtifactRef<TransformedGraph> TG;
  if (Pipe.Optimize || Pipe.Unroll > 1) {
    if (!timed(T.Transform, TG, Error, "transform",
               [&] { return S.transform(G, Pipe.Optimize, Pipe.Unroll); }))
      return Error;
    G = S.transformedGraph(TG);
  }
  ArtifactRef<SdspArtifact> Sd;
  if (!timed(T.Sdsp, Sd, Error, "sdsp", [&] {
        return S.buildSdsp(G, Pipe.Capacity, Pipe.OptimizeStorage);
      }))
    return Error;
  ArtifactRef<SdspPn> Pn;
  if (!timed(T.SdspPn, Pn, Error, "sdsp-pn", [&] { return S.buildPn(Sd); }))
    return Error;
  T.Transitions += static_cast<double>(Pn->Net.numTransitions());
  ArtifactRef<RateReport> Rate;
  if (!timed(T.Rate, Rate, Error, "rate",
             [&] { return S.computeRate(Pn, Pipe.Rate); }))
    return Error;
  if (!(toFrac(Rate->CycleTime) == R.Expect.Alpha))
    return "compiler alpha* " + Rate->CycleTime.str() + " != expected " +
           fracStr(R.Expect.Alpha);

  FrustumOptions FO{Pipe.FrustumBudgetSteps, Pipe.Engine};
  ArtifactRef<ScpPn> Scp;
  ArtifactRef<FrustumInfo> F;
  if (Pipe.ScpDepth > 0) {
    if (!timed(T.Scp, Scp, Error, "scp", [&] {
          return S.buildScp(Pn, Pipe.ScpDepth, Pipe.Pipelines);
        }))
      return Error;
    if (!timed(T.Frustum, F, Error, "frustum",
               [&] { return S.searchFrustum(Scp, FO); }))
      return Error;
  } else {
    if (!timed(T.Frustum, F, Error, "frustum",
               [&] { return S.searchFrustum(Pn, FO); }))
      return Error;
    Frac Want = makeFrac(R.Expect.Alpha.Den, R.Expect.Alpha.Num);
    for (TransitionId Id : Pn->Net.transitionIds())
      if (!(toFrac(F->computationRate(Id)) == Want))
        return "frustum rate of " + Pn->Net.transition(Id).Name + " is " +
               F->computationRate(Id).str() + ", expected " +
               fracStr(Want);
  }
  T.Instants += static_cast<double>(F->RepeatTime);

  ArtifactRef<SoftwarePipelineSchedule> Sched;
  if (Pipe.ScpDepth == 0) {
    if (!timed(T.Schedule, Sched, Error, "schedule", [&] {
          return S.deriveSchedule(Sd, Pn, F, Pipe.ValidateIterations);
        }))
      return Error;
    if (Opts.Emit == "program") {
      ArtifactRef<LoopProgram> P;
      if (!timed(T.Program, P, Error, "codegen",
                 [&] { return S.generateProgram(Sd, Pn, Sched); }))
        return Error;
      if (Program)
        *Program = P.ptr();
    }
  }

  if (Pipe.Verify) {
    // The compiled loop as the session's one-call driver seals it
    // (core/Session.cpp compileFromGraph); building it is not timed.
    CompiledLoop CL;
    CL.Graph = *G;
    CL.S = Sd->S;
    CL.Storage = Sd->Storage;
    CL.Pn = *Pn;
    CL.Rate = *Rate;
    if (Scp) {
      CL.Scp = *Scp;
      CL.Policy = CL.Scp->makeFifoPolicy();
    }
    CL.Frustum = *F;
    CL.FrustumWithinEmpiricalBound =
        CL.Frustum->withinEmpiricalBound(CL.machineNet().numTransitions());
    if (Sched)
      CL.Schedule = *Sched;
    PipelineOptions VO = Pipe;
    VO.StopAfter = PipelineStage::Schedule;
    Clock::time_point T0 = Clock::now();
    Status St = verifyCompiledLoop(CL, VO);
    T.Verify += msSince(T0);
    if (!St)
      return "verify: " + St.str();
  }
  return "";
}

std::string perfbench::checkProgramOnVm(const Request &R,
                                        const std::string &Stdout,
                                        double Perturb) {
  const LivermoreKernel *K = findKernel(R.KernelId);
  if (!K)
    return "not a bundled kernel";
  PassTimes Unused;
  std::shared_ptr<const LoopProgram> P;
  if (std::string E = replay(R, Unused, &P); !E.empty())
    return E;
  if (!P)
    return "request emits no program";
  std::ostringstream Printed;
  P->print(Printed);
  if (Printed.str() != Stdout)
    return "printed program differs from the recompiled one";
  const size_t N = 32;
  StreamMap In = K->MakeInputs(N, 1991);
  VmResult Got = executeLoopProgram(*P, In, N);
  StreamMap Want = K->Reference(In, N);
  if (Perturb != 0 && !Want.empty() && !Want.begin()->second.empty())
    Want.begin()->second[0] += Perturb;
  for (const auto &[Name, Values] : Want) {
    auto It = Got.Outputs.find(Name);
    if (It == Got.Outputs.end() || It->second.size() != Values.size())
      return "VM output stream " + Name + " missing or short";
    for (size_t I = 0; I < Values.size(); ++I)
      if (std::fabs(It->second[I] - Values[I]) >
          1e-9 * (1.0 + std::fabs(Values[I])))
        return "VM " + Name + "[" + std::to_string(I) + "] = " +
               std::to_string(It->second[I]) + ", reference " +
               std::to_string(Values[I]);
  }
  return "";
}

std::optional<ArtifactEntry> TimedStore::lookupOrLock(const ArtifactKey &K,
                                                      FaultContext *F) {
  Clock::time_point T0 = Clock::now();
  std::optional<ArtifactEntry> E = Inner.lookupOrLock(K, F);
  LookupMs += msSince(T0);
  ++Lookups;
  Hits += E.has_value();
  return E;
}

PublishResult TimedStore::publish(const ArtifactKey &K, ArtifactEntry E,
                                  FaultContext *F) {
  Clock::time_point T0 = Clock::now();
  PublishResult R = Inner.publish(K, std::move(E), F);
  PublishMs += msSince(T0);
  ++Publishes;
  return R;
}
