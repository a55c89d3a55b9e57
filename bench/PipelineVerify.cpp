//===- bench/PipelineVerify.cpp - Verified end-to-end pipeline timing ------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Times the guarded pipeline (frontend -> SDSP-PN -> frustum ->
// schedule) with verifyCompiledLoop() enabled, on the six Livermore
// kernels of Section 5.  This is the end-to-end series recorded in
// BENCH_pipeline.json: the fast-path engine must speed up frustum
// detection without costing anything in the surrounding stages, and the
// verified run proves each timed iteration still passes the cross-stage
// oracles (liveness, rate, schedule replay).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Session.h"
#include "support/TextTable.h"

using namespace sdsp;
using namespace sdsp::benchutil;

namespace {

PipelineOptions verifiedOptions() {
  PipelineOptions Opts;
  Opts.Verify = true;
  return Opts;
}

void printVerified(std::ostream &OS) {
  OS << "=== Verified pipeline on the Section 5 Livermore kernels ===\n\n";
  TextTable T;
  T.startRow();
  for (const char *H :
       {"kernel", "n (transitions)", "start", "repeat", "rate", "verified"})
    T.cell(H);
  for (const std::string &Id : livermoreIds()) {
    CompilationSession Session;
    auto CL = Session.compile(compileKernel(Id), verifiedOptions());
    T.startRow();
    T.cell(Id);
    if (!CL) {
      T.cell(CL.status().message());
      continue;
    }
    T.cell(CL->Pn->Net.numTransitions());
    T.cell(static_cast<int64_t>(CL->Frustum->StartTime));
    T.cell(static_cast<int64_t>(CL->Frustum->RepeatTime));
    T.cell(CL->Rate->OptimalRate.str());
    T.cell(CL->Verified ? "yes" : "NO");
  }
  T.print(OS);
  OS << "\n";
}

void benchPipelineVerify(benchmark::State &State, const std::string &Id) {
  DataflowGraph G = compileKernel(Id);
  PipelineOptions Opts = verifiedOptions();
  for (auto _ : State) {
    // A fresh session per iteration: every stage computes, none hits.
    CompilationSession Session;
    auto CL = Session.compile(DataflowGraph(G), Opts);
    if (!CL) {
      State.SkipWithError(CL.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(CL);
  }
}

} // namespace

BENCHMARK_CAPTURE(benchPipelineVerify, loop1, std::string("loop1"));
BENCHMARK_CAPTURE(benchPipelineVerify, loop7, std::string("loop7"));
BENCHMARK_CAPTURE(benchPipelineVerify, loop12, std::string("loop12"));
BENCHMARK_CAPTURE(benchPipelineVerify, loop3, std::string("loop3"));
BENCHMARK_CAPTURE(benchPipelineVerify, loop5, std::string("loop5"));
BENCHMARK_CAPTURE(benchPipelineVerify, loop9lcd, std::string("loop9lcd"));

SDSP_BENCH_MAIN(printVerified)
