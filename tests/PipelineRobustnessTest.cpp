//===- tests/PipelineRobustnessTest.cpp - Guarded pipeline robustness ------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// The guarded pipeline must never crash or hang, whatever the input:
// every run ends in a stage-tagged diagnostic or a verified schedule.
// Deterministic fuzz-lite sweeps drive random token soups and mutated
// kernels through CompilationSession::compile() with randomized options
// and Verify on, then pin down the structured errors each guard is
// supposed to raise.
// The whole suite runs under SDSP_CHECK (active in Release builds too),
// so a Release/NDEBUG ctest run exercises the same guard rails.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "core/Session.h"
#include "dataflow/GraphBuilder.h"
#include "dataflow/Unroll.h"
#include "livermore/Livermore.h"
#include "support/Random.h"

#include "gtest/gtest.h"

using namespace sdsp;

namespace {

/// Compiles \p Src in a throwaway session, so no call is answered from
/// an earlier call's cache.
Expected<CompiledLoop> compileFresh(const std::string &Src,
                                    const PipelineOptions &Opts,
                                    DiagnosticEngine *Diags = nullptr) {
  CompilationSession Session;
  return Session.compile(Src, Opts, Diags);
}

/// Any pipeline outcome must be a success with the requested artifacts
/// or a structured, stage-tagged error — never anything else.
void expectDiagnosticOrSchedule(const Expected<CompiledLoop> &Result,
                                const std::string &Context) {
  if (!Result) {
    const Status &St = Result.status();
    EXPECT_NE(St.code(), ErrorCode::Ok) << Context;
    EXPECT_FALSE(St.stage().empty()) << Context;
    EXPECT_FALSE(St.message().empty()) << Context;
    // Fuzzed *inputs* may hit any input/resource guard, but never an
    // internal invariant: that exit is reserved for compiler bugs.
    EXPECT_NE(St.code(), ErrorCode::InternalInvariant)
        << Context << ": " << St.str();
    return;
  }
  const CompiledLoop &CL = *Result;
  EXPECT_TRUE(CL.Verified) << Context;
  ASSERT_TRUE(bool(CL.Schedule) || bool(CL.Scp)) << Context;
  ASSERT_TRUE(bool(CL.Frustum)) << Context;
  ASSERT_TRUE(bool(CL.Rate)) << Context;
}

PipelineOptions randomOptions(Rng &R) {
  PipelineOptions Opts;
  Opts.Optimize = R.chance(1, 2);
  Opts.Capacity = static_cast<uint32_t>(R.range(1, 3));
  Opts.Unroll = static_cast<uint32_t>(R.range(1, 3));
  Opts.ScpDepth = R.chance(3, 10) ? static_cast<uint32_t>(R.range(1, 4)) : 0;
  Opts.Pipelines = static_cast<uint32_t>(R.range(1, 2));
  Opts.OptimizeStorage = R.chance(3, 10);
  Opts.Verify = true;
  return Opts;
}

TEST(PipelineRobustness, RandomTokenSoupNeverCrashes) {
  const char *Pieces[] = {"do",  "doall", "init", "out", "if",  "then",
                          "else", "min",  "max",  "i",   "x",   "y",
                          "42",  "3.5",  "=",    "+",   "-",   "*",
                          "/",   "(",    ")",    "[",   "]",   "{",
                          "}",   ";",    ",",    "<",   "<=",  "=="};
  Rng R(20260805);
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::string Src;
    size_t Len = static_cast<size_t>(R.range(1, 40));
    for (size_t I = 0; I < Len; ++I) {
      Src += Pieces[R.range(0, static_cast<int64_t>(std::size(Pieces)) - 1)];
      Src += " ";
    }
    PipelineOptions Opts = randomOptions(R);
    expectDiagnosticOrSchedule(compileFresh(Src, Opts), Src);
  }
}

TEST(PipelineRobustness, MutatedKernelsEndToEnd) {
  Rng R(80507);
  for (const LivermoreKernel &K : livermoreKernels()) {
    for (int Trial = 0; Trial < 25; ++Trial) {
      std::string Src = K.Source;
      for (int Edit = 0; Edit < 3; ++Edit) {
        if (Src.empty())
          break;
        size_t Pos = static_cast<size_t>(
            R.range(0, static_cast<int64_t>(Src.size()) - 1));
        switch (R.range(0, 2)) {
        case 0:
          Src[Pos] = static_cast<char>('!' + R.range(0, 90));
          break;
        case 1:
          Src.erase(Pos, 1);
          break;
        default:
          Src.insert(Pos, 1, Src[Pos]);
          break;
        }
      }
      PipelineOptions Opts = randomOptions(R);
      expectDiagnosticOrSchedule(compileFresh(Src, Opts),
                                 std::string(K.Id) + "/" +
                                     std::to_string(Trial));
    }
  }
}

TEST(PipelineRobustness, PristineKernelsVerifyUnderAllOptions) {
  // Unmutated kernels must compile AND verify under every option mix:
  // the frustum rate always matches the analytic critical-cycle rate.
  Rng R(424242);
  for (const LivermoreKernel &K : livermoreKernels()) {
    for (int Trial = 0; Trial < 8; ++Trial) {
      PipelineOptions Opts = randomOptions(R);
      // Storage minimization is only defined for capacity-1 buffers
      // (its guard is exercised by the fuzz sweeps above).
      if (Opts.Capacity != 1)
        Opts.OptimizeStorage = false;
      Expected<CompiledLoop> Result = compileFresh(K.Source, Opts);
      ASSERT_TRUE(Result.ok())
          << K.Id << ": " << Result.status().str();
      EXPECT_TRUE(Result->Verified) << K.Id;
    }
  }
}

TEST(PipelineRobustness, FrontendErrorsCarryDiagnostics) {
  DiagnosticEngine Diags;
  Expected<CompiledLoop> Result = compileFresh("do i { A = ; }", {}, &Diags);
  ASSERT_FALSE(Result.ok());
  EXPECT_EQ(Result.status().code(), ErrorCode::InvalidInput);
  EXPECT_EQ(Result.status().stage(), "frontend");
  EXPECT_TRUE(Diags.hasErrors());
  // The Status message summarizes the diagnostics for callers that did
  // not pass an engine.
  EXPECT_NE(Result.status().message().find(":"), std::string::npos);
}

TEST(PipelineRobustness, OptionGuards) {
  const char *Src = "do i { init s = 0; s = s[i-1] + X[i]; out s; }";
  {
    PipelineOptions Opts;
    Opts.Capacity = 0;
    Expected<CompiledLoop> R = compileFresh(Src, Opts);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), ErrorCode::InvalidInput);
    EXPECT_EQ(R.status().stage(), "options");
  }
  {
    PipelineOptions Opts;
    Opts.Unroll = MaxUnrollFactor + 1;
    Expected<CompiledLoop> R = compileFresh(Src, Opts);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), ErrorCode::InvalidInput);
  }
  {
    PipelineOptions Opts;
    Opts.ScpDepth = MaxPipelineDepth + 1;
    Expected<CompiledLoop> R = compileFresh(Src, Opts);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), ErrorCode::InvalidInput);
    EXPECT_EQ(R.status().stage(), "scp");
  }
  {
    PipelineOptions Opts;
    Opts.ScpDepth = 2;
    Opts.Pipelines = 0;
    Expected<CompiledLoop> R = compileFresh(Src, Opts);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), ErrorCode::ResourceConflict);
  }
}

TEST(PipelineRobustness, BudgetExceededCarriesPartialTrace) {
  // l2's transient is several steps long, so a one-step budget dies
  // before the repeated state (a one-transition recurrence would not).
  const LivermoreKernel *K = findKernel("l2");
  ASSERT_NE(K, nullptr);
  PipelineOptions Opts;
  Opts.FrustumBudgetSteps = 1;
  Expected<CompiledLoop> R = compileFresh(K->Source, Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::BudgetExceeded);
  EXPECT_EQ(R.status().stage(), "frustum");
  // The message reports how far the search got before the budget died.
  EXPECT_NE(R.status().message().find("1 steps"), std::string::npos)
      << R.status().str();
  EXPECT_NE(R.status().message().find("last step fired"), std::string::npos)
      << R.status().str();
}

TEST(PipelineRobustness, DefaultBudgetIsTheoryBound) {
  // Every bundled kernel terminates comfortably inside the n^3 default.
  for (const LivermoreKernel &K : livermoreKernels()) {
    PipelineOptions Opts;
    Opts.Verify = true;
    Expected<CompiledLoop> R = compileFresh(K.Source, Opts);
    ASSERT_TRUE(R.ok()) << K.Id << ": " << R.status().str();
    // The paper's empirical claim: the frustum shows up within ~2n.
    EXPECT_TRUE(R->FrustumWithinEmpiricalBound) << K.Id;
  }
}

TEST(PipelineRobustness, EmptyLoopIsDiagnosedNotScheduled) {
  Expected<CompiledLoop> R = compileFresh("do i { }", {});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::InvalidNet);
  EXPECT_EQ(R.status().stage(), "petri");
}

TEST(PipelineRobustness, GraphEntryPointRevalidates) {
  // A hand-built graph goes through the same validation as frontend
  // output.
  GraphBuilder B;
  GraphBuilder::Value X = B.input("X");
  GraphBuilder::Delayed Prev = B.delayed({0.0});
  B.outputValue("out", B.add(X, Prev.value()));
  // The delayed value is never bound to a producer: takeChecked must
  // refuse the half-built recurrence.
  Expected<DataflowGraph> G = B.takeChecked();
  ASSERT_FALSE(G.ok());
  EXPECT_EQ(G.status().code(), ErrorCode::InvalidGraph);
}

TEST(PipelineRobustness, StopAfterStagesPopulateExactlyWhatTheyPromise) {
  const char *Src = "do i { init s = 0; s = s[i-1] + X[i]; out s; }";
  PipelineOptions Opts;
  Opts.StopAfter = PipelineStage::Petri;
  Expected<CompiledLoop> R = compileFresh(Src, Opts);
  ASSERT_TRUE(R.ok()) << R.status().str();
  EXPECT_TRUE(bool(R->Pn));
  EXPECT_TRUE(bool(R->Rate));
  EXPECT_FALSE(bool(R->Frustum));
  EXPECT_FALSE(bool(R->Schedule));

  Opts.StopAfter = PipelineStage::Frontend;
  Expected<CompiledLoop> R2 = compileFresh(Src, Opts);
  ASSERT_TRUE(R2.ok());
  EXPECT_FALSE(bool(R2->S));
  EXPECT_FALSE(bool(R2->Pn));
}

TEST(PipelineRobustness, VerifyCrossChecksFrustumAgainstCycleRatio) {
  // The tentpole acceptance check, library-level: on all six Table-1/
  // Table-2 loops the frustum-derived rate equals 1/alpha*.
  for (const char *Id :
       {"loop1", "loop3", "loop5", "loop7", "loop9", "loop12"}) {
    const LivermoreKernel *K = findKernel(Id);
    ASSERT_NE(K, nullptr) << Id;
    PipelineOptions Opts;
    Opts.Verify = true;
    Expected<CompiledLoop> R = compileFresh(K->Source, Opts);
    ASSERT_TRUE(R.ok()) << Id << ": " << R.status().str();
    ASSERT_TRUE(R->Verified);
    Rational FrustumRate = R->Frustum->computationRate(
        R->Pn->Net.transitionIds().front());
    EXPECT_EQ(FrustumRate, R->Rate->OptimalRate) << Id;
  }
}

} // namespace
