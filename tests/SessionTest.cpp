//===- tests/SessionTest.cpp - CompilationSession pass manager -------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// End-to-end contracts of the session refactor: the SCP-depth ablation
// recomputes its upstream passes exactly once (the acceptance criterion
// of the refactor), pipeline outputs are byte-identical with the cache
// on and off across the Livermore kernels, a session's own store and a
// caller-provided MemoryStore are interchangeable, a CompiledLoop shares
// the store's artifacts and outlives its session, and the trace
// serializes to the documented JSON schema.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "core/Pipeline.h"
#include "core/Session.h"
#include "core/SharedArtifactCache.h"
#include "livermore/Livermore.h"
#include "support/FaultInjection.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <chrono>
#include <optional>
#include <sstream>

using namespace sdsp;

namespace {

const LivermoreKernel &kernel(const std::string &Id) {
  const LivermoreKernel *K = findKernel(Id);
  EXPECT_NE(K, nullptr) << Id;
  return *K;
}

/// The six kernels the cache-equivalence acceptance test sweeps.
const char *const SweepKernels[] = {"loop1", "loop7",   "loop12",
                                    "loop3", "loop5", "loop9lcd"};

/// Serializes everything a pipeline run produces that a user can see:
/// the schedule, the register-transfer program, and the emitted C.
std::string serializeOutputs(CompilationSession &S,
                             const std::string &Source) {
  auto G = S.lower(Source);
  EXPECT_TRUE(bool(G));
  auto Sd = S.buildSdsp(*G, /*Capacity=*/1, /*OptimizeStorage=*/false);
  EXPECT_TRUE(bool(Sd));
  auto Pn = S.buildPn(*Sd);
  EXPECT_TRUE(bool(Pn));
  auto F = S.searchFrustum(*Pn, FrustumOptions{});
  EXPECT_TRUE(bool(F));
  auto Sched = S.deriveSchedule(*Sd, *Pn, *F, /*ValidateIterations=*/64);
  EXPECT_TRUE(bool(Sched));
  auto Prog = S.generateProgram(*Sd, *Pn, *Sched);
  EXPECT_TRUE(bool(Prog));

  std::ostringstream OS;
  (*Sched)->print(OS, (*Pn)->Net);
  (*Prog)->print(OS);
  OS << emitC(**Prog, "kernel").Source;
  return OS.str();
}

/// Acceptance criterion of the refactor: an l = 1..8 SCP-depth ablation
/// through one session recomputes lowering, SDSP construction, and the
/// SDSP-PN translation exactly once, verified via the cache-hit
/// counters.
TEST(SessionTest, DepthSweepRecomputesUpstreamExactlyOnce) {
  const LivermoreKernel &K = kernel("loop7");
  CompilationSession S(SessionConfig{true});
  for (uint32_t Depth = 1; Depth <= 8; ++Depth) {
    PipelineOptions Opts;
    Opts.ScpDepth = Depth;
    Expected<CompiledLoop> CL = S.compile(K.Source, Opts);
    ASSERT_TRUE(bool(CL)) << "depth " << Depth << ": "
                          << CL.status().str();
    ASSERT_TRUE(bool(CL->Scp));
    EXPECT_EQ(CL->Scp->PipelineDepth, Depth);
    ASSERT_TRUE(bool(CL->Frustum));
  }
  for (PassKind PK : {PassKind::Lower, PassKind::Sdsp, PassKind::SdspPn,
                      PassKind::Rate}) {
    const PassStats &PS = S.passStats(PK);
    EXPECT_EQ(PS.Invocations, 8u) << passInfo(PK).Id;
    EXPECT_EQ(PS.CacheHits, 7u) << passInfo(PK).Id;
    EXPECT_EQ(PS.Failures, 0u) << passInfo(PK).Id;
  }
  // Each depth is a distinct SCP machine: no reuse possible.
  EXPECT_EQ(S.passStats(PassKind::Scp).Invocations, 8u);
  EXPECT_EQ(S.passStats(PassKind::Scp).CacheHits, 0u);
  EXPECT_EQ(S.passStats(PassKind::Frustum).CacheHits, 0u);
}

/// The cache must be invisible in the outputs: byte-identical schedule,
/// program, and C across cache-on, cache-off, and cached-replay runs,
/// for every bundled Livermore kernel.
TEST(SessionTest, OutputsByteIdenticalCacheOnAndOff) {
  for (const char *Id : SweepKernels) {
    const LivermoreKernel &K = kernel(Id);
    CompilationSession On(SessionConfig{true});
    CompilationSession Off(SessionConfig{false});
    std::string First = serializeOutputs(On, K.Source);
    std::string Uncached = serializeOutputs(Off, K.Source);
    EXPECT_EQ(First, Uncached) << Id;
    // Replay within the cached session: all hits, same bytes.
    std::string Replay = serializeOutputs(On, K.Source);
    EXPECT_EQ(First, Replay) << Id;
    EXPECT_GT(On.trace().totalCacheHits(), 0u) << Id;
    EXPECT_EQ(Off.trace().totalCacheHits(), 0u) << Id;
  }
}

/// One cache protocol: a session that owns its store and a session over
/// a caller-provided MemoryStore count every pass the same way and
/// produce the same results, over an SCP-depth sweep per kernel.
TEST(SessionTest, OwnStoreAndCallerMemoryStoreAgree) {
  auto Sweep = [](CompilationSession &S, const std::string &Source) {
    std::ostringstream OS;
    for (uint32_t Depth = 1; Depth <= 4; ++Depth) {
      PipelineOptions Opts;
      Opts.ScpDepth = Depth;
      Opts.Verify = true;
      Expected<CompiledLoop> CL = S.compile(Source, Opts);
      EXPECT_TRUE(bool(CL)) << CL.status().str();
      if (!CL)
        return std::string("<failed>");
      OS << Depth << ": " << CL->Rate->OptimalRate << " ["
         << CL->Frustum->StartTime << ", " << CL->Frustum->RepeatTime
         << ")";
      for (TransitionId T : CL->machineNet().transitionIds())
        OS << ' ' << CL->Frustum->computationRate(T);
      OS << '\n';
    }
    return OS.str();
  };
  for (const char *Id : SweepKernels) {
    const LivermoreKernel &K = kernel(Id);
    CompilationSession Own(SessionConfig{true});
    MemoryStore Memory;
    SessionConfig Cfg{true};
    Cfg.Store = &Memory;
    CompilationSession Shared(Cfg);
    EXPECT_NE(Own.store(), nullptr) << Id;
    EXPECT_EQ(Shared.store(), &Memory) << Id;

    EXPECT_EQ(Sweep(Own, K.Source), Sweep(Shared, K.Source)) << Id;
    for (size_t P = 0; P < NumPassKinds; ++P) {
      PassKind PK = static_cast<PassKind>(P);
      const PassStats &A = Own.passStats(PK);
      const PassStats &B = Shared.passStats(PK);
      EXPECT_EQ(A.Invocations, B.Invocations) << Id << " " << passInfo(PK).Id;
      EXPECT_EQ(A.CacheHits, B.CacheHits) << Id << " " << passInfo(PK).Id;
      EXPECT_EQ(A.Failures, B.Failures) << Id << " " << passInfo(PK).Id;
      EXPECT_EQ(A.ArtifactBytes, B.ArtifactBytes)
          << Id << " " << passInfo(PK).Id;
    }
    // Upstream passes ran once per session and hit on the other depths.
    EXPECT_EQ(Own.passStats(PassKind::Lower).CacheHits, 3u) << Id;
    EXPECT_EQ(Own.cacheEntries(), Memory.entries()) << Id;
    EXPECT_EQ(Shared.cacheEntries(), 0u) << Id;
  }
}

/// A hit resolves as "hit" whichever store answered it, its lookup time
/// is recorded, and a session's own store publishes like a shared one.
TEST(SessionTest, OwnStoreHitsAreTracedAndTimed) {
  TraceCollector Collector;
  SessionConfig Cfg{true};
  Cfg.Trace = &Collector.track("job");
  CompilationSession S(std::move(Cfg));
  const LivermoreKernel &K = kernel("loop7");
  ASSERT_TRUE(bool(S.compile(K.Source, PipelineOptions{})));
  ASSERT_TRUE(bool(S.compile(K.Source, PipelineOptions{})));

  const PassStats &Lower = S.passStats(PassKind::Lower);
  EXPECT_EQ(Lower.CacheHits, 1u);
  EXPECT_GT(Lower.HitSeconds, 0.0);
  EXPECT_EQ(S.passStats(PassKind::Verify).HitSeconds, 0.0);

  std::ostringstream OS;
  Collector.writeJson(OS);
  const std::string Text = OS.str();
  EXPECT_NE(Text.find("\"resolved\": \"hit\""), std::string::npos);
  EXPECT_NE(Text.find("\"cache-publish\""), std::string::npos);

  std::ostringstream Json;
  S.trace().writeJson(Json);
  EXPECT_NE(Json.str().find("\"hit_seconds\": "), std::string::npos);
  std::ostringstream Table;
  S.trace().printTable(Table);
  EXPECT_NE(Table.str().find("hit ms"), std::string::npos);

  S.clearCache();
  EXPECT_EQ(S.cacheEntries(), 0u);
}

/// Identity transform options skip the transform pass entirely in the
/// one-call driver (matching the legacy pipeline's stage order).
TEST(SessionTest, IdentityOptionsSkipTransformPass) {
  const LivermoreKernel &K = kernel("loop1");
  CompilationSession S(SessionConfig{true});
  ASSERT_TRUE(bool(S.compile(K.Source, PipelineOptions{})));
  EXPECT_EQ(S.passStats(PassKind::Transform).Invocations, 0u);

  PipelineOptions Opt;
  Opt.Optimize = true;
  ASSERT_TRUE(bool(S.compile(K.Source, Opt)));
  EXPECT_EQ(S.passStats(PassKind::Transform).Invocations, 1u);
}

TEST(SessionTest, TraceReportsPassesAndSerializesJson) {
  const LivermoreKernel &K = kernel("loop12");
  CompilationSession S(SessionConfig{true});
  PipelineOptions Opts;
  Opts.Verify = true;
  ASSERT_TRUE(bool(S.compile(K.Source, Opts)));

  PipelineTrace Trace = S.trace();
  EXPECT_TRUE(Trace.CacheEnabled);
  EXPECT_GT(Trace.totalInvocations(), 0u);
  EXPECT_GE(Trace.totalWallSeconds(), 0.0);

  std::ostringstream Json;
  Trace.writeJson(Json);
  const std::string Text = Json.str();
  EXPECT_NE(Text.find("sdsp-pipeline-trace-v1"), std::string::npos);
  for (const char *Id : {"lower", "sdsp", "sdsp-pn", "rate", "frustum",
                         "schedule", "verify"})
    EXPECT_NE(Text.find(std::string("\"") + Id + "\""), std::string::npos)
        << Id;

  std::ostringstream Table;
  Trace.printTable(Table);
  EXPECT_NE(Table.str().find("lower"), std::string::npos);
}

/// Artifacts carry shared ownership: they stay valid after the session
/// that produced them is gone.
TEST(SessionTest, ArtifactsOutliveTheSession) {
  ArtifactRef<SdspPn> Pn;
  {
    CompilationSession S(SessionConfig{true});
    auto G = S.lower(kernel("l1").Source);
    ASSERT_TRUE(bool(G));
    auto Sd = S.buildSdsp(*G, 1, false);
    ASSERT_TRUE(bool(Sd));
    auto Got = S.buildPn(*Sd);
    ASSERT_TRUE(bool(Got));
    Pn = *Got;
  }
  EXPECT_GT(Pn->Net.numTransitions(), 0u);
  EXPECT_NE(Pn.hash(), 0u);
}

TEST(SessionTest, CompiledLoopSharesTheStoredArtifacts) {
  CompilationSession S(SessionConfig{true});
  PipelineOptions PO;
  Expected<CompiledLoop> CL = S.compile(kernel("loop7").Source, PO);
  ASSERT_TRUE(bool(CL)) << CL.status().str();

  // Re-running the passes hits the store, which hands back the very
  // objects the compiled loop holds: nothing was copied.
  auto G = S.lower(kernel("loop7").Source);
  ASSERT_TRUE(bool(G));
  auto Sd = S.buildSdsp(*G, PO.Capacity, PO.OptimizeStorage);
  ASSERT_TRUE(bool(Sd));
  auto Pn = S.buildPn(*Sd);
  ASSERT_TRUE(bool(Pn));
  auto F = S.searchFrustum(*Pn, FrustumOptions{});
  ASSERT_TRUE(bool(F));
  auto Sched = S.deriveSchedule(*Sd, *Pn, *F, PO.ValidateIterations);
  ASSERT_TRUE(bool(Sched));
  EXPECT_EQ(CL->Graph.get(), G->ptr().get());
  EXPECT_EQ(CL->S.get(), &(*Sd)->S);
  EXPECT_EQ(CL->Pn.get(), Pn->ptr().get());
  EXPECT_EQ(CL->Frustum.get(), F->ptr().get());
  EXPECT_EQ(CL->Schedule.get(), Sched->ptr().get());
}

TEST(SessionTest, CompiledLoopOutlivesSessionAndStore) {
  PipelineOptions PO;
  PO.Verify = true;
  std::optional<CompiledLoop> CL;
  std::string Printed;
  {
    // The session owns its private MemoryStore; both die here.
    CompilationSession S(SessionConfig{true});
    Expected<CompiledLoop> R = S.compile(kernel("loop9lcd").Source, PO);
    ASSERT_TRUE(bool(R)) << R.status().str();
    std::ostringstream OS;
    R->Schedule->print(OS, R->Pn->Net);
    Printed = OS.str();
    CL.emplace(std::move(*R));
  }
  ASSERT_TRUE(CL->Verified);
  EXPECT_TRUE(bool(verifyCompiledLoop(*CL, PO)));
  std::ostringstream OS;
  CL->Schedule->print(OS, CL->Pn->Net);
  EXPECT_EQ(OS.str(), Printed);
}

//===----------------------------------------------------------------------===//
// Cancellation and fault sites at the pass boundary
// (docs/ROBUSTNESS.md).
//===----------------------------------------------------------------------===//

TEST(SessionTest, CancelledTokenFailsAtThePassBoundary) {
  TraceCollector Collector;
  SessionConfig Cfg{true};
  Cfg.Trace = &Collector.track("job");
  CancelSource Src;
  Src.cancel();
  Cfg.Cancel = Src.token();
  CompilationSession S(std::move(Cfg));
  Expected<CompiledLoop> CL =
      S.compile(kernel("loop1").Source, PipelineOptions{});
  ASSERT_FALSE(bool(CL));
  EXPECT_EQ(CL.status().code(), ErrorCode::Cancelled);
  EXPECT_EQ(CL.status().stage(), "session");
  EXPECT_NE(CL.status().str().find("before pass 'lower'"),
            std::string::npos);
  // The observation shows up on the trace as a "cancelled" instant.
  std::ostringstream OS;
  Collector.writeJson(OS);
  EXPECT_NE(OS.str().find("\"cancelled\""), std::string::npos);
}

TEST(SessionTest, ExpiredDeadlineFailsWithDeadlineExceeded) {
  SessionConfig Cfg{true};
  Cfg.Cancel =
      CancelSource::withDeadline(std::chrono::milliseconds(0)).token();
  CompilationSession S(std::move(Cfg));
  Expected<CompiledLoop> CL =
      S.compile(kernel("loop1").Source, PipelineOptions{});
  ASSERT_FALSE(bool(CL));
  EXPECT_EQ(CL.status().code(), ErrorCode::DeadlineExceeded);
}

/// The in-session retry contract the batch layer relies on: a transient
/// pass fault fails the compile, and because the pass boundary
/// checkpoints before any cache insert, the retry through the same
/// session and context recomputes instead of replaying a poisoned
/// artifact.
TEST(SessionTest, TransientPassFaultRetriesCleanlyInTheSameSession) {
  const LivermoreKernel &K = kernel("loop7");
  CompilationSession Plain(SessionConfig{true});
  Expected<CompiledLoop> Want = Plain.compile(K.Source, PipelineOptions{});
  ASSERT_TRUE(bool(Want));

  Expected<FaultSchedule> Sched = FaultSchedule::parse("pass:sdsp:fail@1");
  ASSERT_TRUE(Sched);
  FaultContext Ctx(&*Sched, "kernel:loop7");
  SessionConfig Cfg{true};
  Cfg.Faults = &Ctx;
  CompilationSession S(std::move(Cfg));
  Expected<CompiledLoop> First = S.compile(K.Source, PipelineOptions{});
  ASSERT_FALSE(bool(First));
  EXPECT_EQ(First.status().code(), ErrorCode::TransientFault);
  EXPECT_EQ(Ctx.fired(), 1u);

  // Arrivals persisted past the trigger, so the retry sails through.
  Expected<CompiledLoop> Retry = S.compile(K.Source, PipelineOptions{});
  ASSERT_TRUE(bool(Retry)) << Retry.status().str();
  EXPECT_EQ(Ctx.fired(), 1u);

  // Byte-identical to the fault-free schedule.
  auto ScheduleText = [](const CompiledLoop &CL) {
    std::ostringstream OS;
    CL.Schedule->print(OS, CL.machineNet());
    return OS.str();
  };
  EXPECT_EQ(ScheduleText(*Retry), ScheduleText(*Want));
}

} // namespace
