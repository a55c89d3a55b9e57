//===- core/Pipeline.cpp - Guarded end-to-end compilation ------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "core/ScheduleDerivation.h"
#include "petri/Invariants.h"
#include "petri/MarkedGraph.h"

#include <algorithm>
#include <functional>

using namespace sdsp;

Status sdsp::verifyCompiledLoop(const CompiledLoop &CL,
                                const PipelineOptions &Opts) {
  auto Fail = [](const std::string &Msg) {
    return Status::error(ErrorCode::InternalInvariant, "verify", Msg);
  };

  if (!CL.Pn)
    return Status::ok(); // Nothing net-level to check before Petri.
  const PetriNet &Net = CL.Pn->Net;

  // Structure: Section 3.2 claims the translation yields a live marked
  // graph; marked graphs are structurally persistent and consistent
  // (all-ones T-invariant, Thm A.5.3).
  if (!isMarkedGraph(Net))
    return Fail("SDSP-PN is not a marked graph");
  if (!isLiveMarkedGraph(Net))
    return Fail("SDSP-PN initial marking is not live "
                "(some simple cycle is token-free)");
  if (!isStructurallyPersistent(Net))
    return Fail("SDSP-PN is not structurally persistent");
  if (!hasUniformTInvariant(Net))
    return Fail("all-ones firing vector is not a T-invariant "
                "(the net is not consistent)");

  // Safeness (Thm A.5.2) is promised for one-slot buffers; feedback
  // windows deeper than one iteration legitimately hold several tokens,
  // so only check when no place starts with more than one.
  if (Opts.Capacity == 1) {
    bool SingleTokens = true;
    for (PlaceId P : Net.placeIds())
      if (Net.place(P).InitialTokens > 1) {
        SingleTokens = false;
        break;
      }
    if (SingleTokens && !isSafeMarkedGraph(Net))
      return Fail("capacity-1 SDSP-PN is not safe");
  }

  if (CL.Frustum && CL.Rate) {
    const FrustumInfo &F = *CL.Frustum;
    if (CL.Scp) {
      // SCP machine.  Token balance over one frustum period forces
      // uniform firing counts within each marked-graph-connected
      // component; the run place couples components only through the
      // shared issue slot, so independent components (e.g. unrolled
      // copies of a recurrence-free body) may legitimately round-robin
      // unevenly within a single period.
      size_t N = CL.Scp->numSdspTransitions();
      std::vector<size_t> Comp(N);
      for (size_t I = 0; I < N; ++I)
        Comp[I] = I;
      std::function<size_t(size_t)> Find = [&](size_t I) {
        while (Comp[I] != I)
          I = Comp[I] = Comp[Comp[I]];
        return I;
      };
      for (PlaceId P : Net.placeIds()) {
        const PetriNet::Place &Pl = Net.place(P);
        // SDSP-PN places have exactly one producer and one consumer.
        Comp[Find(Pl.Producers.front().index())] =
            Find(Pl.Consumers.front().index());
      }
      bool SingleComponent = true;
      std::vector<int64_t> ComponentCount(N, -1);
      uint64_t TotalFirings = 0;
      for (size_t I = 0; I < N; ++I) {
        uint32_t C = F.transitionCount(CL.Scp->SdspTransitions[I]);
        TotalFirings += C;
        size_t Root = Find(I);
        if (Root != Find(0))
          SingleComponent = false;
        if (ComponentCount[Root] < 0)
          ComponentCount[Root] = C;
        else if (ComponentCount[Root] != static_cast<int64_t>(C))
          return Fail("SCP frustum has non-uniform firing counts within "
                      "one connected component");
      }
      // The run place can issue at most Pipelines instructions per time
      // step, bounding the aggregate throughput.
      if (TotalFirings >
          static_cast<uint64_t>(Opts.Pipelines) * F.length())
        return Fail("SCP frustum issues " + std::to_string(TotalFirings) +
                    " instructions in " + std::to_string(F.length()) +
                    " cycles, above the run-place capacity");
      if (SingleComponent && N > 0) {
        // Thm 5.2.2 (stated for one coupled net): the achieved rate
        // respects both the data bound alpha* and the issue bound
        // pipelines/n.
        Rational ScpRate =
            F.computationRate(CL.Scp->SdspTransitions.front());
        if (CL.Rate->OptimalRate < ScpRate)
          return Fail("SCP frustum rate " + ScpRate.str() +
                      " exceeds the analytic optimal rate " +
                      CL.Rate->OptimalRate.str());
        Rational IssueBound(static_cast<int64_t>(Opts.Pipelines),
                            static_cast<int64_t>(N));
        if (IssueBound < ScpRate)
          return Fail("SCP frustum rate " + ScpRate.str() +
                      " violates the Thm 5.2.2 issue bound " +
                      IssueBound.str());
      }
    } else {
      // Ideal machine: the frustum-derived rate must EQUAL the analytic
      // critical-cycle rate gamma = 1/alpha* (Thm 4.1.1 optimality).
      if (!F.hasUniformCount(Net.transitionIds()))
        return Fail("frustum has non-uniform firing counts on a marked "
                    "graph (contradicts Thm A.5.3)");
      Rational FrustumRate = F.computationRate(Net.transitionIds().front());
      if (FrustumRate != CL.Rate->OptimalRate)
        return Fail("frustum-derived rate " + FrustumRate.str() +
                    " != analytic critical-cycle rate " +
                    CL.Rate->OptimalRate.str());
    }
  }

  // Replay the derived schedule further than the pipeline itself did.
  if (CL.Schedule && CL.S) {
    std::string Err;
    uint64_t Iters = std::max<uint64_t>(2 * Opts.ValidateIterations, 16);
    if (!validateSchedule(*CL.S, *CL.Pn, *CL.Schedule, Iters, &Err))
      return Fail("schedule revalidation failed: " + Err);
  }

  return Status::ok();
}

int sdsp::exitCodeFor(const Status &S) {
  switch (S.code()) {
  case ErrorCode::Ok:
    return 0;
  case ErrorCode::InvalidInput:
  case ErrorCode::InvalidGraph:
  case ErrorCode::InvalidNet:
    return 1;
  case ErrorCode::BudgetExceeded:
  case ErrorCode::ResourceConflict:
  case ErrorCode::Cancelled:
  case ErrorCode::DeadlineExceeded:
  case ErrorCode::TransientFault:
    return 2;
  case ErrorCode::InternalInvariant:
    return 3;
  }
  SDSP_UNREACHABLE("unknown error code");
}
