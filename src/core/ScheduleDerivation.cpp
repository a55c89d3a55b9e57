//===- core/ScheduleDerivation.cpp - Frustum -> schedule -------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/ScheduleDerivation.h"

#include <algorithm>
#include <cassert>

using namespace sdsp;

Expected<SoftwarePipelineSchedule>
sdsp::deriveScheduleChecked(const SdspPn &Pn, const FrustumInfo &Frustum) {
  size_t N = Pn.Net.numTransitions();
  if (Frustum.FiringCounts.size() != N)
    return Status::error(ErrorCode::InvalidInput, "schedule",
                         "frustum was detected on a different net (" +
                             std::to_string(Frustum.FiringCounts.size()) +
                             " transitions vs " + std::to_string(N) + ")");
  uint32_t K = 0;
  for (TransitionId T : Pn.Net.transitionIds()) {
    uint32_t C = Frustum.transitionCount(T);
    if (C < 1)
      return Status::error(ErrorCode::InvalidNet, "schedule",
                           "transition " + Pn.Net.transition(T).Name +
                               " never fires in the frustum");
    if (K == 0)
      K = C;
    if (C != K)
      return Status::error(ErrorCode::InvalidNet, "schedule",
                           "non-uniform firing counts in the frustum (" +
                               Pn.Net.transition(T).Name + " fires " +
                               std::to_string(C) + "x vs " +
                               std::to_string(K) +
                               "x); net is not a marked graph?");
  }

  size_t Firings = 0;
  for (const StepRecord &Rec : Frustum.Trace)
    Firings += Rec.Fired.size();
  std::vector<SoftwarePipelineSchedule::PrologueOp> Prologue;
  std::vector<SoftwarePipelineSchedule::KernelOp> Kernel;
  Kernel.reserve(N * K);
  Prologue.reserve(Firings - std::min(Firings, N * K));
  std::vector<uint64_t> Occurrence(N, 0);
  for (const StepRecord &Rec : Frustum.Trace) {
    for (TransitionId T : Rec.Fired) {
      uint64_t Iter = Occurrence[T.index()]++;
      if (Rec.Time < Frustum.StartTime)
        Prologue.push_back({Rec.Time, T, Iter});
      else
        Kernel.push_back(
            {static_cast<uint32_t>(Rec.Time - Frustum.StartTime), T, Iter});
    }
  }
  Expected<SoftwarePipelineSchedule> Sched = SoftwarePipelineSchedule::build(
      N, Frustum.StartTime, Frustum.length(), K, std::move(Prologue),
      std::move(Kernel));
  if (!Sched)
    return Status::error(ErrorCode::InternalInvariant, "schedule",
                         "frustum trace does not form a schedule: " +
                             Sched.status().message());
  return Sched;
}

SoftwarePipelineSchedule sdsp::deriveSchedule(const SdspPn &Pn,
                                              const FrustumInfo &Frustum) {
  return SDSP_EXPECT_OK(deriveScheduleChecked(Pn, Frustum));
}

bool sdsp::validateSchedule(const Sdsp &S, const SdspPn &Pn,
                            const SoftwarePipelineSchedule &Sched,
                            uint64_t CheckIterations, std::string *Error) {
  const DataflowGraph &G = S.graph();
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (Sched.numTransitions() != Pn.Net.numTransitions())
    return Fail("schedule covers " + std::to_string(Sched.numTransitions()) +
                " transitions, the net has " +
                std::to_string(Pn.Net.numTransitions()));

  auto Tau = [&](TransitionId T) -> uint64_t {
    return Pn.Net.transition(T).ExecTime;
  };

  // The arc families check, for M = Lag .. CheckIterations - 1 in
  // order, start(Late, M) >= start(Early, M - Lag) + Gap, walking both
  // transitions' iterations with cursors (no division).  Returns the
  // first violating M, or CheckIterations.
  auto FirstViolation = [&](TransitionId Early, TransitionId Late,
                            uint64_t Lag, uint64_t Gap) -> uint64_t {
    if (Lag >= CheckIterations)
      return CheckIterations;
    SoftwarePipelineSchedule::StartCursor E(Sched, Early, 0);
    SoftwarePipelineSchedule::StartCursor L(Sched, Late, Lag);
    for (uint64_t M = Lag; M < CheckIterations; ++M, E.next(), L.next())
      if (L.time() < E.time() + Gap)
        return M;
    return CheckIterations;
  };

  // Non-reentrancy: firings of one transition are serialized.
  for (TransitionId T : Pn.Net.transitionIds()) {
    uint64_t TauT = Tau(T);
    SoftwarePipelineSchedule::StartCursor C(Sched, T, 0);
    for (uint64_t M = 1; M < CheckIterations; ++M) {
      TimeStep Prev = C.time();
      C.next();
      if (C.time() < Prev + TauT)
        return Fail("transition " + Pn.Net.transition(T).Name +
                    " iterations " + std::to_string(M - 1) + "/" +
                    std::to_string(M) + " overlap");
    }
  }

  // Data dependences: iteration m of V reads what iteration m - d of U
  // produced.
  for (ArcId A : G.arcIds()) {
    if (!S.isInteriorArc(A))
      continue;
    const DataflowGraph::Arc &Arc = G.arc(A);
    TransitionId U = Pn.NodeToTransition[Arc.From.index()];
    TransitionId V = Pn.NodeToTransition[Arc.To.index()];
    if (uint64_t M = FirstViolation(U, V, Arc.Distance, Tau(U));
        M < CheckIterations)
      return Fail("dependence violated on arc " + G.node(Arc.From).Name +
                  " -> " + G.node(Arc.To).Name + " at iteration " +
                  std::to_string(M));
  }

  // Buffer capacities: the producer at the head of each ack chain must
  // wait for the chain consumer's acknowledgement.
  for (const Sdsp::Ack &Ack : S.acks()) {
    const DataflowGraph::Arc &Head = G.arc(Ack.Path.front());
    const DataflowGraph::Arc &Tail = G.arc(Ack.Path.back());
    TransitionId U = Pn.NodeToTransition[Head.From.index()];
    TransitionId V = Pn.NodeToTransition[Tail.To.index()];
    if (uint64_t M = FirstViolation(V, U, Ack.Slots, Tau(V));
        M < CheckIterations)
      return Fail("capacity violated on ack " + G.node(Tail.To).Name +
                  " -> " + G.node(Head.From).Name + " at iteration " +
                  std::to_string(M));
  }

  return true;
}
