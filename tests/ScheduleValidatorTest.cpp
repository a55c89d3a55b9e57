//===- tests/ScheduleValidatorTest.cpp - Validator equivalence ------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Pins validateSchedule (cursor walks over the flat schedule layout)
// to a brute-force oracle that rebuilds the per-transition start times
// from the op lists and looks every start time up on its own.  Both must return the same verdict and the same
// first error message on derived schedules of the Livermore kernels,
// the example loops and seeded random loops, and on perturbed copies
// of them.  The perturbations must reach each of the three violation
// families (overlap, dependence, capacity) inside the prologue, at the
// prologue/kernel boundary and past one kernel wrap.
//
//===----------------------------------------------------------------------===//

#include "core/ScheduleDerivation.h"

#include "TestUtil.h"
#include "livermore/Livermore.h"
#include "loopir/Lowering.h"
#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

enum class Violation { None, Overlap, Dependence, Capacity };

/// Where a violation shows, relative to the prologue count P of the
/// transition whose iteration M is checked: M < P, M == P, M >= P + k.
enum class Placement { Prologue, Boundary, PastWrap, Other };

struct OracleResult {
  bool Ok = true;
  std::string Error;
  Violation Kind = Violation::None;
  /// The checked transition and iteration of the first violation.
  TransitionId At;
  uint64_t M = 0;
};

/// The schedule's closed form as first written, rebuilt from the public
/// op lists alone: per-transition vectors of prologue times and kernel
/// slots, and a division by k per lookup.
class ReferenceStartTimes {
public:
  explicit ReferenceStartTimes(const SoftwarePipelineSchedule &S)
      : Prologue(S.numTransitions()), Slots(S.numTransitions()),
        Start(S.prologueEnd()), Period(S.kernelLength()),
        K(S.iterationsPerKernel()) {
    for (const auto &Op : S.prologue())
      Prologue[Op.T.index()].push_back(Op.Time);
    for (const auto &Op : S.kernel())
      Slots[Op.T.index()].push_back(Op.Slot);
  }

  TimeStep operator()(TransitionId T, uint64_t Iteration) const {
    const std::vector<TimeStep> &Pro = Prologue[T.index()];
    if (Iteration < Pro.size())
      return Pro[Iteration];
    uint64_t J = Iteration - Pro.size();
    return Start + J / K * Period + Slots[T.index()][J % K];
  }

private:
  std::vector<std::vector<TimeStep>> Prologue;
  std::vector<std::vector<uint32_t>> Slots;
  TimeStep Start;
  TimeStep Period;
  uint32_t K;
};

/// The validator as first written: every start time is its own lookup.
/// Same families, same loop order, same messages.
OracleResult referenceValidate(const Sdsp &S, const SdspPn &Pn,
                               const SoftwarePipelineSchedule &Sched,
                               uint64_t CheckIterations) {
  const DataflowGraph &G = S.graph();
  ReferenceStartTimes StartTime(Sched);
  OracleResult R;
  auto Fail = [&](Violation Kind, TransitionId At, uint64_t M,
                  const std::string &Msg) {
    R.Ok = false;
    R.Error = Msg;
    R.Kind = Kind;
    R.At = At;
    R.M = M;
    return R;
  };
  auto Tau = [&](TransitionId T) -> uint64_t {
    return Pn.Net.transition(T).ExecTime;
  };

  for (TransitionId T : Pn.Net.transitionIds()) {
    for (uint64_t M = 1; M < CheckIterations; ++M) {
      TimeStep Prev = StartTime(T, M - 1);
      TimeStep Cur = StartTime(T, M);
      if (Cur < Prev + Tau(T))
        return Fail(Violation::Overlap, T, M,
                    "transition " + Pn.Net.transition(T).Name +
                        " iterations " + std::to_string(M - 1) + "/" +
                        std::to_string(M) + " overlap");
    }
  }

  for (ArcId A : G.arcIds()) {
    if (!S.isInteriorArc(A))
      continue;
    const DataflowGraph::Arc &Arc = G.arc(A);
    TransitionId U = Pn.NodeToTransition[Arc.From.index()];
    TransitionId V = Pn.NodeToTransition[Arc.To.index()];
    for (uint64_t M = Arc.Distance; M < CheckIterations; ++M) {
      TimeStep Produced = StartTime(U, M - Arc.Distance) + Tau(U);
      if (StartTime(V, M) < Produced)
        return Fail(Violation::Dependence, V, M,
                    "dependence violated on arc " + G.node(Arc.From).Name +
                        " -> " + G.node(Arc.To).Name + " at iteration " +
                        std::to_string(M));
    }
  }

  for (const Sdsp::Ack &Ack : S.acks()) {
    const DataflowGraph::Arc &Head = G.arc(Ack.Path.front());
    const DataflowGraph::Arc &Tail = G.arc(Ack.Path.back());
    TransitionId U = Pn.NodeToTransition[Head.From.index()];
    TransitionId V = Pn.NodeToTransition[Tail.To.index()];
    for (uint64_t M = Ack.Slots; M < CheckIterations; ++M) {
      TimeStep AckReady = StartTime(V, M - Ack.Slots) + Tau(V);
      if (StartTime(U, M) < AckReady)
        return Fail(Violation::Capacity, U, M,
                    "capacity violated on ack " + G.node(Tail.To).Name +
                        " -> " + G.node(Head.From).Name + " at iteration " +
                        std::to_string(M));
    }
  }
  return R;
}

/// Prologue firings of each transition.
std::vector<uint64_t> prologueCounts(const SoftwarePipelineSchedule &Sched) {
  std::vector<uint64_t> P(Sched.numTransitions(), 0);
  for (const auto &Op : Sched.prologue())
    ++P[Op.T.index()];
  return P;
}

Placement placementOf(const OracleResult &R,
                      const SoftwarePipelineSchedule &Sched) {
  uint64_t P = prologueCounts(Sched)[R.At.index()];
  if (R.M < P)
    return Placement::Prologue;
  if (R.M == P)
    return Placement::Boundary;
  if (R.M >= P + Sched.iterationsPerKernel())
    return Placement::PastWrap;
  return Placement::Other;
}

struct Case {
  std::string Name;
  Sdsp S;
  SdspPn Pn;
  SoftwarePipelineSchedule Sched;
};

Case deriveCase(std::string Name, DataflowGraph G, uint32_t Capacity) {
  Sdsp S = Sdsp::standard(std::move(G), Capacity);
  SdspPn Pn = buildSdspPn(S);
  auto F = detectFrustum(Pn.Net);
  EXPECT_TRUE(F.has_value()) << Name;
  SoftwarePipelineSchedule Sched = deriveSchedule(Pn, *F);
  return Case{std::move(Name), std::move(S), std::move(Pn),
              std::move(Sched)};
}

DataflowGraph lowerSource(const std::string &Name, const std::string &Src) {
  DiagnosticEngine Diags;
  std::optional<DataflowGraph> G = compileLoop(Src, Diags);
  EXPECT_TRUE(G.has_value()) << Name;
  return G ? std::move(*G) : DataflowGraph();
}

/// x -> u -> v -> y, with u taking two cycles; node ids 0 and 1 are
/// u and v.
DataflowGraph buildChain() {
  GraphBuilder B;
  NodeId U = B.graph().addNode(OpKind::Identity, "u");
  NodeId V = B.graph().addNode(OpKind::Identity, "v");
  B.graph().setExecTime(U, 2);
  GraphBuilder::Value X = B.input("x");
  B.graph().connect(X.N, X.Port, U, 0);
  B.graph().connect(U, 0, V, 0);
  B.outputValue("y", GraphBuilder::Value{V, 0});
  return B.take();
}

/// The corpus: every bundled Livermore kernel and example loop at
/// capacities 1 and 2, plus random loops drawn from the golden
/// equivalence suite's fuzz seed (some with multi-cycle operations).
std::vector<Case> corpus() {
  std::vector<Case> Out;
  for (uint32_t Capacity : {1u, 2u}) {
    std::string Cap = "@" + std::to_string(Capacity);
    for (const LivermoreKernel &K : livermoreKernels())
      Out.push_back(
          deriveCase(K.Id + Cap, lowerSource(K.Id, K.Source), Capacity));
    for (const auto &E :
         std::filesystem::directory_iterator(SDSP_EXAMPLES_DIR)) {
      if (E.path().extension() != ".loop")
        continue;
      std::ifstream In(E.path());
      std::stringstream Src;
      Src << In.rdbuf();
      std::string Name = E.path().filename().string();
      Out.push_back(
          deriveCase(Name + Cap, lowerSource(Name, Src.str()), Capacity));
    }
  }
  Rng R(0x60'1d'e4'01ull);
  for (int Trial = 0; Trial < 24; ++Trial)
    Out.push_back(deriveCase(
        "fuzz-" + std::to_string(Trial),
        buildRandomLoopGraph(R, 3 + Trial % 9, 25, 1 + Trial % 3),
        1 + Trial % 2));
  return Out;
}

/// Runs both validators at several depths; they must agree exactly.
/// Returns the oracle's verdict at \p Iterations.
OracleResult expectSameVerdict(const Case &C,
                               const SoftwarePipelineSchedule &Sched,
                               const std::string &What,
                               uint64_t Iterations = 48) {
  OracleResult Want;
  for (uint64_t Iters : {uint64_t(0), uint64_t(1), uint64_t(2), Iterations}) {
    Want = referenceValidate(C.S, C.Pn, Sched, Iters);
    std::string Got;
    bool Ok = validateSchedule(C.S, C.Pn, Sched, Iters, &Got);
    EXPECT_EQ(Ok, Want.Ok) << C.Name << " " << What << " @" << Iters;
    EXPECT_EQ(Got, Want.Error) << C.Name << " " << What << " @" << Iters;
  }
  return Want;
}

TEST(ScheduleValidator, DerivedSchedulesMatchOracle) {
  for (const Case &C : corpus()) {
    OracleResult R = expectSameVerdict(C, C.Sched, "derived", 128);
    EXPECT_TRUE(R.Ok) << C.Name << ": " << R.Error;
    ReferenceStartTimes Want(C.Sched);
    for (TransitionId T : C.Pn.Net.transitionIds())
      for (uint64_t M = 0; M < 64; ++M)
        ASSERT_EQ(C.Sched.startTime(T, M), Want(T, M))
            << C.Name << " " << C.Pn.Net.transition(T).Name << " @" << M;
  }
}

/// Rebuilds \p Sched with one prologue time, one kernel slot, or the
/// period changed; nullopt when the change leaves the schedule
/// malformed (build() rejects it).
std::optional<SoftwarePipelineSchedule>
rebuilt(const SoftwarePipelineSchedule &Sched, TimeStep Period,
        std::vector<SoftwarePipelineSchedule::PrologueOp> Prologue,
        std::vector<SoftwarePipelineSchedule::KernelOp> Kernel) {
  Expected<SoftwarePipelineSchedule> S = SoftwarePipelineSchedule::build(
      Sched.numTransitions(), Sched.prologueEnd(), Period,
      Sched.iterationsPerKernel(), std::move(Prologue), std::move(Kernel));
  if (!S)
    return std::nullopt;
  return std::move(*S);
}

TEST(ScheduleValidator, PerturbedSchedulesMatchOracle) {
  // (violation, placement) pairs the perturbations reached.
  std::set<std::pair<Violation, Placement>> Seen;
  size_t Checked = 0;
  for (const Case &C : corpus()) {
    const SoftwarePipelineSchedule &Base = C.Sched;
    auto Check = [&](const std::optional<SoftwarePipelineSchedule> &S,
                     const std::string &What) {
      if (!S)
        return;
      ++Checked;
      OracleResult R = expectSameVerdict(C, *S, What);
      if (!R.Ok)
        Seen.insert({R.Kind, placementOf(R, *S)});
    };
    // Prologue firings moved earlier or later.
    for (size_t I = 0; I < Base.prologue().size(); ++I)
      for (int Delta : {-2, -1, 1, 2}) {
        auto Pro = Base.prologue();
        int64_t Time = static_cast<int64_t>(Pro[I].Time) + Delta;
        if (Time < 0)
          continue;
        Pro[I].Time = static_cast<TimeStep>(Time);
        Check(rebuilt(Base, Base.kernelLength(), Pro, Base.kernel()),
              "prologue op " + std::to_string(I) + " by " +
                  std::to_string(Delta));
      }
    // Kernel slots moved within the period, and to either end of it
    // (which tightens the spacing across a wrap).
    int64_t Last = static_cast<int64_t>(Base.kernelLength()) - 1;
    for (size_t I = 0; I < Base.kernel().size(); ++I) {
      int64_t Slot = Base.kernel()[I].Slot;
      for (int64_t To : {Slot - 2, Slot - 1, Slot + 1, Slot + 2,
                         int64_t(0), Last}) {
        if (To < 0 || To == Slot)
          continue;
        auto Ker = Base.kernel();
        Ker[I].Slot = static_cast<uint32_t>(To);
        Check(rebuilt(Base, Base.kernelLength(), Base.prologue(), Ker),
              "kernel op " + std::to_string(I) + " to slot " +
                  std::to_string(To));
      }
    }
    // A shorter period changes no start time before the first wrap.
    Check(rebuilt(Base, Base.kernelLength() - 1, Base.prologue(),
                  Base.kernel()),
          "period - 1");
  }
  EXPECT_GT(Checked, 1000u);

  // Unit-time operations cannot overlap across a kernel wrap (slots
  // differ by less than p), so that placement needs a multi-cycle
  // operation: u (2 cycles) fires at 0 | 3, 6 | 7, 10 | ... with k = 2,
  // and its iterations 2 and 3 overlap across the first wrap.
  {
    Case C = deriveCase("chain", buildChain(), 2);
    TransitionId U = C.Pn.NodeToTransition[0];
    TransitionId V = C.Pn.NodeToTransition[1];
    ASSERT_EQ(C.Pn.Net.transition(U).Name, "u");
    SoftwarePipelineSchedule Wrap =
        SDSP_EXPECT_OK(SoftwarePipelineSchedule::build(
            2, 3, 4, 2, {{0, U, 0}, {2, V, 0}},
            {{0, U, 1}, {3, U, 2}, {0, V, 1}, {2, V, 2}}));
    OracleResult R = expectSameVerdict(C, Wrap, "wrap overlap");
    ASSERT_FALSE(R.Ok);
    EXPECT_EQ(R.Error, "transition u iterations 2/3 overlap");
    Seen.insert({R.Kind, placementOf(R, Wrap)});
  }

  for (Violation V :
       {Violation::Overlap, Violation::Dependence, Violation::Capacity})
    for (Placement P :
         {Placement::Prologue, Placement::Boundary, Placement::PastWrap})
      EXPECT_TRUE(Seen.count({V, P}))
          << "no perturbation reached violation " << static_cast<int>(V)
          << " at placement " << static_cast<int>(P);
}

TEST(ScheduleValidator, ScheduleOfAnotherNetIsRejected) {
  Case L1 = deriveCase("l1", buildL1(), 1);
  Case Chain = deriveCase("chain", buildChain(), 1);
  ASSERT_NE(L1.Sched.numTransitions(), Chain.Pn.Net.numTransitions());
  std::string Error;
  EXPECT_FALSE(validateSchedule(Chain.S, Chain.Pn, L1.Sched, 8, &Error));
  EXPECT_NE(Error.find("transitions"), std::string::npos) << Error;
}

} // namespace
