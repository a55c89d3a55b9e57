//===- tests/GoldenEquivalenceTest.cpp - Fast engine vs reference oracle ---===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// The fast-path simulation engine (incremental enabledness, bit-packed
// markings, event-driven leaping, packed-state tables) must be
// behaviorally invisible: detectFrustumChecked and the retained naive
// detectFrustumReference have to return byte-identical results — same
// frustum boundaries, same repeated state, same per-step trace, same
// firing counts, and the same diagnostics on failure.  This suite pins
// that equivalence on the six Livermore loops of Section 5 (plain
// SDSP-PN and SCP machine variants under FIFO and LIFO policies) and on
// seeded fuzz families covering unit and non-unit execution times,
// chorded marked graphs, multi-token (non-safe) markings, and budgets
// pinched around the repeat instant.
//
// The metamorphic suites at the end check both engines against the
// paper's critical-cycle characterization (Sec. 4): scaling every
// execution time by c scales alpha* and the frustum length by c,
// relabeling the net through PNML changes neither, and adding a token
// on a place off every critical cycle never lowers the rate.
//
//===----------------------------------------------------------------------===//

#include "core/Frustum.h"

#include "TestUtil.h"
#include "core/ScpModel.h"
#include "core/Sdsp.h"
#include "core/SdspPn.h"
#include "livermore/Livermore.h"
#include "loopir/Lowering.h"
#include "petri/CycleRatio.h"
#include "petri/Pnml.h"
#include "gtest/gtest.h"

#include <utility>
#include <numeric>

using namespace sdsp;
using namespace sdsp::testutil;

namespace {

/// Asserts the optimized and reference detectors agree byte for byte on
/// \p Net: identical FrustumInfo on success, identical status code and
/// message on failure.  Policies are per-engine instances (a policy is
/// stateful), expected to be configured identically.
void expectGolden(const PetriNet &Net, FiringPolicy *OptPolicy,
                  FiringPolicy *RefPolicy, FrustumBudget Budget,
                  const std::string &Label) {
  Expected<FrustumInfo> Opt = detectFrustumChecked(Net, OptPolicy, Budget);
  Expected<FrustumInfo> Ref = detectFrustumReference(Net, RefPolicy, Budget);
  ASSERT_EQ(Opt.ok(), Ref.ok()) << Label;
  if (!Opt) {
    EXPECT_EQ(Opt.status().code(), Ref.status().code()) << Label;
    EXPECT_EQ(Opt.status().message(), Ref.status().message()) << Label;
    return;
  }
  EXPECT_EQ(Opt->StartTime, Ref->StartTime) << Label;
  EXPECT_EQ(Opt->RepeatTime, Ref->RepeatTime) << Label;
  EXPECT_TRUE(Opt->State == Ref->State) << Label;
  EXPECT_EQ(Opt->FiringCounts, Ref->FiringCounts) << Label;
  ASSERT_EQ(Opt->Trace.size(), Ref->Trace.size()) << Label;
  for (size_t I = 0; I < Opt->Trace.size(); ++I) {
    const StepRecord &A = Opt->Trace[I];
    const StepRecord &B = Ref->Trace[I];
    EXPECT_EQ(A.Time, B.Time) << Label << " step " << I;
    EXPECT_EQ(A.Completed, B.Completed) << Label << " step " << I;
    EXPECT_EQ(A.Fired, B.Fired) << Label << " step " << I;
  }
}

void expectGolden(const PetriNet &Net, const std::string &Label) {
  expectGolden(Net, nullptr, nullptr, FrustumBudget{}, Label);
}

/// The six kernels of Section 5, compiled to an SDSP-PN.
SdspPn compileLivermore(const std::string &Id) {
  const LivermoreKernel *K = findKernel(Id);
  EXPECT_NE(K, nullptr) << Id;
  DiagnosticEngine Diags;
  auto G = compileLoop(K->Source, Diags);
  EXPECT_TRUE(G.has_value()) << Id;
  return buildSdspPn(Sdsp::standard(std::move(*G)));
}

const char *LivermoreIds[] = {"loop1", "loop7",  "loop12",
                              "loop3", "loop5", "loop9lcd"};

TEST(GoldenEquivalence, LivermoreSdspPn) {
  for (const char *Id : LivermoreIds) {
    SdspPn Pn = compileLivermore(Id);
    expectGolden(Pn.Net, Id);
  }
}

TEST(GoldenEquivalence, LivermoreScpFifo) {
  for (const char *Id : LivermoreIds) {
    SdspPn Pn = compileLivermore(Id);
    ScpPn Scp = buildScpPn(Pn, /*PipelineDepth=*/2);
    auto OptPolicy = Scp.makeFifoPolicy();
    auto RefPolicy = Scp.makeFifoPolicy();
    expectGolden(Scp.Net, OptPolicy.get(), RefPolicy.get(), FrustumBudget{},
                 std::string(Id) + "/scp-fifo");
  }
}

TEST(GoldenEquivalence, LivermoreScpLifo) {
  for (const char *Id : LivermoreIds) {
    SdspPn Pn = compileLivermore(Id);
    ScpPn Scp = buildScpPn(Pn, /*PipelineDepth=*/2);
    auto OptPolicy = Scp.makeLifoPolicy();
    auto RefPolicy = Scp.makeLifoPolicy();
    expectGolden(Scp.Net, OptPolicy.get(), RefPolicy.get(), FrustumBudget{},
                 std::string(Id) + "/scp-lifo");
  }
}

TEST(GoldenEquivalence, FuzzMarkedGraphs) {
  // Mixed execution times (1-3) exercise the non-unit drain, the finish
  // ring, and event-driven leaping; chords add shared structure.
  Rng R(0x60'1d'e4'01ull);
  for (int Case = 0; Case < 120; ++Case) {
    size_t N = static_cast<size_t>(R.range(3, 12));
    size_t Chords = static_cast<size_t>(R.range(0, 4));
    PetriNet Net = buildRandomMarkedGraph(R, N, Chords);
    expectGolden(Net, "fuzz-mg-" + std::to_string(Case));
  }
}

TEST(GoldenEquivalence, FuzzUnitRings) {
  // Single-token unit rings run the bit-marking pure-marked-graph fast
  // path end to end.
  for (int Case = 0; Case < 40; ++Case) {
    PetriNet Net = buildRing(static_cast<size_t>(3 + Case % 9), 1);
    expectGolden(Net, "fuzz-ring1-" + std::to_string(Case));
  }
}

TEST(GoldenEquivalence, FuzzMultiTokenRings) {
  // Two or more tokens on one place break safeness: the engine must
  // abandon bit marking for exact counts and still match the oracle.
  Rng R(0xbeef'cafeull);
  for (int Case = 0; Case < 40; ++Case) {
    size_t N = static_cast<size_t>(R.range(2, 8));
    uint32_t Tokens = static_cast<uint32_t>(R.range(2, 4));
    PetriNet Net = buildRing(N, Tokens);
    expectGolden(Net, "fuzz-ringk-" + std::to_string(Case));
  }
}

TEST(GoldenEquivalence, BudgetDiagnosticsMatch) {
  // Exhausted budgets must produce the same BudgetExceeded message
  // (steps simulated, firings observed) from both detectors.
  Rng R(0x5eedull);
  for (int Case = 0; Case < 6; ++Case) {
    PetriNet Net = buildRandomMarkedGraph(R, 6, 2);
    expectGolden(Net, nullptr, nullptr, FrustumBudget::steps(3),
                 "budget-" + std::to_string(Case));
  }
}

/// The chorded fuzz family: every fifth net is a ring (token count
/// 1-3, so some are multi-token), the rest are random live safe marked
/// graphs with up to four chords (whose tied cycle ratios give several
/// critical cycles).
PetriNet fuzzNet(Rng &R, int Case) {
  if (Case % 5 == 0)
    return buildRing(static_cast<size_t>(3 + Case % 7),
                     static_cast<uint32_t>(1 + Case % 3));
  return buildRandomMarkedGraph(R, static_cast<size_t>(3 + Case % 10),
                                static_cast<size_t>(Case % 5));
}

TEST(GoldenEquivalence, FuzzChordFamily) {
  Rng R(0xa11a'11cull);
  for (int Case = 0; Case < 200; ++Case)
    expectGolden(fuzzNet(R, Case), "chord-fuzz-" + std::to_string(Case));
}

TEST(GoldenEquivalence, BudgetBoundaries) {
  // Budgets pinched around the repeat instant: a budget of B steps
  // samples instants 0..B, so RepeatTime steps is the least that
  // succeeds and one fewer fails; the outcome, including the
  // BudgetExceeded diagnostic, must match at every boundary.  Tiny
  // budgets (1-3) pin the short-window accounting.
  Rng R(0xb0d9'e7ull);
  for (int Case = 0; Case < 24; ++Case) {
    PetriNet Net = fuzzNet(R, Case);
    std::string Label = "budget-edge-" + std::to_string(Case);
    Expected<FrustumInfo> Full = detectFrustumReference(Net);
    ASSERT_TRUE(Full.ok()) << Label;
    TimeStep Rep = Full->RepeatTime;
    EXPECT_TRUE(detectFrustumChecked(Net, nullptr,
                                     FrustumBudget::steps(Rep)).ok())
        << Label;
    ASSERT_GT(Rep, 1u) << Label; // steps(0) would mean the theory bound.
    EXPECT_FALSE(detectFrustumChecked(Net, nullptr,
                                      FrustumBudget::steps(Rep - 1)).ok())
        << Label;
    for (TimeStep B = Rep > 3 ? Rep - 3 : 1; B <= Rep + 2; ++B)
      expectGolden(Net, nullptr, nullptr, FrustumBudget::steps(B),
                   Label + "/steps-" + std::to_string(B));
    for (TimeStep B = 1; B <= 3; ++B)
      expectGolden(Net, nullptr, nullptr, FrustumBudget::steps(B),
                   Label + "/tiny-" + std::to_string(B));
  }
}

//===----------------------------------------------------------------------===//
// Metamorphic relations, run on both engines.
//===----------------------------------------------------------------------===//

/// One net's observable steady state: the critical-cycle ratio alpha*
/// (std::nullopt for an acyclic net) and each engine's frustum.
struct SteadyState {
  std::optional<Rational> CycleTime;
  FrustumInfo Fast;
  FrustumInfo Ref;
};

/// A budget far above the theory bound of every net below, so that
/// scaled execution times never turn a success into BudgetExceeded.
const FrustumBudget Generous = FrustumBudget::steps(1u << 22);

SteadyState steadyState(const PetriNet &Net, const std::string &Label) {
  SteadyState S;
  if (auto Info = criticalCycle(MarkedGraphView(Net)))
    S.CycleTime = Info->CycleTime;
  Expected<FrustumInfo> Fast = detectFrustumChecked(Net, nullptr, Generous);
  Expected<FrustumInfo> Ref = detectFrustumReference(Net, nullptr, Generous);
  EXPECT_TRUE(Fast.ok()) << Label;
  EXPECT_TRUE(Ref.ok()) << Label;
  if (Fast)
    S.Fast = std::move(*Fast);
  if (Ref)
    S.Ref = std::move(*Ref);
  return S;
}

/// The metamorphic corpus: the six Livermore SDSP-PNs plus a slice of
/// the chorded fuzz family.
std::vector<std::pair<std::string, PetriNet>> metamorphicNets() {
  std::vector<std::pair<std::string, PetriNet>> Nets;
  for (const char *Id : LivermoreIds)
    Nets.emplace_back(Id, compileLivermore(Id).Net);
  Rng R(0x3e7a'4011ull);
  for (int Case = 0; Case < 60; ++Case)
    Nets.emplace_back("fuzz-" + std::to_string(Case), fuzzNet(R, Case));
  return Nets;
}

TEST(Metamorphic, ScalingExecTimesScalesCycleTimeAndPeriod) {
  for (auto &[Label, Net] : metamorphicNets()) {
    SteadyState Base = steadyState(Net, Label);
    for (TimeUnits C : {2u, 3u}) {
      std::string L = Label + "/x" + std::to_string(C);
      PetriNet Scaled = Net;
      for (TransitionId T : Net.transitionIds())
        Scaled.setExecTime(T, Net.transition(T).ExecTime * C);
      SteadyState S = steadyState(Scaled, L);
      ASSERT_EQ(Base.CycleTime.has_value(), S.CycleTime.has_value()) << L;
      if (Base.CycleTime) {
        EXPECT_EQ(*S.CycleTime, *Base.CycleTime * Rational(C)) << L;
      }
      EXPECT_EQ(S.Fast.length(), Base.Fast.length() * C) << L;
      EXPECT_EQ(S.Ref.length(), Base.Ref.length() * C) << L;
      EXPECT_EQ(S.Fast.FiringCounts, Base.Fast.FiringCounts) << L;
      EXPECT_EQ(S.Ref.FiringCounts, Base.Ref.FiringCounts) << L;
    }
  }
}

/// \p Net with its transitions and places renumbered by random
/// permutations; \p TPerm receives old transition index -> new index.
PetriNet permuteNet(const PetriNet &Net, Rng &R,
                    std::vector<uint32_t> &TPerm) {
  // Shuffled(N)[New] is the old index that gets new index New.
  auto Shuffled = [&](size_t N) {
    std::vector<uint32_t> Order(N);
    std::iota(Order.begin(), Order.end(), 0u);
    for (size_t I = N; I > 1; --I)
      std::swap(Order[I - 1], Order[static_cast<size_t>(
                                  R.range(0, static_cast<int64_t>(I) - 1))]);
    return Order;
  };
  std::vector<uint32_t> TOrder = Shuffled(Net.numTransitions());
  std::vector<uint32_t> POrder = Shuffled(Net.numPlaces());
  TPerm.assign(TOrder.size(), 0);
  PetriNet Out;
  for (uint32_t New = 0; New < TOrder.size(); ++New) {
    TPerm[TOrder[New]] = New;
    const PetriNet::Transition &T = Net.transition(TransitionId(TOrder[New]));
    Out.addTransition(T.Name, T.ExecTime);
  }
  for (uint32_t Old : POrder) {
    const PetriNet::Place &P = Net.place(PlaceId(Old));
    PlaceId NewP = Out.addPlace(P.Name, P.InitialTokens);
    for (TransitionId T : P.Producers)
      Out.addArc(TransitionId(TPerm[T.index()]), NewP);
    for (TransitionId T : P.Consumers)
      Out.addArc(NewP, TransitionId(TPerm[T.index()]));
  }
  return Out;
}

/// \p Net exported to canonical PNML and read back.
PetriNet viaPnml(const PetriNet &Net, const std::string &Label) {
  Expected<PnmlNet> Parsed = parsePnml(pnmlString(Net, "net"));
  EXPECT_TRUE(Parsed.ok()) << Label;
  return Parsed ? std::move(Parsed->Net) : PetriNet();
}

TEST(Metamorphic, PnmlRelabelingPreservesRateAndPeriod) {
  Rng R(0x9e2a'b1e5ull);
  for (auto &[Label, Net] : metamorphicNets()) {
    std::vector<uint32_t> TPerm;
    PetriNet Relabeled = permuteNet(Net, R, TPerm);
    SteadyState Base = steadyState(viaPnml(Net, Label), Label);
    SteadyState S = steadyState(viaPnml(Relabeled, Label + "/perm"),
                                Label + "/perm");
    ASSERT_EQ(Base.CycleTime.has_value(), S.CycleTime.has_value()) << Label;
    if (Base.CycleTime) {
      EXPECT_EQ(*S.CycleTime, *Base.CycleTime) << Label;
    }
    for (auto [B, P] : {std::pair{&Base.Fast, &S.Fast},
                        std::pair{&Base.Ref, &S.Ref}}) {
      EXPECT_EQ(P->length(), B->length()) << Label;
      EXPECT_EQ(P->StartTime, B->StartTime) << Label;
      // Relabeling permutes the firing counts and nothing else: the
      // frustum is the same up to isomorphism.
      ASSERT_EQ(P->FiringCounts.size(), B->FiringCounts.size()) << Label;
      for (size_t T = 0; T < TPerm.size(); ++T)
        EXPECT_EQ(P->FiringCounts[TPerm[T]], B->FiringCounts[T])
            << Label << " t" << T;
    }
  }
}

TEST(Metamorphic, TokenOnNonCriticalPlaceNeverLowersRate) {
  size_t Probes = 0;
  for (auto &[Label, Net] : metamorphicNets()) {
    std::optional<CriticalCycleInfo> Info =
        criticalCycle(MarkedGraphView(Net));
    if (!Info)
      continue;
    std::vector<bool> Critical(Net.numTransitions(), false);
    for (TransitionId T : Info->CriticalTransitions)
      Critical[T.index()] = true;
    // A place on a critical cycle has both endpoints critical, so a
    // place with either endpoint off that set is certainly non-critical.
    std::vector<PlaceId> Candidates;
    for (PlaceId P : Net.placeIds()) {
      const PetriNet::Place &Pl = Net.place(P);
      if (!Critical[Pl.Producers.front().index()] ||
          !Critical[Pl.Consumers.front().index()])
        Candidates.push_back(P);
    }
    if (Candidates.empty())
      continue;
    SteadyState Base = steadyState(Net, Label);
    for (PlaceId P : {Candidates.front(), Candidates[Candidates.size() / 2],
                      Candidates.back()}) {
      std::string L = Label + "/+p" + std::to_string(P.index());
      PetriNet More = Net;
      More.setInitialTokens(P, Net.place(P).InitialTokens + 1);
      SteadyState S = steadyState(More, L);
      ASSERT_TRUE(S.CycleTime.has_value()) << L;
      EXPECT_LE(*S.CycleTime, *Base.CycleTime) << L;
      TransitionId T0(0u);
      EXPECT_GE(S.Fast.computationRate(T0), Base.Fast.computationRate(T0))
          << L;
      EXPECT_GE(S.Ref.computationRate(T0), Base.Ref.computationRate(T0))
          << L;
      ++Probes;
    }
  }
  // Anti-vacuity: the corpus must actually offer non-critical places.
  EXPECT_GE(Probes, 60u);
}

} // namespace
