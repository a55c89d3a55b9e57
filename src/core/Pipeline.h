//===- core/Pipeline.h - Guarded end-to-end compilation ---------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The options, result and checks of the paper's pipeline:
///
///   source --frontend--> dataflow graph --[opt, unroll]-->
///   SDSP --[storage minimization]--> SDSP-PN --rate analysis-->
///   [SCP model] --earliest firing--> cyclic frustum --> schedule
///
/// The stages run as registered passes of a CompilationSession
/// (core/Session.h) over immutable, content-hashed artifacts;
/// CompilationSession::compile() is the one-call driver.  Sweeps that
/// revisit upstream stages (benches, ablations, tools) hold one session
/// and let its artifact cache reuse shared prefixes — see
/// docs/ARCHITECTURE.md.
///
/// Every stage validates its inputs and returns a stage-tagged Status
/// instead of asserting, so a Release-built driver can neither crash
/// nor silently mis-compile on malformed input; the frustum search
/// runs under an explicit budget (Theorems 4.1.1-4.2.2 bound how long
/// it may legitimately take).  verifyCompiledLoop() re-checks the
/// result against independent oracles: marked-graph liveness/safeness/
/// persistence and consistency of the net, and the frustum-derived
/// computation rate against the analytic critical-cycle rate of
/// petri/CycleRatio.h (the paper's alpha* theorem, used the way Millo &
/// de Simone use periodic schedulability as a check).
///
/// The sdspc exit-code contract is derived from the error codes:
///   0  success
///   1  input diagnostics (InvalidInput / InvalidGraph / InvalidNet)
///   2  resource or budget exhaustion (BudgetExceeded / ResourceConflict)
///   3  internal invariant failure (a bug in the compiler)
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_PIPELINE_H
#define SDSP_CORE_PIPELINE_H

#include "core/Frustum.h"
#include "core/RateAnalysis.h"
#include "core/Schedule.h"
#include "core/ScpModel.h"
#include "core/Sdsp.h"
#include "core/SdspPn.h"
#include "dataflow/Transforms.h"
#include "loopir/Diagnostics.h"
#include "support/Status.h"

#include <memory>
#include <optional>
#include <string>

namespace sdsp {

/// Largest accepted per-arc buffer capacity.
inline constexpr uint32_t MaxBufferCapacity = 1u << 16;

/// How far to run the pipeline.  Later stages require everything
/// before them; stopping early leaves the later CompiledLoop fields
/// unset.
enum class PipelineStage {
  /// Source to (optimized, unrolled) dataflow graph.
  Frontend,
  /// SDSP construction and optional Section 6 storage minimization.
  Storage,
  /// SDSP-PN translation plus analytic rate report.
  Petri,
  /// Machine model (ideal or SCP) and the earliest-firing frustum.
  Frustum,
  /// Schedule derivation + independent validation (ideal machine only;
  /// the SCP model reports its frustum pattern instead).
  Schedule,
};

/// Which frustum detector to run.  Fast is the incremental engine of
/// petri/EarliestFiring.h; Reference is the retained naive oracle
/// (petri/ReferenceEngine.h).  Both produce identical FrustumInfo (the
/// golden-equivalence suite pins this), but they are distinct engines
/// with distinct costs, so the session cache fingerprints the choice;
/// the explicit values keep those fingerprints stable.
enum class FrustumEngine {
  Fast = 0,
  Reference = 1,
};

/// Everything the pipeline can be asked to do.
struct PipelineOptions {
  bool Optimize = false;
  uint32_t Capacity = 1;
  uint32_t Unroll = 1;
  /// 0 = ideal machine (no SCP model).
  uint32_t ScpDepth = 0;
  uint32_t Pipelines = 1;
  bool OptimizeStorage = false;
  /// Frustum search budget in time steps; 0 = the theory bound
  /// (FrustumBudget::resolve).
  TimeStep FrustumBudgetSteps = 0;
  /// Which frustum detector to run (both budget and engine are part of
  /// the session's frustum cache fingerprint).
  FrustumEngine Engine = FrustumEngine::Fast;
  /// Which max-cycle-ratio algorithm backs the rate pass (fingerprinted
  /// in the session's rate cache key; see RateAnalysis.h).
  RateEngine Rate = RateEngine::Auto;
  /// Run verifyCompiledLoop() before returning success.
  bool Verify = false;
  /// Iterations the schedule validator replays.
  uint64_t ValidateIterations = 64;
  PipelineStage StopAfter = PipelineStage::Schedule;
};

/// Before/after storage accounting when OptimizeStorage ran.
struct StorageOptSummary {
  uint64_t Before = 0;
  uint64_t After = 0;
  /// The preserved optimal rate (verified by the minimizer).
  Rational OptimalRate;
};

template <typename T> class ArtifactRef;

/// Shared ownership of an immutable pipeline artifact.  Assigning a
/// session artifact (a shared_ptr or an ArtifactRef) shares it without
/// a copy; assigning a plain value copies it once into a new shared
/// object.  Either way the artifact lives as long as any holder, so a
/// CompiledLoop outlives the session and store that produced it.
template <typename T> class Shared {
public:
  Shared() = default;
  Shared(std::shared_ptr<const T> Value) : Value(std::move(Value)) {}
  Shared(const ArtifactRef<T> &Ref) : Value(Ref.ptr()) {}

  Shared &operator=(const T &V) {
    Value = std::make_shared<const T>(V);
    return *this;
  }
  Shared &operator=(T &&V) {
    Value = std::make_shared<const T>(std::move(V));
    return *this;
  }

  const T &operator*() const { return *Value; }
  const T *operator->() const { return Value.get(); }
  const T *get() const { return Value.get(); }
  explicit operator bool() const { return Value != nullptr; }

private:
  std::shared_ptr<const T> Value;
};

/// The pipeline's product.  Fields are populated up to
/// PipelineOptions::StopAfter; machineNet() picks the net the frustum
/// was searched on.  The artifacts are the session's own immutable
/// objects, shared rather than copied.
struct CompiledLoop {
  Shared<DataflowGraph> Graph;
  TransformStats OptStats{};
  std::optional<StorageOptSummary> Storage;
  Shared<Sdsp> S;
  Shared<SdspPn> Pn;
  Shared<RateReport> Rate;
  Shared<ScpPn> Scp;
  /// The FIFO issue policy of the shared SCP model, for replays.
  std::unique_ptr<FifoPolicy> Policy;
  Shared<FrustumInfo> Frustum;
  Shared<SoftwarePipelineSchedule> Schedule;
  /// Whether the frustum appeared within the paper's empirical ~2n
  /// fast path ("BD"); the budget defaults to the far larger theorem
  /// bound.
  bool FrustumWithinEmpiricalBound = false;
  /// Set when verifyCompiledLoop() ran and passed.
  bool Verified = false;

  const PetriNet &machineNet() const { return Scp ? Scp->Net : Pn->Net; }
};

/// Cross-stage self-checks over whatever \p CL contains:
///   - the SDSP-PN is a live marked graph, structurally persistent and
///     consistent (uniform T-invariant); safe when every buffer has one
///     slot;
///   - every transition fires equally often in the frustum, and the
///     frustum-derived rate equals the analytic critical-cycle rate
///     (ideal machine) or respects it plus Thm 5.2.2's pipelines/n
///     issue bound (SCP machine);
///   - the derived schedule replays without dependence, capacity, or
///     reentrancy violations.
/// Failures are InternalInvariant: the pipeline contradicted its own
/// theory.
Status verifyCompiledLoop(const CompiledLoop &CL,
                          const PipelineOptions &Opts);

/// The documented sdspc exit code for \p S (see file comment).
int exitCodeFor(const Status &S);

} // namespace sdsp

#endif // SDSP_CORE_PIPELINE_H
