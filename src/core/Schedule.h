//===- core/Schedule.h - Software-pipelined loop schedules ------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling pattern of Figure 1(g): a software-pipelined loop
/// schedule with a prologue (the start-up transient before the frustum)
/// and a kernel of p time slots executing k loop iterations, repeated
/// forever.  The achieved computation rate is k/p iterations per cycle.
///
/// startTime() extends the pattern to any iteration number, giving a
/// closed-form infinite schedule: iteration m of operation t runs at
///   prologue time                       (m among t's prologue firings)
///   Start + q*p + slot(t, r)            (m = prologue count + q*k + r).
/// A StartCursor walks consecutive iterations of one operation with the
/// same closed form but no division: r and q advance incrementally.
///
/// Besides the op lists (which define the content hash, the codec bytes
/// and the printed kernel), a schedule stores a flat per-transition
/// index: the prologue times of all transitions in one array with CSR
/// offsets, and the kernel slots as one N x k array.  Both are built
/// once, by build(), from the complete op lists; a schedule is
/// immutable afterwards and safe to share across threads.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_SCHEDULE_H
#define SDSP_CORE_SCHEDULE_H

#include "petri/EarliestFiring.h"
#include "support/Rational.h"

#include <cassert>
#include <iosfwd>
#include <vector>

namespace sdsp {

/// A periodic (software-pipelined) schedule over the transitions of an
/// SDSP-PN.
class SoftwarePipelineSchedule {
public:
  /// One firing in the start-up transient.
  struct PrologueOp {
    TimeStep Time;
    TransitionId T;
    /// Absolute loop iteration executed by this firing.
    uint64_t Iteration;
  };

  /// One firing inside the kernel.
  struct KernelOp {
    uint32_t Slot;
    TransitionId T;
    /// Absolute iteration executed in the first kernel period.
    uint64_t FirstIteration;
  };

  /// The one construction path.  Validates that every op names one of
  /// \p NumTransitions transitions, that prologue ops lie before
  /// \p Start and kernel slots inside [0, \p Period), that each
  /// transition's ops arrive in iteration order (prologue first), and
  /// that every transition has exactly \p IterationsPerKernel kernel
  /// ops.  Violations are InvalidInput.
  static Expected<SoftwarePipelineSchedule>
  build(size_t NumTransitions, TimeStep Start, TimeStep Period,
        uint32_t IterationsPerKernel, std::vector<PrologueOp> Prologue,
        std::vector<KernelOp> Kernel);

  TimeStep prologueEnd() const { return Start; }
  TimeStep kernelLength() const { return Period; }
  uint32_t iterationsPerKernel() const { return K; }
  size_t numTransitions() const { return NumTransitions; }

  /// Iterations per cycle in steady state: k / p.
  Rational rate() const {
    return Rational(K, static_cast<int64_t>(Period));
  }

  /// Steady-state initiation interval per iteration, p / k (the cycle
  /// time alpha of the paper).
  Rational initiationInterval() const { return rate().reciprocal(); }

  const std::vector<PrologueOp> &prologue() const { return Prologue; }
  const std::vector<KernelOp> &kernel() const { return Kernel; }

  /// Start time of iteration \p Iteration of transition \p T under the
  /// infinite unrolling of this schedule.
  TimeStep startTime(TransitionId T, uint64_t Iteration) const;

  /// Start times of one transition's consecutive iterations, from a
  /// given iteration on.  Only the constructor divides; next() steps
  /// the (q, r) kernel position incrementally.
  class StartCursor {
  public:
    StartCursor(const SoftwarePipelineSchedule &S, TransitionId T,
                uint64_t Iteration)
        : Pro(S.ProTimes.data() + S.ProOffsets[T.index()]),
          NumPro(S.ProOffsets[T.index() + 1] - S.ProOffsets[T.index()]),
          Slots(S.Slots.data() + T.index() * S.K), K(S.K), Start(S.Start),
          Period(S.Period), M(Iteration) {
      assert(T.index() < S.NumTransitions && "transition out of range");
      if (M < NumPro) {
        At = Pro[M];
        return;
      }
      uint64_t J = M - NumPro;
      R = static_cast<uint32_t>(J % K);
      Base = Start + J / K * Period;
      At = Base + Slots[R];
    }

    /// Start time of the current iteration.
    TimeStep time() const { return At; }

    /// Moves to the next iteration.
    void next() {
      if (++M < NumPro) {
        At = Pro[M];
        return;
      }
      if (M == NumPro) {
        R = 0;
        Base = Start;
      } else if (++R == K) {
        R = 0;
        Base += Period;
      }
      At = Base + Slots[R];
    }

  private:
    const TimeStep *Pro;
    uint64_t NumPro;
    const uint32_t *Slots;
    uint32_t K;
    TimeStep Start;
    TimeStep Period;
    uint64_t M;
    /// Kernel position once M >= NumPro: slot index r and
    /// Start + q * Period.
    uint32_t R = 0;
    TimeStep Base = 0;
    TimeStep At = 0;
  };

  /// Renders the kernel as a slot table ("A(i+1) D(i) | ..."), the
  /// paper's Figure 1(g) form, naming transitions after \p Net.
  void print(std::ostream &OS, const PetriNet &Net) const;

  /// Renders an ASCII Gantt view of the first \p Cycles cycles: one row
  /// per transition of \p Net, each firing drawn as its iteration
  /// number (mod 10) repeated for its execution time.  Visualizes the
  /// prologue filling and the kernel's iteration overlap.
  void printTimeline(std::ostream &OS, const PetriNet &Net,
                     TimeStep Cycles) const;

private:
  SoftwarePipelineSchedule(size_t NumTransitions, TimeStep Start,
                           TimeStep Period, uint32_t IterationsPerKernel);

  size_t NumTransitions;
  TimeStep Start;
  TimeStep Period;
  uint32_t K;
  std::vector<PrologueOp> Prologue;
  std::vector<KernelOp> Kernel;
  /// Transition t's prologue firing times, in iteration order, are
  /// ProTimes[ProOffsets[t] .. ProOffsets[t + 1]).
  std::vector<uint64_t> ProOffsets;
  std::vector<TimeStep> ProTimes;
  /// Transition t's kernel slots, in occurrence order, are
  /// Slots[t * K .. (t + 1) * K).
  std::vector<uint32_t> Slots;
};

} // namespace sdsp

#endif // SDSP_CORE_SCHEDULE_H
