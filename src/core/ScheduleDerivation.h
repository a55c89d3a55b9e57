//===- core/ScheduleDerivation.h - Frustum -> schedule ----------*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a detected cyclic frustum into the static scheduling pattern of
/// Figure 1(g): firings before the initial instantaneous state form the
/// prologue; firings inside the frustum form the kernel, with iteration
/// numbers recovered from cumulative occurrence counts.  A second
/// contribution of Theorem 4.1.1 is that the result is *time-optimal*
/// for the SDSP-PN (rate = 1/alpha*); the validator re-checks, from
/// first principles, that the closed-form schedule respects every data
/// dependence and every buffer capacity.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_CORE_SCHEDULEDERIVATION_H
#define SDSP_CORE_SCHEDULEDERIVATION_H

#include "core/Frustum.h"
#include "core/Schedule.h"
#include "core/SdspPn.h"

#include <string>

namespace sdsp {

/// Derives the software-pipeline schedule encoded by \p Frustum over
/// \p Pn, validating instead of asserting: a transition absent from
/// the frustum or non-uniform firing counts (impossible for a live
/// marked graph by Thm A.5.3, so indicative of a net outside the
/// model) are returned as InvalidNet.
Expected<SoftwarePipelineSchedule>
deriveScheduleChecked(const SdspPn &Pn, const FrustumInfo &Frustum);

/// Legacy convenience: deriveScheduleChecked that aborts (in every
/// build type) instead of returning the error.  Every transition must
/// fire at least once in the frustum.
SoftwarePipelineSchedule deriveSchedule(const SdspPn &Pn,
                                        const FrustumInfo &Frustum);

/// Independently validates \p Sched against the SDSP semantics over the
/// first \p CheckIterations iterations:
///   - non-reentrancy: consecutive firings of one transition are at
///     least its execution time apart;
///   - dependence: iteration m of a consumer starts no earlier than
///     iteration m - d of its producer finishes, for every interior
///     data arc with distance d;
///   - capacity: a producer's iteration m waits for the ack of
///     iteration m - slots of its chain's final consumer.
/// The families run in that order, each constraint over m = its lag ..
/// \p CheckIterations - 1 in increasing order, walking start times with
/// SoftwarePipelineSchedule::StartCursor.  A schedule over another
/// transition count than \p Pn's fails outright.
/// On failure returns false and describes the first violation in
/// \p Error.
bool validateSchedule(const Sdsp &S, const SdspPn &Pn,
                      const SoftwarePipelineSchedule &Sched,
                      uint64_t CheckIterations, std::string *Error = nullptr);

} // namespace sdsp

#endif // SDSP_CORE_SCHEDULEDERIVATION_H
