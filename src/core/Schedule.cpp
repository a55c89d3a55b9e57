//===- core/Schedule.cpp - Software-pipelined loop schedules ---------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/Schedule.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <ostream>
#include <string>

using namespace sdsp;

SoftwarePipelineSchedule::SoftwarePipelineSchedule(size_t NumTransitions,
                                                   TimeStep Start,
                                                   TimeStep Period,
                                                   uint32_t IterationsPerKernel)
    : NumTransitions(NumTransitions), Start(Start), Period(Period),
      K(IterationsPerKernel) {}

Expected<SoftwarePipelineSchedule> SoftwarePipelineSchedule::build(
    size_t NumTransitions, TimeStep Start, TimeStep Period,
    uint32_t IterationsPerKernel, std::vector<PrologueOp> Prologue,
    std::vector<KernelOp> Kernel) {
  auto Fail = [](const std::string &Msg) {
    return Status::error(ErrorCode::InvalidInput, "schedule", Msg);
  };
  const uint32_t K = IterationsPerKernel;
  if (Period < 1)
    return Fail("kernel must have positive length");
  if (K < 1)
    return Fail("kernel must execute at least one iteration");
  // Every transition owns exactly k kernel ops, so the kernel size bounds
  // the transition count before anything is allocated for it.
  if (Kernel.size() % K != 0 || Kernel.size() / K != NumTransitions)
    return Fail("kernel holds " + std::to_string(Kernel.size()) +
                " ops, expected " + std::to_string(NumTransitions) + " x " +
                std::to_string(K));

  SoftwarePipelineSchedule S(NumTransitions, Start, Period, K);
  S.ProOffsets.assign(NumTransitions + 1, 0);
  for (const PrologueOp &Op : Prologue) {
    if (!Op.T.isValid() || Op.T.index() >= NumTransitions)
      return Fail("prologue op names an unknown transition");
    if (Op.Time >= Start)
      return Fail("prologue op at or past the kernel start");
    // ProOffsets[t + 1] counts t's prologue ops until the prefix sum.
    if (Op.Iteration != S.ProOffsets[Op.T.index() + 1]++)
      return Fail("prologue ops must arrive in iteration order");
  }
  for (size_t T = 0; T < NumTransitions; ++T)
    S.ProOffsets[T + 1] += S.ProOffsets[T];
  S.ProTimes.resize(Prologue.size());
  for (const PrologueOp &Op : Prologue)
    S.ProTimes[S.ProOffsets[Op.T.index()] + Op.Iteration] = Op.Time;

  std::vector<uint32_t> Filled(NumTransitions, 0);
  S.Slots.resize(Kernel.size());
  for (const KernelOp &Op : Kernel) {
    if (!Op.T.isValid() || Op.T.index() >= NumTransitions)
      return Fail("kernel op names an unknown transition");
    size_t T = Op.T.index();
    if (Op.Slot >= Period)
      return Fail("kernel slot out of range");
    if (Filled[T] == K)
      return Fail("transition has more than k kernel ops");
    if (Op.FirstIteration !=
        S.ProOffsets[T + 1] - S.ProOffsets[T] + Filled[T])
      return Fail("kernel ops must arrive in iteration order");
    S.Slots[T * K + Filled[T]++] = Op.Slot;
  }
  // The size check above and the per-transition cap leave every
  // transition with exactly k kernel ops.
  S.Prologue = std::move(Prologue);
  S.Kernel = std::move(Kernel);
  return S;
}

TimeStep SoftwarePipelineSchedule::startTime(TransitionId T,
                                             uint64_t Iteration) const {
  return StartCursor(*this, T, Iteration).time();
}

void SoftwarePipelineSchedule::printTimeline(std::ostream &OS,
                                             const PetriNet &Net,
                                             TimeStep Cycles) const {
  assert(Net.numTransitions() == NumTransitions && "dimension mismatch");
  size_t NameWidth = 0;
  for (TransitionId T : Net.transitionIds())
    NameWidth = std::max(NameWidth, Net.transition(T).Name.size());

  // Ruler marking the kernel start and each period boundary.
  OS << std::string(NameWidth + 2, ' ');
  for (TimeStep T = 0; T < Cycles; ++T) {
    bool Boundary = T >= Start && (T - Start) % Period == 0;
    OS << (Boundary ? '|' : (T % 10 == 0 ? '+' : '-'));
  }
  OS << "\n";

  std::string Row;
  for (TransitionId T : Net.transitionIds()) {
    const PetriNet::Transition &Tr = Net.transition(T);
    Row.assign(static_cast<size_t>(Cycles), '.');
    StartCursor C(*this, T, 0);
    for (uint64_t M = 0; C.time() < Cycles; ++M, C.next()) {
      TimeStep At = C.time();
      std::fill(Row.begin() + static_cast<std::ptrdiff_t>(At),
                Row.begin() + static_cast<std::ptrdiff_t>(
                                  std::min<TimeStep>(At + Tr.ExecTime, Cycles)),
                static_cast<char>('0' + static_cast<char>(M % 10)));
    }
    OS << Tr.Name << std::string(NameWidth - Tr.Name.size() + 2, ' ') << Row
       << "\n";
  }
}

void SoftwarePipelineSchedule::print(std::ostream &OS,
                                     const PetriNet &Net) const {
  // Iteration labels are relative to the least first-iteration in the
  // kernel, rendered i, i+1, ...
  uint64_t Base = ~0ull;
  for (const KernelOp &Op : Kernel)
    Base = std::min(Base, Op.FirstIteration);

  // Counting sort of the kernel by slot, stable in kernel order.
  std::vector<size_t> SlotBegin(static_cast<size_t>(Period) + 1, 0);
  for (const KernelOp &Op : Kernel)
    ++SlotBegin[static_cast<size_t>(Op.Slot) + 1];
  for (size_t I = 1; I < SlotBegin.size(); ++I)
    SlotBegin[I] += SlotBegin[I - 1];
  std::vector<const KernelOp *> BySlot(Kernel.size());
  {
    std::vector<size_t> Next(SlotBegin.begin(), SlotBegin.end() - 1);
    for (const KernelOp &Op : Kernel)
      BySlot[Next[Op.Slot]++] = &Op;
  }

  OS << "kernel (p=" << Period << ", k=" << K << ", rate=" << rate().str()
     << " iters/cycle):\n";
  // The table can hold tens of thousands of ops: build it as one string
  // rather than through per-field stream insertions.
  std::string Buf;
  auto Num = [&Buf](uint64_t V) {
    char Digits[20];
    Buf.append(Digits, std::to_chars(Digits, Digits + 20, V).ptr);
  };
  for (uint32_t Slot = 0; Slot < Period; ++Slot) {
    Buf += "  t+";
    Num(Slot);
    Buf += ": ";
    for (size_t I = SlotBegin[Slot]; I < SlotBegin[Slot + 1]; ++I) {
      const KernelOp &Op = *BySlot[I];
      if (I != SlotBegin[Slot])
        Buf += "  ";
      Buf += Net.transition(Op.T).Name;
      Buf += "(i";
      if (uint64_t Delta = Op.FirstIteration - Base) {
        Buf += '+';
        Num(Delta);
      }
      Buf += ')';
    }
    Buf += '\n';
  }
  OS << Buf;
}
