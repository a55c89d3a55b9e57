//===- perfbench/cpp/LoopGen.h - Seeded large loop programs ----*- C++ -*-===//
//
// The large_loops workload's inputs: loop-language programs of about
// 2k-16k operations, generated from a seed, each stated with its
// optimal cycle time alpha* in closed form.
//
// Every program is one recurrence of L unit-time operations whose
// loop-carried reference s[i-d] carries d initial tokens, fed by a
// balanced reduction tree over input streams.  Input streams are
// boundary nodes, so the SDSP-PN holds no reconvergent paths: its only
// cycles are the recurrence (L transitions, d tokens) and the
// two-transition producer/acknowledgement cycles of capacity-1 arcs
// (one token).  The maximum cycle ratio is therefore
//
//     alpha* = max(2, L / d)
//
// and the frustum of the ideal machine fires every transition k times
// in a kernel of p instants with k / p = 1 / alpha*.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOOPGEN_H
#define PERFBENCH_LOOPGEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A fraction in lowest terms (Den > 0).
struct Frac {
  int64_t Num = 0;
  int64_t Den = 1;
};

Frac makeFrac(int64_t Num, int64_t Den);
bool operator==(const Frac &A, const Frac &B);
/// A < B.
bool fracLess(const Frac &A, const Frac &B);
std::string fracStr(const Frac &F);
/// Parses "a" or "a/b"; returns false on anything else.
bool parseFrac(const std::string &S, Frac &Out);

struct GeneratedLoop {
  /// "tree" (short recurrence, rate set by the acknowledgement cycles
  /// or a few-operation recurrence) or "ring" (a recurrence of about
  /// 2000 operations at distance 7, coprime to its length, so the
  /// frustum window is about 2000 instants long).
  std::string Family;
  std::string Text;
  /// Operations, i.e. SDSP-PN transitions.
  uint32_t Ops = 0;
  /// Recurrence length L and its token count d.
  uint32_t RecurrenceOps = 0;
  uint32_t Tokens = 0;
  /// Closed-form alpha* = max(2, L / d).
  Frac Alpha;
};

/// The program sizes of one round, in order.  The sizes are fixed and
/// the seed varies only the recurrences, distances and operators, so
/// the cost of a round does not depend on the seed.
const std::vector<uint32_t> &largeLoopSizes();

/// Generates one program per entry of largeLoopSizes(): even entries
/// are "tree", odd entries "ring".
std::vector<GeneratedLoop> generateLargeLoops(uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_LOOPGEN_H
