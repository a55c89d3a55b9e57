//===- perfbench/cpp/Checks.h - Output checks apart from the compiler -*- C++ -*-===//
//
// Every request's output is checked against facts the benchmark knows
// without asking the compiler: a hand-written table of alpha* and
// operation counts for the paper's corpus (each row citing the property
// it follows from), the closed-form alpha* of the generated programs,
// and the Thm 5.2.2 issue bound of the SCP machine.  The checks parse
// the text a user sees: stdout and stderr of one sdspc invocation.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "LoopGen.h"

#include <string>
#include <vector>

namespace perfbench {

/// One corpus entry: a bundled kernel (-k Id) or an examples/*.loop file.
struct CorpusEntry {
  const char *Id;
  /// Path relative to the checkout root, or null for a bundled kernel.
  const char *Path;
  /// Operations (SDSP-PN transitions), counted from the source.
  uint32_t Ops;
  /// Optimal cycle time alpha*.
  Frac Alpha;
  /// The property alpha* follows from.
  const char *Why;
};

const std::vector<CorpusEntry> &corpus();

/// The option sets every corpus entry is crossed with.
enum class Mode { Ideal, Scp2, Scp4, Program, Storage };

struct ModeSpec {
  Mode M;
  /// Extra sdspc arguments (all carry --verify).
  std::vector<std::string> Args;
  /// What the check asserts, and from which property.
  const char *Why;
};

const std::vector<ModeSpec> &modes();

/// What one request's output must satisfy.
struct Expectation {
  Mode M = Mode::Ideal;
  uint32_t Ops = 0;
  Frac Alpha;
  /// The request ran with --verify, so stderr carries "verify: ok".
  bool Verified = true;
};

/// Checks one invocation's exit code, stdout and stderr.  Returns an
/// empty string when the output is correct, else what is wrong.
std::string checkOutput(const Expectation &E, int Exit,
                        const std::string &Out, const std::string &Err);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
