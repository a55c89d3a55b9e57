//===- perfbench/cpp/SelfTest.cpp - The benchmark's checks can fail -------===//
//
// Shows that every output check of the benchmark accepts the program's
// real output and rejects a perturbed copy of it.  Run from the
// checkout root; exits 0 when every case behaves, 1 otherwise.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "LoopGen.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>

using namespace perfbench;

namespace {

int Failures = 0;
int Cases = 0;

void expect(bool Ok, const std::string &What) {
  ++Cases;
  if (!Ok) {
    ++Failures;
    std::cerr << "FAIL: " << What << "\n";
  }
}

/// \p S with the first occurrence of \p From replaced by \p To (S
/// unchanged when absent, which the caller's expectation then catches).
std::string replaceFirst(std::string S, const std::string &From,
                         const std::string &To) {
  size_t At = S.find(From);
  if (At != std::string::npos)
    S.replace(At, From.size(), To);
  return S;
}

/// Drops the last line of \p S.
std::string dropLastLine(const std::string &S) {
  size_t End = S.size() && S.back() == '\n' ? S.size() - 1 : S.size();
  size_t At = S.rfind('\n', End - 1);
  return At == std::string::npos ? "" : S.substr(0, At + 1);
}

struct Perturbation {
  const char *Name;
  std::function<void(Output &)> Apply;
};

std::vector<Perturbation> perturbationsFor(Mode M, const Expectation &E) {
  std::string Rate = "rate " + fracStr(makeFrac(E.Alpha.Den, E.Alpha.Num));
  std::vector<Perturbation> P = {
      {"exit code", [](Output &O) { O.Exit = 3; }},
      {"verified rate",
       [Rate](Output &O) { O.Err = replaceFirst(O.Err, Rate, "rate 2/7"); }},
  };
  switch (M) {
  case Mode::Ideal:
    P.push_back({"kernel length",
                 [](Output &O) { O.Out = replaceFirst(O.Out, "(p=", "(p=1"); }});
    P.push_back({"missing slot",
                 [](Output &O) { O.Out = dropLastLine(O.Out); }});
    P.push_back({"extra firing", [](Output &O) {
                   O.Out = replaceFirst(O.Out, "t+0: ", "t+0: zz(i)  ");
                 }});
    break;
  case Mode::Scp2:
  case Mode::Scp4:
    P.push_back({"rate above bounds", [](Output &O) {
                   size_t At = O.Out.find("), rate ");
                   size_t End = O.Out.find(',', At + 8);
                   O.Out = O.Out.substr(0, At + 8) + "2" + O.Out.substr(End);
                 }});
    P.push_back({"two issues in one instant", [](Output &O) {
                   O.Out = replaceFirst(O.Out, "t+0:", "t+0: zz(i)");
                 }});
    P.push_back({"depth", [](Output &O) {
                   O.Out = replaceFirst(O.Out, "l = ", "l = 9");
                 }});
    break;
  case Mode::Program:
    P.push_back({"kernel ratio", [](Output &O) {
                   O.Out = replaceFirst(O.Out, " k=", " k=7");
                 }});
    break;
  case Mode::Storage:
    P.push_back({"body size", [](Output &O) {
                   O.Out = replaceFirst(O.Out, "loop body: ", "loop body: 9");
                 }});
    P.push_back({"minimizer rate", [](Output &O) {
                   O.Err = replaceFirst(O.Err, "locations (rate ",
                                        "locations (rate 3");
                 }});
    P.push_back({"storage grew", [](Output &O) {
                   O.Err = replaceFirst(O.Err, " -> ", " -> 99");
                 }});
    break;
  }
  return P;
}

void testCorpusChecks() {
  for (const Request &R : kernelsStream()) {
    std::string Label;
    for (const std::string &Arg : R.Argv)
      Label += Arg + " ";
    Output O = runLocal(R);
    std::string Real = checkOutput(R.Expect, O.Exit, O.Out, O.Err);
    expect(Real.empty(), "real output passes: " + Label + ": " + Real);
    for (const Perturbation &P : perturbationsFor(R.Expect.M, R.Expect)) {
      Output Bad = O;
      P.Apply(Bad);
      expect(!checkOutput(R.Expect, Bad.Exit, Bad.Out, Bad.Err).empty(),
             std::string("rejects ") + P.Name + ": " + Label);
    }
    // The table itself: a wrong alpha* is caught on the real output
    // and by the replay's comparison with the compiler's alpha*.
    Expectation Wrong = R.Expect;
    Wrong.Alpha = makeFrac(R.Expect.Alpha.Num + 1, R.Expect.Alpha.Den);
    expect(!checkOutput(Wrong, O.Exit, O.Out, O.Err).empty(),
           "rejects a wrong alpha*: " + Label);
    Request WrongReq = R;
    WrongReq.Expect = Wrong;
    PassTimes T;
    expect(replay(R, T).empty(), "replay passes: " + Label);
    expect(!replay(WrongReq, T).empty(), "replay rejects wrong alpha*: " +
                                             Label);
    if (R.Expect.M == Mode::Program && !R.KernelId.empty()) {
      expect(checkProgramOnVm(R, O.Out).empty(), "VM check passes: " + Label);
      expect(!checkProgramOnVm(R, O.Out, 1e-3).empty(),
             "VM check rejects a perturbed result: " + Label);
      expect(!checkProgramOnVm(R, O.Out + " ").empty(),
             "VM check rejects a different program text: " + Label);
    }
    // Store and service outputs are compared byte for byte.
    Output Flipped = O;
    Flipped.Out.back() ^= 1;
    expect(!(Flipped == O), "byte comparison rejects one flipped bit");
  }
}

void testGeneratedLoops() {
  std::filesystem::create_directories(".bench_build/selftest");
  for (uint64_t Seed : {1u, 2u}) {
    std::vector<GeneratedLoop> Loops = generateLargeLoops(Seed);
    // The two smallest programs: one of each family.
    for (size_t I = 0; I < 2; ++I) {
      Request R;
      R.Path = ".bench_build/selftest/g" + std::to_string(I) + ".loop";
      std::ofstream(R.Path) << Loops[I].Text;
      R.Argv = {R.Path, "--emit=schedule"};
      R.Expect = {Mode::Ideal, Loops[I].Ops, Loops[I].Alpha, false};
      std::string Label = Loops[I].Family + " seed " + std::to_string(Seed);
      Output O = runLocal(R);
      expect(checkOutput(R.Expect, O.Exit, O.Out, O.Err).empty(),
             "generated program passes: " + Label);
      PassTimes T;
      expect(replay(R, T).empty(), "generated program replay: " + Label);
      Expectation Wrong = R.Expect;
      Wrong.Alpha = makeFrac(Wrong.Alpha.Num + Wrong.Alpha.Den,
                             Wrong.Alpha.Den);
      expect(!checkOutput(Wrong, O.Exit, O.Out, O.Err).empty(),
             "closed form off by one rejected: " + Label);
      Output Bad = O;
      Bad.Out = replaceFirst(Bad.Out, "t+1: ", "t+1: r1(i)  ");
      expect(!checkOutput(R.Expect, Bad.Exit, Bad.Out, Bad.Err).empty(),
             "extra firing rejected: " + Label);
    }
  }
  std::filesystem::remove_all(".bench_build/selftest");
}

} // namespace

int main() {
  testCorpusChecks();
  testGeneratedLoops();
  std::cout << "perfbench self-test: " << Cases - Failures << "/" << Cases
            << " cases behave\n";
  return Failures == 0 ? 0 : 1;
}
