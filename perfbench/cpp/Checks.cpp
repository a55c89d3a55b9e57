//===- perfbench/cpp/Checks.cpp - Output checks apart from the compiler ---===//

#include "Checks.h"

#include <map>
#include <sstream>

using namespace perfbench;

// alpha* is the maximum over the SDSP-PN's cycles of (transitions on the
// cycle) / (tokens on the cycle), all operations taking one instant
// (Sec. 4, Thm 4.1.1).  With one-slot buffers every data arc and its
// acknowledgement arc close a two-transition cycle holding one token
// (Sec. 3.2), so any loop with an arc between operations has
// alpha* >= 2; a recurrence of L operations at distance d adds L / d.
const std::vector<CorpusEntry> &perfbench::corpus() {
  static const std::vector<CorpusEntry> C = {
      {"l1", nullptr, 5, {2, 1},
       "Fig. 1: DOALL, A..E; only arc/ack cycles (2 transitions, 1 token)"},
      {"l2", nullptr, 5, {3, 1},
       "Fig. 2: recurrence E[i-1] -> C -> D -> E, 3 transitions, 1 token"},
      {"loop1", nullptr, 5, {2, 1},
       "Livermore 1 (3 mul, 2 add): DOALL, arc/ack cycles only"},
      {"loop7", nullptr, 16, {2, 1},
       "Livermore 7 (8 mul, 8 add): DOALL, arc/ack cycles only"},
      {"loop12", nullptr, 1, {1, 1},
       "Livermore 12: one subtraction and no arc, so only its own "
       "one-instant firing bounds the rate"},
      {"loop3", nullptr, 2, {2, 1},
       "Livermore 3: recurrence q[k-1] -> add is 1 transition, 1 token; "
       "the mul -> add arc/ack cycle gives 2"},
      {"loop5", nullptr, 2, {2, 1},
       "Livermore 5: recurrence x[i-1] -> sub -> mul, 2 transitions, "
       "1 token"},
      {"loop9", nullptr, 17, {2, 1},
       "Livermore 9 DOALL (8 mul, 9 add): arc/ack cycles only"},
      {"loop9lcd", nullptr, 17, {2, 1},
       "Livermore 9 with px0[i-1]: recurrence is the last add, 1 "
       "transition, 1 token; arc/ack cycles give 2"},
      {"biquad", "examples/biquad.loop", 9, {3, 1},
       "y[i-1] -> mul a1 -> sub -> sub -> y: 3 transitions, 1 token; "
       "y[i-2] closes 2 transitions over 2 tokens"},
      {"fir", "examples/fir.loop", 7, {2, 1},
       "4-tap FIR (4 mul, 3 add): DOALL, arc/ack cycles only"},
      {"horner", "examples/horner.loop", 7, {2, 1},
       "s[i-1] -> add is 1 transition, 1 token; arc/ack cycles give 2"},
      {"stencil", "examples/stencil.loop", 9, {3, 1},
       "5 arithmetic ops plus compare, two switches and a merge; s feeds "
       "a switch directly and through the compare, so the path "
       "s -> lt -> switch plus the ack of s -> switch is a cycle of 3 "
       "transitions holding 1 token"},
  };
  return C;
}

const std::vector<ModeSpec> &perfbench::modes() {
  static const std::vector<ModeSpec> M = {
      {Mode::Ideal,
       {"--verify"},
       "ideal machine: every transition fires k times in a kernel of p "
       "instants, k/p = 1/alpha* (Thm 4.1.1, Thm A.5.3)"},
      {Mode::Scp2,
       {"--scp=2", "--verify"},
       "SCP l=2: one issue slot per instant, rate <= min(1/alpha*, 1/n) "
       "(Thm 5.2.2), uniform firing counts in the frustum"},
      {Mode::Scp4,
       {"--scp=4", "--verify"},
       "SCP l=4: as l=2 (Thm 5.2.2)"},
      {Mode::Program,
       {"--opt", "--emit=program", "--verify"},
       "codegen: kernel p/k = alpha*; the VM run equals the kernel's "
       "reference implementation (Sec. 5 testbed)"},
      {Mode::Storage,
       {"--optimize-storage", "--emit=storage", "--verify"},
       "Sec. 6 minimizer: locations do not grow and the rate stays "
       "1/alpha*"},
  };
  return M;
}

namespace {

std::vector<std::string> lines(const std::string &S) {
  std::vector<std::string> L;
  std::istringstream IS(S);
  for (std::string Line; std::getline(IS, Line);)
    L.push_back(Line);
  return L;
}

/// Reads the unsigned integer after \p Key in \p S.
bool numberAfter(const std::string &S, const std::string &Key,
                 int64_t &Out) {
  size_t At = S.find(Key);
  if (At == std::string::npos)
    return false;
  At += Key.size();
  size_t End = At;
  while (End < S.size() && S[End] >= '0' && S[End] <= '9')
    ++End;
  if (End == At || End - At > 17)
    return false;
  Out = std::stoll(S.substr(At, End - At));
  return true;
}

/// Reads the fraction token after \p Key (up to a space, comma or ')').
bool fracAfter(const std::string &S, const std::string &Key, Frac &Out) {
  size_t At = S.find(Key);
  if (At == std::string::npos)
    return false;
  At += Key.size();
  size_t End = S.find_first_of(" ,)\n", At);
  return parseFrac(S.substr(At, End - At), Out);
}

/// Transition names of a slot line "  t+3: a(i+1)  b(i)".  Returns false
/// when the line is not a slot line for slot \p Slot.
bool slotNames(const std::string &Line, int64_t Slot,
               std::vector<std::string> &Names) {
  std::string Head = "  t+" + std::to_string(Slot) + ":";
  if (Line.compare(0, Head.size(), Head) != 0)
    return false;
  std::istringstream IS(Line.substr(Head.size()));
  for (std::string Tok; IS >> Tok;)
    Names.push_back(Tok.substr(0, Tok.find('(')));
  return true;
}

std::string checkVerifyLine(const Expectation &E, const std::string &Err) {
  Frac Rate;
  if (!fracAfter(Err, "verify: ok (rate ", Rate))
    return "stderr lacks 'verify: ok (rate ...)'";
  if (!(Rate == makeFrac(E.Alpha.Den, E.Alpha.Num)))
    return "verified rate " + fracStr(Rate) + " != 1/alpha* = 1/" +
           fracStr(E.Alpha);
  return "";
}

std::string checkIdeal(const Expectation &E, const std::string &Out) {
  std::vector<std::string> L = lines(Out);
  int64_t P = 0, K = 0;
  if (L.empty() || !numberAfter(L[0], "kernel (p=", P) ||
      !numberAfter(L[0], ", k=", K) || P <= 0 || K <= 0)
    return "stdout lacks 'kernel (p=.., k=..'";
  if (!(makeFrac(K, P) == makeFrac(E.Alpha.Den, E.Alpha.Num)))
    return "kernel k/p = " + std::to_string(K) + "/" + std::to_string(P) +
           " != 1/alpha* = 1/" + fracStr(E.Alpha);
  if (L.size() != static_cast<size_t>(P) + 1)
    return "kernel lists " + std::to_string(L.size() - 1) +
           " slots, p = " + std::to_string(P);
  std::map<std::string, int64_t> Count;
  for (int64_t Slot = 0; Slot < P; ++Slot) {
    std::vector<std::string> Names;
    if (!slotNames(L[Slot + 1], Slot, Names))
      return "malformed kernel slot line " + std::to_string(Slot);
    for (const std::string &N : Names)
      ++Count[N];
  }
  if (Count.size() != E.Ops)
    return "kernel fires " + std::to_string(Count.size()) +
           " distinct transitions, expected " + std::to_string(E.Ops);
  for (const auto &[Name, C] : Count)
    if (C != K)
      return "transition " + Name + " fires " + std::to_string(C) +
             " times per kernel, rate " + fracStr(makeFrac(C, P)) +
             " != 1/alpha*";
  return "";
}

std::string checkScp(const Expectation &E, const std::string &Out,
                     int64_t Depth) {
  std::vector<std::string> L = lines(Out);
  int64_t Lv = 0, Start = 0, Repeat = 0;
  Frac Rate;
  if (L.empty() || !numberAfter(L[0], "SCP machine, l = ", Lv) ||
      !numberAfter(L[0], "frustum [", Start) ||
      !numberAfter(L[0], std::to_string(Start).insert(0, 1, '[') + ", ",
                   Repeat) ||
      !fracAfter(L[0], "), rate ", Rate))
    return "stdout lacks 'SCP machine, l = .., frustum [..), rate ..'";
  if (Lv != Depth)
    return "SCP depth " + std::to_string(Lv) + " != requested " +
           std::to_string(Depth);
  if (Repeat <= Start)
    return "empty SCP frustum";
  // Thm 5.2.2: the data bound and the one-pipeline issue bound 1/n.
  if (fracLess(makeFrac(E.Alpha.Den, E.Alpha.Num), Rate))
    return "SCP rate " + fracStr(Rate) + " exceeds 1/alpha*";
  if (fracLess(makeFrac(1, E.Ops), Rate))
    return "SCP rate " + fracStr(Rate) + " exceeds the Thm 5.2.2 issue "
                                          "bound 1/" +
           std::to_string(E.Ops);
  int64_t Window = Repeat - Start;
  if (L.size() != static_cast<size_t>(Window) + 1)
    return "SCP pattern lists " + std::to_string(L.size() - 1) +
           " instants, frustum has " + std::to_string(Window);
  std::map<std::string, int64_t> Count;
  for (int64_t T = 0; T < Window; ++T) {
    std::vector<std::string> Names;
    if (!slotNames(L[T + 1], T, Names))
      return "malformed SCP slot line " + std::to_string(T);
    if (Names.size() > 1)
      return "SCP issues " + std::to_string(Names.size()) +
             " instructions at t+" + std::to_string(T) +
             " on one pipeline";
    for (const std::string &N : Names)
      ++Count[N];
  }
  if (Count.size() != E.Ops)
    return "SCP frustum issues " + std::to_string(Count.size()) +
           " distinct transitions, expected " + std::to_string(E.Ops);
  for (const auto &[Name, C] : Count)
    if (!(makeFrac(C, Window) == Rate))
      return "transition " + Name + " issues at " +
             fracStr(makeFrac(C, Window)) + ", reported rate " +
             fracStr(Rate);
  return "";
}

std::string checkProgram(const Expectation &E, const std::string &Out) {
  int64_t P = 0, K = 0;
  if (!numberAfter(Out, "kernel p=", P) || !numberAfter(Out, " k=", K) ||
      P <= 0 || K <= 0)
    return "stdout lacks 'loop program: .. kernel p=.. k=..'";
  if (!(makeFrac(P, K) == E.Alpha))
    return "program kernel p/k = " + fracStr(makeFrac(P, K)) +
           " != alpha* " + fracStr(E.Alpha);
  return "";
}

std::string checkStorage(const Expectation &E, const std::string &Out,
                         const std::string &Err) {
  int64_t Body = 0, Locations = 0, Before = 0, After = 0;
  Frac Rate;
  if (!numberAfter(Out, "loop body: ", Body) ||
      !numberAfter(Out, "\nstorage: ", Locations))
    return "stdout lacks 'loop body: ..' / 'storage: ..'";
  if (Body != E.Ops)
    return "loop body " + std::to_string(Body) + " ops, expected " +
           std::to_string(E.Ops);
  if (!numberAfter(Err, "storage: ", Before) ||
      !numberAfter(Err, std::to_string(Before) + " -> ", After) ||
      !fracAfter(Err, "locations (rate ", Rate))
    return "stderr lacks 'storage: B -> A locations (rate ..)'";
  if (After > Before)
    return "storage grew from " + std::to_string(Before) + " to " +
           std::to_string(After);
  if (After != Locations)
    return "stdout reports " + std::to_string(Locations) +
           " locations, the minimizer " + std::to_string(After);
  if (!(Rate == makeFrac(E.Alpha.Den, E.Alpha.Num)))
    return "minimized storage rate " + fracStr(Rate) + " != 1/alpha*";
  return "";
}

} // namespace

std::string perfbench::checkOutput(const Expectation &E, int Exit,
                                   const std::string &Out,
                                   const std::string &Err) {
  if (Exit != 0)
    return "exit code " + std::to_string(Exit);
  if (E.Verified)
    if (std::string V = checkVerifyLine(E, Err); !V.empty())
      return V;
  switch (E.M) {
  case Mode::Ideal:
    return checkIdeal(E, Out);
  case Mode::Scp2:
    return checkScp(E, Out, 2);
  case Mode::Scp4:
    return checkScp(E, Out, 4);
  case Mode::Program:
    return checkProgram(E, Out);
  case Mode::Storage:
    return checkStorage(E, Out, Err);
  }
  return "unknown mode";
}
