//===- perfbench/cpp/LoopGen.cpp - Seeded large loop programs -------------===//

#include "LoopGen.h"

#include <numeric>
#include <sstream>

using namespace perfbench;

Frac perfbench::makeFrac(int64_t Num, int64_t Den) {
  if (Den < 0) {
    Num = -Num;
    Den = -Den;
  }
  int64_t G = std::gcd(Num < 0 ? -Num : Num, Den);
  if (G > 1) {
    Num /= G;
    Den /= G;
  }
  return {Num, Den};
}

bool perfbench::operator==(const Frac &A, const Frac &B) {
  return A.Num == B.Num && A.Den == B.Den;
}

bool perfbench::fracLess(const Frac &A, const Frac &B) {
  return static_cast<__int128>(A.Num) * B.Den <
         static_cast<__int128>(B.Num) * A.Den;
}

std::string perfbench::fracStr(const Frac &F) {
  return F.Den == 1 ? std::to_string(F.Num)
                    : std::to_string(F.Num) + "/" + std::to_string(F.Den);
}

bool perfbench::parseFrac(const std::string &S, Frac &Out) {
  size_t Slash = S.find('/');
  std::string A = S.substr(0, Slash);
  std::string B = Slash == std::string::npos ? "1" : S.substr(Slash + 1);
  auto Digits = [](const std::string &X) {
    return !X.empty() && X.size() < 18 &&
           X.find_first_not_of("0123456789") == std::string::npos;
  };
  if (!Digits(A) || !Digits(B) || std::stoll(B) == 0)
    return false;
  Out = makeFrac(std::stoll(A), std::stoll(B));
  return true;
}

namespace {

/// splitmix64: the generator's own stream, independent of the
/// compiler's support/Random.h.
struct SplitMix {
  uint64_t State;
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
};

/// \p Prefix followed by \p N.  Built by appending: GCC 12 reports a
/// false -Wrestrict on "literal" + std::string (GCC PR105329).
std::string numbered(const char *Prefix, uint64_t N) {
  std::string S = Prefix;
  S += std::to_string(N);
  return S;
}

const char *pickOp(SplitMix &R) {
  static const char *Ops[] = {"+", "*", "-"};
  return Ops[R.below(3)];
}

/// A program of \p Ops operations: a reduction tree over W input
/// products feeding a recurrence of \p L operations at distance \p D.
GeneratedLoop buildLoop(SplitMix &R, const std::string &Family, uint32_t Ops,
                        uint32_t L, uint32_t D) {
  // Tree: W leaf operations plus W-1 reduction operations.
  uint32_t W = (Ops - L + 1) / 2;
  std::ostringstream OS;
  OS << "# perfbench large_loops: family " << Family << ", recurrence " << L
     << " ops at distance " << D << "\n";
  OS << "do i {\n  init s =";
  for (uint32_t J = 0; J < D; ++J)
    OS << (J ? ", " : " ") << (1 + R.below(9));
  OS << ";\n";
  std::vector<std::string> Level;
  for (uint32_t J = 0; J < W; ++J) {
    std::string Name = numbered("t", J);
    OS << "  " << Name << " = x" << J << "[i] " << pickOp(R) << " c"
       << (J % 16) << ";\n";
    Level.push_back(Name);
  }
  for (uint32_t Depth = 0; Level.size() > 1; ++Depth) {
    std::vector<std::string> Next;
    for (size_t K = 0; K + 1 < Level.size(); K += 2) {
      std::string Name = numbered("a", Depth) + "_" + std::to_string(K / 2);
      OS << "  " << Name << " = " << Level[K] << " " << pickOp(R) << " "
         << Level[K + 1] << ";\n";
      Next.push_back(Name);
    }
    if (Level.size() % 2)
      Next.push_back(Level.back());
    Level = std::move(Next);
  }
  // Recurrence: r1 .. r(L-1), then s; the tree root enters at the first
  // recurrence operation.
  std::string Prev = numbered("s[i-", D) + "]";
  for (uint32_t J = 1; J <= L; ++J) {
    std::string Name = J == L ? "s" : numbered("r", J);
    std::string Other = J == 1 ? Level.front() : numbered("y", J) + "[i]";
    OS << "  " << Name << " = " << Prev << " " << pickOp(R) << " " << Other
       << ";\n";
    Prev = Name;
  }
  OS << "  out s;\n}\n";

  GeneratedLoop G;
  G.Family = Family;
  G.Text = OS.str();
  G.Ops = W + (W - 1) + L;
  G.RecurrenceOps = L;
  G.Tokens = D;
  Frac Rec = makeFrac(L, D);
  G.Alpha = fracLess(Rec, Frac{2, 1}) ? Frac{2, 1} : Rec;
  return G;
}

} // namespace

const std::vector<uint32_t> &perfbench::largeLoopSizes() {
  static const std::vector<uint32_t> Sizes = {2048, 3072, 4096, 6144,
                                              8192, 11264, 16384};
  return Sizes;
}

std::vector<GeneratedLoop> perfbench::generateLargeLoops(uint64_t Seed) {
  SplitMix R{Seed * 0x2545f4914f6cdd1dull + 0x1234567ull};
  std::vector<GeneratedLoop> Out;
  const std::vector<uint32_t> &Sizes = largeLoopSizes();
  for (size_t I = 0; I < Sizes.size(); ++I) {
    if (I % 2 == 0) {
      // Short recurrence: 3 operations at distance 1, so alpha* = 3
      // and the kernel fires each operation once.  L is fixed because
      // the frustum's start-up transient, and with it the cost and the
      // memory of the largest programs, grows with alpha*.
      Out.push_back(buildLoop(R, "tree", Sizes[I], 3, 1));
    } else {
      // Long recurrence: L in [1950, 2050] and d = 7 not dividing L,
      // so the kernel spans L instants and fires each operation 7
      // times.  d is fixed because the kernel's size (and the cost of
      // printing it) grows with d.
      const uint32_t D = 7;
      uint32_t L = 1950 + static_cast<uint32_t>(R.below(101));
      while (L % D == 0)
        ++L;
      Out.push_back(buildLoop(R, "ring", Sizes[I], L, D));
    }
  }
  return Out;
}
