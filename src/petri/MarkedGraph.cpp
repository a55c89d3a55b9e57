//===- petri/MarkedGraph.cpp - Marked-graph structure & theorems ----------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/MarkedGraph.h"

#include <cassert>
#include <deque>

using namespace sdsp;

MarkedGraphView::MarkedGraphView(const PetriNet &Net) : Net(Net) {
  Out.resize(Net.numTransitions());
  In.resize(Net.numTransitions());
  Edges.reserve(Net.numPlaces());
  for (PlaceId P : Net.placeIds()) {
    const PetriNet::Place &Pl = Net.place(P);
    if (Pl.Producers.size() != 1 || Pl.Consumers.size() != 1) {
      assert(false && "net is not a marked graph");
      return;
    }
    Edge E{Pl.Producers.front(), Pl.Consumers.front(), P, Pl.InitialTokens};
    uint32_t Index = static_cast<uint32_t>(Edges.size());
    Edges.push_back(E);
    Out[E.From.index()].push_back(Index);
    In[E.To.index()].push_back(Index);
  }
}

bool sdsp::isMarkedGraph(const PetriNet &Net) {
  for (PlaceId P : Net.placeIds()) {
    const PetriNet::Place &Pl = Net.place(P);
    if (Pl.Producers.size() != 1 || Pl.Consumers.size() != 1)
      return false;
  }
  return true;
}

/// DFS-based cycle check over the subgraph of token-free edges.  A cycle
/// of token-free edges is exactly a token-free simple cycle.
bool sdsp::isLiveMarkedGraph(const PetriNet &Net) {
  MarkedGraphView G(Net);
  size_t N = G.numVertices();
  // 0 = unvisited, 1 = on stack, 2 = done.
  std::vector<uint8_t> State(N, 0);
  std::vector<size_t> Stack;
  std::vector<size_t> NextEdge(N, 0);

  for (size_t Root = 0; Root < N; ++Root) {
    if (State[Root] != 0)
      continue;
    Stack.push_back(Root);
    State[Root] = 1;
    NextEdge[Root] = 0;
    while (!Stack.empty()) {
      size_t V = Stack.back();
      const auto &Outs = G.outEdges(TransitionId(V));
      bool Descended = false;
      while (NextEdge[V] < Outs.size()) {
        const MarkedGraphView::Edge &E = G.edge(Outs[NextEdge[V]++]);
        if (E.Tokens > 0)
          continue; // Marked edges break token-free cycles.
        size_t W = E.To.index();
        if (State[W] == 1)
          return false; // Token-free cycle found: not live.
        if (State[W] == 0) {
          State[W] = 1;
          NextEdge[W] = 0;
          Stack.push_back(W);
          Descended = true;
          break;
        }
      }
      if (!Descended && NextEdge[V] >= Outs.size()) {
        State[V] = 2;
        Stack.pop_back();
      }
    }
  }
  return true;
}

namespace {

/// Searches for a path From -> To whose edges carry at most \p Budget
/// tokens in total, visiting each (vertex, tokens-used) state once.
bool existsBoundedTokenPath(const MarkedGraphView &G, TransitionId From,
                            TransitionId To, uint32_t Budget) {
  size_t N = G.numVertices();
  std::vector<std::vector<bool>> Seen(N,
                                      std::vector<bool>(Budget + 1, false));
  std::deque<std::pair<size_t, uint32_t>> Work;
  Work.push_back({From.index(), 0});
  Seen[From.index()][0] = true;
  while (!Work.empty()) {
    auto [V, Used] = Work.front();
    Work.pop_front();
    if (V == To.index())
      return true;
    for (uint32_t EI : G.outEdges(TransitionId(V))) {
      const MarkedGraphView::Edge &E = G.edge(EI);
      uint64_t NewUsed = static_cast<uint64_t>(Used) + E.Tokens;
      if (NewUsed > Budget)
        continue;
      size_t W = E.To.index();
      if (Seen[W][NewUsed])
        continue;
      Seen[W][NewUsed] = true;
      Work.push_back({W, static_cast<uint32_t>(NewUsed)});
    }
  }
  return false;
}

} // namespace

bool sdsp::isSafeMarkedGraph(const PetriNet &Net) {
  MarkedGraphView G(Net);
  // Every edge must close into a cycle with token count exactly 1.  For
  // a live marking each cycle already has >= 1 token, so it suffices to
  // find, for each edge e = (u, v, k), a return path v -> u with at most
  // 1 - k tokens... except k may already exceed 1, which immediately
  // violates safety for live nets with cycles through e.  We check: a
  // return path with total tokens <= 1 - k exists (treating k > 1 as a
  // failure).
  for (const MarkedGraphView::Edge &E : G.edges()) {
    if (E.Tokens > 1)
      return false;
    uint32_t Budget = 1 - E.Tokens;
    if (!existsBoundedTokenPath(G, E.To, E.From, Budget))
      return false;
  }
  return true;
}

bool sdsp::isStructurallyPersistent(const PetriNet &Net) {
  for (PlaceId P : Net.placeIds())
    if (Net.place(P).Consumers.size() > 1)
      return false;
  return true;
}

std::optional<TransitionId>
sdsp::stronglyConnectedRoot(const MarkedGraphView &G) {
  size_t N = G.numVertices();
  if (N == 0)
    return std::nullopt;

  auto Reaches = [&](bool Forward) {
    std::vector<bool> Seen(N, false);
    std::deque<size_t> Work{0};
    Seen[0] = true;
    size_t Count = 1;
    while (!Work.empty()) {
      size_t V = Work.front();
      Work.pop_front();
      const auto &Edges =
          Forward ? G.outEdges(TransitionId(V)) : G.inEdges(TransitionId(V));
      for (uint32_t EI : Edges) {
        const MarkedGraphView::Edge &E = G.edge(EI);
        size_t W = Forward ? E.To.index() : E.From.index();
        if (Seen[W])
          continue;
        Seen[W] = true;
        ++Count;
        Work.push_back(W);
      }
    }
    return Count == N;
  };

  if (Reaches(/*Forward=*/true) && Reaches(/*Forward=*/false))
    return TransitionId(0u);
  return std::nullopt;
}
