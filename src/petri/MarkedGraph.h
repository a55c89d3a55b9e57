//===- petri/MarkedGraph.h - Marked-graph structure & theorems -*- C++ -*-===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Marked graphs (Appendix A.5): Petri nets in which every place has
/// exactly one producer and one consumer.  SDSP-PNs are marked graphs, so
/// most of the paper's analysis happens in the contracted *transition
/// graph*: vertices are transitions, and each place p with .p = {u} and
/// p. = {v} becomes an edge u -> v annotated with its token count.
///
/// The classical results used by the paper (Commoner/Holt/Even/Pnueli):
///   - A marking is live iff every simple cycle carries at least 1 token
///     (Thm A.5.1).
///   - A live marking is safe iff every edge lies on a simple cycle with
///     token count exactly 1 (Thm A.5.2).
///   - Token counts of simple cycles are invariant under firing.
///
//===----------------------------------------------------------------------===//

#ifndef SDSP_PETRI_MARKEDGRAPH_H
#define SDSP_PETRI_MARKEDGRAPH_H

#include "petri/PetriNet.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace sdsp {

/// The transition graph of a marked graph: one directed edge per place.
class MarkedGraphView {
public:
  /// One edge of the contracted graph, i.e. one place of the net.
  struct Edge {
    TransitionId From;
    TransitionId To;
    PlaceId Via;
    uint32_t Tokens;
  };

  /// Builds the view.  \p Net must satisfy isMarkedGraph(Net).
  explicit MarkedGraphView(const PetriNet &Net);

  const PetriNet &net() const { return Net; }

  size_t numVertices() const { return Net.numTransitions(); }
  size_t numEdges() const { return Edges.size(); }

  const std::vector<Edge> &edges() const { return Edges; }
  const Edge &edge(size_t I) const { return Edges[I]; }

  /// Outgoing edge indices of transition \p T.
  const std::vector<uint32_t> &outEdges(TransitionId T) const {
    return Out[T.index()];
  }
  /// Incoming edge indices of transition \p T.
  const std::vector<uint32_t> &inEdges(TransitionId T) const {
    return In[T.index()];
  }

private:
  const PetriNet &Net;
  std::vector<Edge> Edges;
  std::vector<std::vector<uint32_t>> Out;
  std::vector<std::vector<uint32_t>> In;
};

/// True iff every place of \p Net has exactly one producer and one
/// consumer (Definition A.5.1).
bool isMarkedGraph(const PetriNet &Net);

/// Thm A.5.1 check: the initial marking is live iff every simple cycle
/// carries at least one token.  Equivalently (and far cheaper): the
/// subgraph restricted to token-free edges is acyclic.  \p Net must be a
/// marked graph.
bool isLiveMarkedGraph(const PetriNet &Net);

/// Thm A.5.2 check: a live marking is safe iff every edge lies on a
/// simple cycle with token count exactly 1.  Runs one BFS per edge over
/// a "remaining token budget" graph; \p Net must be a live marked graph.
bool isSafeMarkedGraph(const PetriNet &Net);

/// True iff \p Net is structurally persistent: no place has more than
/// one consumer (sufficient condition; marked graphs always satisfy it).
bool isStructurallyPersistent(const PetriNet &Net);

/// Returns a transition of the (unique) strongly connected component
/// containing all cycles if the whole graph is strongly connected, or
/// std::nullopt otherwise.  SDSP-PNs are strongly connected because each
/// data arc is paired with an acknowledgement arc.
std::optional<TransitionId> stronglyConnectedRoot(const MarkedGraphView &G);

} // namespace sdsp

#endif // SDSP_PETRI_MARKEDGRAPH_H
