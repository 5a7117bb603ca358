"""Generic worklist fixpoint solver.

The solver is graph-shaped, not CFG-shaped: it takes an adjacency map
``node -> successors`` plus a monotone transfer function and computes
the least fixpoint of ``in(n) = join over preds p of transfer(p,
in(p))``, seeded at the given roots. Both the value-set propagation and
the lint analyses instantiate it (forward over block successors,
backward over reversed edges).

Unreached nodes carry no fact (they are absent from the solution) —
that is the implicit bottom, and it keeps join an honest binary
operation over real facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    TypeVar,
)

N = TypeVar("N", bound=Hashable)
F = TypeVar("F")


class FixpointDiverged(RuntimeError):
    """The iteration bound tripped: the transfer is not monotone (or the
    lattice has unbounded height) — a framework-usage bug, not an input
    property."""


@dataclass
class Solution(Generic[N, F]):
    """Facts at node entry for every node reached from the roots."""

    in_facts: Dict[N, F] = field(default_factory=dict)
    iterations: int = 0

    def fact(self, node: N) -> Optional[F]:
        return self.in_facts.get(node)


def _reverse_postorder(graph: Mapping[N, Iterable[N]],
                       roots: Iterable[N]) -> List[N]:
    """Every node reachable from ``roots`` in reverse postorder of a
    depth-first search (roots in the order given): along every edge
    that is not a loop's back edge, the source comes first."""
    seen: Set[N] = set()
    post: List[N] = []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(graph.get(root, ())))]
        while stack:
            node, succs = stack[-1]
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(graph.get(succ, ()))))
                    break
            else:
                stack.pop()
                post.append(node)
    post.reverse()
    return post


def solve(graph: Mapping[N, Iterable[N]],
          roots: Mapping[N, F],
          transfer: Callable[[N, F], F],
          join: Callable[[F, F], F],
          *,
          eq: Optional[Callable[[F, F], bool]] = None,
          max_passes: int = 256) -> Solution[N, F]:
    """Run the worklist iteration to a fixpoint.

    ``roots`` maps each entry node to its boundary fact. ``transfer``
    produces the fact at a node's *exit* from the fact at its entry;
    ``join`` merges facts flowing into a shared node. ``max_passes``
    bounds how many times any single node may be re-processed before
    the solver declares divergence.

    The worklist is a priority queue in reverse postorder of the nodes
    reachable from the roots: a node waits for its forward
    predecessors, and each round walks a loop body once, in order. A
    monotone transfer reaches the same least fixpoint in any order;
    this one usually takes fewer visits than first-in-first-out.
    ``Solution.iterations`` counts the visits.
    """
    same = eq or (lambda a, b: bool(a == b))
    sol: Solution[N, F] = Solution()
    facts = sol.in_facts
    facts.update(roots)
    order = _reverse_postorder(graph, roots)
    rank = {node: index for index, node in enumerate(order)}
    visits = [0] * len(order)
    work = sorted(rank[root] for root in roots)
    queued = set(work)
    while work:
        index = heappop(work)
        queued.discard(index)
        node = order[index]
        visits[index] += 1
        if visits[index] > max_passes:
            raise FixpointDiverged(
                f"node {node!r} re-processed more than {max_passes} times"
            )
        out = transfer(node, facts[node])
        for succ in graph.get(node, ()):
            if succ not in facts:
                facts[succ] = out
            else:
                merged = join(facts[succ], out)
                if same(merged, facts[succ]):
                    continue
                facts[succ] = merged
            succ_index = rank[succ]
            if succ_index not in queued:
                queued.add(succ_index)
                heappush(work, succ_index)
    sol.iterations = sum(visits)
    return sol


def reverse_graph(graph: Mapping[N, Iterable[N]]) -> Dict[N, List[N]]:
    """Edge-reversed adjacency (for backward analyses)."""
    out: Dict[N, List[N]] = {n: [] for n in graph}
    for node, succs in graph.items():
        for succ in succs:
            out.setdefault(succ, []).append(node)
    return out
