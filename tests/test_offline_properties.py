"""Properties of the offline phase's fast paths.

* The reverse-postorder worklist ``solve`` reaches the same fixpoint as
  a round-robin Kleene iteration on random digraphs with a monotone
  powerset transfer, and still trips ``FixpointDiverged`` on a
  non-monotone transfer over an unbounded lattice.
* The parser's register lookup accepts exactly the spellings
  ``parse_reg`` does, and its plain operand split agrees with the
  bracket-aware character scan.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.parser import _split_operands, _try_reg
from repro.core.dataflow.framework import FixpointDiverged, solve
from repro.isa.operands import Reg
from repro.isa.registers import REG_COUNT, parse_reg

UNIVERSE = 6


@st.composite
def digraphs(draw, min_nodes=1):
    """``(graph, roots)``: adjacency over ``0..n-1`` with at least one
    root (the graph may have unreachable nodes and self-loops)."""
    n = draw(st.integers(min_nodes, 12))
    nodes = range(n)
    graph = {
        node: draw(st.lists(st.sampled_from(nodes), max_size=3,
                            unique=True))
        for node in nodes
    }
    roots = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3,
                          unique=True))
    return graph, roots


subsets = st.frozensets(st.integers(0, UNIVERSE - 1))


def kleene(graph, roots, transfer, join):
    """Round-robin Kleene iteration from bottom (no fact): recompute
    every node's entry fact from its boundary value and all its
    predecessors' exits until nothing changes."""
    preds = {node: [] for node in graph}
    for node, succs in graph.items():
        for succ in succs:
            preds[succ].append(node)
    facts = {}
    while True:
        new = {}
        for node in graph:
            fact = roots.get(node)
            for pred in preds[node]:
                if pred in facts:
                    out = transfer(pred, facts[pred])
                    fact = out if fact is None else join(fact, out)
            if fact is not None:
                new[node] = fact
        if new == facts:
            return facts
        facts = new


class TestSolver:
    @settings(max_examples=300, deadline=None)
    @given(digraphs(), st.data())
    def test_matches_kleene_on_monotone_powerset(self, shaped, data):
        graph, root_nodes = shaped
        gen = {n: data.draw(subsets) for n in graph}
        kill = {n: data.draw(subsets) for n in graph}
        # a monotone map on top of gen/kill: shift every element
        shift = {n: data.draw(st.integers(0, 2)) for n in graph}
        roots = {n: data.draw(subsets) for n in root_nodes}

        def transfer(node, fact):
            moved = frozenset((x + shift[node]) % UNIVERSE for x in fact)
            return (moved - kill[node]) | gen[node]

        join = frozenset.union
        solution = solve(graph, roots, transfer, join)
        assert solution.in_facts == kleene(graph, roots, transfer, join)
        assert solution.iterations >= len(solution.in_facts)

    @settings(max_examples=100, deadline=None)
    @given(digraphs(min_nodes=2), st.data())
    def test_non_monotone_transfer_diverges(self, shaped, data):
        """``S -> S + {max(S) + 1}`` is not monotone, and around any
        cycle reachable from a root it grows the fact forever."""
        graph, root_nodes = shaped
        # close a cycle through the first root
        root = root_nodes[0]
        other = data.draw(st.sampled_from(sorted(graph)))
        graph[root] = list(dict.fromkeys(graph[root] + [other]))
        graph[other] = list(dict.fromkeys(graph[other] + [root]))

        def transfer(_node, fact):
            return fact | {max(fact, default=0) + 1}

        with pytest.raises(FixpointDiverged):
            solve(graph, {root: frozenset({0})}, transfer,
                  frozenset.union, max_passes=16)

    def test_reverse_postorder_visits_a_chain_once(self):
        graph = {0: [1], 1: [2], 2: [3], 3: []}
        seen = []
        solve(graph, {0: 0}, lambda n, f: seen.append(n) or f, max)
        assert seen == [0, 1, 2, 3]

    def test_loop_body_settles_before_the_exit(self):
        """A diamond feeding a loop: the join node runs only after
        both arms, and the exit only after the loop settles."""
        graph = {0: [1, 2], 1: [3], 2: [3], 3: [4], 4: [3, 5], 5: []}
        seen = []

        def transfer(node, fact):
            seen.append(node)
            return min(fact + 1, 3)

        solution = solve(graph, {0: 0}, transfer, max)
        assert seen.index(3) > max(seen.index(1), seen.index(2))
        assert seen.count(5) == 1 and seen[-1] == 5
        assert solution.iterations == len(seen)


# -- the parser's one-pass operand handling ---------------------------------

def _reference_parse_reg(name):
    """The digit rule ``parse_reg`` documents, spelled out."""
    low = name.strip().lower()
    aliases = {"sp": 13, "lr": 14, "pc": 15, "fp": 11, "ip": 12}
    if low in aliases:
        return aliases[low]
    if low.startswith("r"):
        digits = low[1:]
        if (digits.isascii() and digits.isdigit()
                and (len(digits) == 1 or digits[0] != "0")):
            num = int(digits)
            if num < REG_COUNT:
                return num
    return None


def _parse_reg_or_none(token):
    try:
        return parse_reg(token)
    except ValueError:
        return None


class TestRegisterLookup:
    @pytest.mark.parametrize("token,expected", [
        ("r00", None), ("R5", 5), ("r16", None), (" lr ", 14),
        ("fp", 11), ("ip", 12), ("r 5", None), ("r0", 0), ("r15", 15),
        ("SP", 13), ("pc", 15), ("r+5", None), ("r-1", None), ("", None),
        ("r", None), ("\tr7\n", 7), ("r05", None), ("r١", None),
    ])
    def test_try_reg_agrees_with_parse_reg(self, token, expected):
        assert _parse_reg_or_none(token) == expected
        assert _reference_parse_reg(token) == expected
        assert _try_reg(token) == (None if expected is None
                                   else Reg(expected))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.text(alphabet="rRsSpPlLcCfFiI0123456789 +-\t", max_size=5),
        st.text(max_size=4)))
    def test_lookup_matches_the_digit_rule(self, token):
        expected = _reference_parse_reg(token)
        assert _parse_reg_or_none(token) == expected
        reg = _try_reg(token)
        assert (reg.num if reg is not None else None) == expected


def _reference_split(text):
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


class TestSplitOperands:
    @pytest.mark.parametrize("text", [
        "", " ", "r0", "r0,", "r0, r1, #4", "r0,,r1", " r0 , r1 ",
        "r0, [r1, #4]", "{r4-r7, lr}", "r0], r1", "r0, [r1, r2, lsl #2]",
    ])
    def test_cases(self, text):
        assert _split_operands(text) == _reference_split(text)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="r01, #[]{}\tlx", max_size=16))
    def test_matches_the_character_scan(self, text):
        assert _split_operands(text) == _reference_split(text)
