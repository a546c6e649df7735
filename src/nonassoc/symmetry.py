"""Basis permutations that preserve an algebra's structure constants.

A permutation g of the basis indices with c[g i][g j][g k] = c[i][j][k] for
all i, j, k maps e_i to e_(g i) and is an algebra automorphism.  The group G
of all of them is found from the sparse constants alone, never from labels:
colours of the indices are refined by the entries each index takes part in
(the other two indices' colours and the value), one index of a cell is
individualized and the colours refined again, down to a discrete colouring;
the map between two such leaves is a candidate (the scheme of McKay's
nauty).  Each candidate is verified exactly against the entries, so every
generator kept is an automorphism and a search that stops early only finds a
smaller group.  Only the indices that some constant mentions are searched;
any permutation of the others is an automorphism too, but every generator
fixes them, so a block of null indices never enters the search.  The
element list is the first elements breadth first from the generators, at
most as many as the input has mentioned indices and nonzero constants: the
orbit-reduced loop of ``identities`` is exact for any set of automorphisms,
so a list cut short prunes less but never wrongly, and memory stays
proportional to the input even where G is huge (S_n on M_n, S_dim on a
Hadamard algebra).
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property


def _refine(colour: list, incident: list) -> list:
    """Refine ``colour`` until the entries of each index look alike within each cell.

    A colour is the rank of (old colour, the sorted entries around the index),
    where an entry (i, j, k, v) reads as the colours of i, j, k and v; in
    ``incident[x]`` the index x itself is written as n and reads as -1.  Ranks
    of sorted keys make the result independent of the index order, so
    colourings from two branches compare.
    """
    cells = len(set(colour))
    while True:
        c = colour + [-1]
        keys = [
            (c[x], tuple(sorted([(c[i], c[j], c[k], v) for i, j, k, v in entries])))
            for x, entries in enumerate(incident)
        ]
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        colour = [rank[key] for key in keys]
        if len(rank) == cells:
            return colour
        cells = len(rank)


def _individualize(colour: list, x: int, incident: list) -> list:
    """``colour`` with ``x`` alone in a cell just before the rest of its own, refined."""
    return _refine([2 * c + (y != x) for y, c in enumerate(colour)], incident)


def _target(colour: list) -> list:
    """The indices of the lowest colour held by more than one index ([] if none)."""
    shared = [c for c, m in Counter(colour).items() if m > 1]
    if not shared:
        return []
    low = min(shared)
    return [x for x, c in enumerate(colour) if c == low]


def _orbit(x: int, gens: list) -> set:
    orbit, todo = {x}, [x]
    for y in todo:
        for g in gens:
            if g[y] not in orbit:
                orbit.add(g[y])
                todo.append(g[y])
    return orbit


def _leaves(colour: list, x: int, incident: list, shapes: list, budget: list):
    """The discrete colourings below ``colour`` with ``x`` individualized, depth
    first, whose cell sizes follow ``shapes`` (the first path's, from
    ``colour``'s level down); each refinement spends one of ``budget[0]``."""
    todo = [(colour, x, 1)]
    while todo and budget[0] > 0:
        colour, x, level = todo.pop()
        budget[0] -= 1
        colour = _individualize(colour, x, incident)
        if Counter(colour) != shapes[level]:
            continue
        cell = _target(colour)
        if not cell:
            yield colour
        todo += [(colour, y, level + 1) for y in reversed(cell)]


def find_generators(dim: int, entries) -> tuple[tuple, int]:
    """Verified automorphisms of the nonzero constants ``entries``, (i, j, k, c)
    over indices below ``dim``, that generate a group H, and a lower bound
    on |H|.

    The first path individualizes the first index of the target cell at each
    level down to a leaf.  Then, deepest level first, each index w of that
    level's cell outside the orbit found so far is individualized in its
    place, and the leaves below are tried in turn until the map from the
    first leaf to one of them preserves every entry.  Generators found at and
    below a level fix the path above it, so the product of the orbit sizes
    is at most |H|.  Past the first path the search makes at most dim²
    refinements.
    """
    table = {(i, j, k): v for i, j, k, v in entries}
    incident = [[] for _ in range(dim)]
    for (i, j, k), v in table.items():
        for x in {i, j, k}:
            incident[x].append(tuple(dim if y == x else y for y in (i, j, k)) + (v,))
    path, shapes = [], []
    colour = _refine([0] * dim, incident)
    while True:
        shapes.append(Counter(colour))
        cell = _target(colour)
        if not cell:
            break
        path.append((colour, cell))
        colour = _individualize(colour, cell[0], incident)
    first = {c: x for x, c in enumerate(colour)}
    gens: list = []
    order, budget = 1, [dim * dim]
    for level in reversed(range(len(path))):
        colour, cell = path[level]
        orbit = _orbit(cell[0], gens)
        for w in cell:
            if w in orbit:
                continue
            for leaf in _leaves(colour, w, incident, shapes[level:], budget):
                g = [0] * dim
                for y, c in enumerate(leaf):
                    g[first[c]] = y
                if all(table.get((g[i], g[j], g[k])) == v for (i, j, k), v in table.items()):
                    gens.append(tuple(g))
                    orbit = _orbit(cell[0], gens)
                    break
        order *= len(orbit)
    return tuple(gens), order


def close(gens: list, dim: int, limit: int) -> tuple:
    """The first ``limit`` non-identity elements of the group ``gens`` generate,
    breadth first from the generators (all of them when there are fewer)."""
    identity = tuple(range(dim))
    seen, queue = {identity}, [identity]
    for e in queue:
        for g in gens:
            h = tuple(g[x] for x in e)
            if h not in seen:
                if len(queue) > limit:
                    return tuple(queue[1:])
                seen.add(h)
                queue.append(h)
    return tuple(queue[1:])


class Automorphisms:
    """The verified basis-permutation automorphisms of one algebra's constants.

    The generators are searched for once, on construction, from the nonzero
    constants ``entries`` (i, j, k, c) renumbered over the indices they
    mention, ``mentioned`` (ascending); they fix every other index.
    """

    def __init__(self, dim: int, entries: tuple, mentioned: tuple):
        self.dim = dim
        at = {x: p for p, x in enumerate(mentioned)}
        gens, self.order_bound = find_generators(
            len(mentioned), [(at[i], at[j], at[k], v) for i, j, k, v in entries])
        self.generators = tuple(
            tuple(mentioned[g[at[x]]] if x in at else x for x in range(dim)) for g in gens
        )
        # m + c <= 4c: fewer than the _TUPLES_PER_UNIT * (n + c) tuples of any
        # plan that check_identity hands the list to
        self.size = len(mentioned) + len(entries)

    @cached_property
    def elements(self) -> tuple:
        """Non-identity elements of the group, at most ``size`` of them: the
        mentioned indices plus the nonzero constants."""
        return close(self.generators, self.dim, self.size)
