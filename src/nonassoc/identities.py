"""Exact verification of polynomial identities for bilinear products.

A named identity is a formal equation between sums of product words in a
few variables, homogeneous of known degree in each variable.  Identities
that are multilinear (degree 1 in every variable) vanish identically iff
they vanish on basis tuples.  For the others we polarize: each variable of
degree d is split into d fresh slots and the symmetrized multilinear
component is checked on basis tuples.  Over a field of characteristic 0
(here Q) the original identity holds for all elements iff the polarized
multilinear form vanishes on all basis tuples, so basis-tuple checking is a
proof, not a sample.

Each polarized plan is compiled once into a staged loop nest: subwords are
shared nodes, each computed at the loop depth of its highest slot from its
children's current values.  The arithmetic is integer: the structure
constants are scaled by the lcm D of their denominators, and every identity
is homogeneous, so both sides (words of m leaves, m - 1 products) scale by
the same D^(m-1) and equality is unchanged; a witness is scaled back.
Random corroboration runs the raw words on ``Algebra.integer_product``, the
scaled constants compiled per algebra, at elements kept doubled, so both
sides carry 2^m D^(m-1), compared exactly.

The innermost slot runs all at once, by Kronecker substitution: its leaf
holds index run[p] of the slot's whole run as the int 2^(w p).  Every word
is linear in that slot (a product has it in one operand, a sum's terms all
hold it), so each node at that depth is sum_p 2^(w p) (its value at run[p])
exactly.  With cmax the largest l1 norm of a cell of the int constants or
of R's columns, a word of p products and q R nodes has coordinates at most
cmax^(p+q) at basis vectors, and a signed root, summing at most the k words
of its (coef, p, q) group, at most |weight| k cmax^(p+q); B is their sum.
With 2^(w-1) > B a packed coordinate is 0 iff each field is, and the lowest
set bit of all coordinates, over w, is the slot's first failing index.
Without the automorphism list, once a block has passed, the last two slots
run at once, by bivariate Kronecker substitution: index run[p1] of slot
last - 1 is 2^(w n2 p1) and index order[p2] of the last slot 2^(w p2), n2
being the length of ``order``, the indices the last slot may take.  The
words are bilinear in the two slots, so field n2 p1 + p2 holds the value at
(run[p1], order[p2]), w still bounds it, and the lowest failing field
decodes as (p1, p2) = divmod(field, n2).  The last slot, a variable of
degree one, has one leaf L = sum_p 2^(w p) e_order[p] for the whole verdict,
so from the second block at one depth on it is a phantom basis index, as R
is (below).  Its cells e_x L and L e_y are filled when a block first reads
them, each the integer the direct loop sums: packed values, witnesses and w
are unchanged.

Symmetry cuts the loop.  A basis permutation g with c[g i][g j][g k] =
c[i][j][k] is an automorphism, so the polarized form vanishes at a tuple t
iff it vanishes at g(t), and, being symmetric within each group of slots
split from one variable, iff it vanishes at sort(g(t)), each group sorted.
Let G be the group of ``symmetry`` and call the lex-min tuple of each orbit
of G x (slot symmetry) its representative: a pass on every representative
is a proof.  The loop prunes a prefix only when a listed automorphism maps
it lower, so, given any subset of G, it checks a superset of the
representatives, in lex order.  A failing tuple's representative fails,
comes no later and is checked, so the first failing tuple checked is the
lexicographically first and witnesses are unchanged; the list
``Automorphisms.elements`` can therefore stop at the input's size.  Only a
g that sends some index of a slot group's run to its first index can give
an image that is not larger (Linton's minimal-image idea), so only those g
sort an image.  Only prefixes are pruned: the packed innermost slot checks
its whole run, still exactly (``_basis_verdict``).  The group is searched
for once per algebra, and used for a plan only when its tuple count
prod C(n+d-1, d), n the size of the support (below), exceeds
``_TUPLES_PER_UNIT`` times (n + the number of nonzero constants), the
measured point past which the search pays for itself.  Operator words keep
the plain loop, since an automorphism need not commute with R.

Null indices are skipped.  ``Algebra.support`` lists the indices that some
nonzero constant names; any other index i is null: row i and column i of the
constants are empty, so e_i x = x e_i = 0 for every x.  No identity word is
a bare leaf (``_register`` refuses one), so every leaf sits under a product,
and a tuple holding a null index gives 0 on both sides.  The identity loop
runs each slot over the support only, in the same order; every skipped tuple
passes, so the first failing tuple and its witness are unchanged.  Random
trials read each draw on the support too, exact as x y = x_s y_s with the
product in the support.  An algebra with an empty support passes with
nothing drawn.  Operator words run every index: R need not vanish off the
support, and a side may be a bare leaf (the x of R(R(x)) = x).

Words may also apply a linear operator: the node ``("R", w)`` is R(w).  The
operator identities of ``operators`` (derivation, Rota-Baxter, ...) are
signed sums of such words, linear in each variable, and run through the same
basis-tuple loop.  R's columns are scaled by the lcm E of their
denominators, and an R step is the product of its child with a phantom basis
vector e_dim whose row entries hold those columns, so the product kernel
applies R unchanged.  A word with p products and q R nodes then carries
D^p E^q.  Each root word gets the integer weight coef·L·D^(P-p)·E^(Q-q),
where P and Q are the largest p and q over the identity and L is the lcm of
the coefficient denominators, so every word is compared at the one scale
L·D^P·E^Q.  For the identities above every weight is ±1 and the scale is
D^(m-1).

Shared operands are factored out before the words are hash-consed.  Each
side's words are grouped by (coef, p, q), and in a group the words with a
common left or right operand v, R(w) counting as w times the phantom,
become one product with the sum of their other operands, itself factored:
sum u_i v = (sum u_i) v.  A sum is a step of its own, computed at the depth
of its deepest term.  The words of a group all carry D^p E^q, so a sum is
exact in int, and each root keeps its (coef, p, q): weights, verdicts and
witnesses are those of the unfactored words.  jordan_main's 6 + 6 polarized
words become 3 + 3 roots, the linearized Jordan identity
sum_c ((x_a x_b + x_b x_a) y) x_c = sum_c (x_a x_b + x_b x_a)(y x_c), and its
innermost loop depth computes 12 products instead of 21.

The derived products of ``constructions`` are words in the same language,
signed sums in x and y.  One element-level evaluator, ``_eval_word_elements``,
walks their compiled schedules, sum steps included, in exact rationals,
applying R through a given function (the operator's ``apply``, remembered
per element).  At each pair of basis vectors it gives the one signed sum of
a construction's words, whose nonzero coordinates ``derive`` writes straight
into the derived algebra's sparse rows.
"""
from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, reduce
from math import comb, lcm, prod
from operator import or_
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .algebra import Algebra, Element
from .errors import GridError, NonassocError
from .scalars import Scalar, as_scalar, format_scalar
from .verdicts import Verdict, Witness

# A word is a slot index (leaf), a pair (left, right), or ("R", word).
Word = object
SignedWord = tuple[int, Word]

X, Y = 0, 1


def R(word: Word) -> Word:
    """The word R(word)."""
    return ("R", word)


@dataclass(frozen=True)
class Identity:
    """A formal identity lhs == rhs with declared multidegree per variable."""

    name: str
    variables: tuple[str, ...]
    multidegree: tuple[int, ...]
    lhs: tuple[SignedWord, ...]
    rhs: tuple[SignedWord, ...]


def _word_var_counts(word: Word, arity: int) -> list[int]:
    counts = [0] * arity
    stack = [word]
    while stack:
        w = stack.pop()
        if isinstance(w, int):
            counts[w] += 1
        else:
            stack.extend(w[1:] if w[0] == "R" else w)
    return counts


def _shape(word: Word) -> tuple[int, int]:
    """The number of products and of R nodes in a word."""
    if isinstance(word, int):
        return 0, 0
    if word[0] == "R":
        p, q = _shape(word[1])
        return p, q + 1
    (lp, lq), (rp, rq) = _shape(word[0]), _shape(word[1])
    return lp + rp + 1, lq + rq


# Variable slots in each identity's words are numbered by position in
# ``variables``; e.g. for ("x", "y", "z"): x=0, y=1, z=2.
IDENTITIES: dict[str, Identity] = {}


def _register(name, variables, multidegree, lhs, rhs):
    ident = Identity(name, variables, multidegree, tuple(lhs), tuple(rhs))
    arity = len(variables)
    for sign, word in ident.lhs + ident.rhs:
        if _word_var_counts(word, arity) != list(multidegree):
            raise AssertionError(f"identity {name} is not homogeneous")
        if isinstance(word, int):
            raise AssertionError(f"identity {name} has a bare leaf, which no null index zeroes")
    IDENTITIES[name] = ident


_register(
    "antisymmetry", ("x", "y"), (1, 1),
    lhs=[(1, (0, 1))],
    rhs=[(-1, (1, 0))],
)
_register(
    "commutativity", ("x", "y"), (1, 1),
    lhs=[(1, (0, 1))],
    rhs=[(1, (1, 0))],
)
_register(
    "associativity", ("x", "y", "z"), (1, 1, 1),
    lhs=[(1, ((0, 1), 2))],
    rhs=[(1, (0, (1, 2)))],
)
_register(
    "jacobi", ("x", "y", "z"), (1, 1, 1),
    lhs=[(1, (0, (1, 2))), (1, (2, (0, 1))), (1, (1, (2, 0)))],
    rhs=[],
)
_register(
    "left_leibniz", ("x", "y", "z"), (1, 1, 1),
    lhs=[(1, (0, (1, 2)))],
    rhs=[(1, ((0, 1), 2)), (1, (1, (0, 2)))],
)
_register(
    "left_prelie", ("x", "y", "z"), (1, 1, 1),
    lhs=[(1, ((0, 1), 2)), (-1, (0, (1, 2)))],
    rhs=[(1, ((1, 0), 2)), (-1, (1, (0, 2)))],
)
_register(
    "novikov_right_comm", ("x", "y", "z"), (1, 1, 1),
    lhs=[(1, ((0, 1), 2))],
    rhs=[(1, ((0, 2), 1))],
)
_register(
    "flexible", ("x", "y"), (2, 1),
    lhs=[(1, ((0, 1), 0))],
    rhs=[(1, (0, (1, 0)))],
)
# The flexibility half of the two Jordan identities; same formal identity
# as "flexible" but catalogued separately so reports can name both halves.
_register(
    "jordan_flex", ("x", "y"), (2, 1),
    lhs=[(1, ((0, 1), 0))],
    rhs=[(1, (0, (1, 0)))],
)
_register(
    "jordan_main", ("x", "y"), (3, 1),
    lhs=[(1, (((0, 0), 1), 0))],
    rhs=[(1, ((0, 0), (1, 0)))],
)

IDENTITY_NAMES: tuple[str, ...] = tuple(IDENTITIES)


def get_identity(name: str) -> Identity:
    try:
        return IDENTITIES[name]
    except KeyError:
        raise NonassocError(f"unknown identity {name!r}") from None


# ---------------------------------------------------------------------------
# Polarization
# ---------------------------------------------------------------------------

def _substitute(word: Word, slot_for_occurrence: dict[int, list[int]], counters: list[int]) -> Word:
    if isinstance(word, int):
        occ = counters[word]
        counters[word] += 1
        return slot_for_occurrence[word][occ]
    return (
        _substitute(word[0], slot_for_occurrence, counters),
        _substitute(word[1], slot_for_occurrence, counters),
    )


@dataclass(frozen=True)
class PolarizedPlan:
    """Multilinear reduction of an identity.

    ``slots`` is the expanded arity; ``groups`` lists the slot ranges that
    came from one original variable (the polarized form is symmetric in
    each group, so enumeration may be restricted to non-decreasing indices
    within a group without losing witnesses).
    """

    identity: Identity
    slots: int
    lhs: tuple[SignedWord, ...]
    rhs: tuple[SignedWord, ...]
    groups: tuple[tuple[int, ...], ...]


def _polarize_words(words, multidegree, offsets) -> list[SignedWord]:
    out: list[SignedWord] = []
    arity = len(multidegree)
    for sign, word in words:
        perm_choices = [
            list(itertools.permutations(range(d))) if d > 1 else [tuple(range(d))]
            for d in multidegree
        ]
        for combo in itertools.product(*perm_choices):
            slot_map = {
                v: [offsets[v] + combo[v][o] for o in range(multidegree[v])]
                for v in range(arity)
            }
            counters = [0] * arity
            out.append((sign, _substitute(word, slot_map, counters)))
    return out


@cache
def polarized_plan(name: str) -> PolarizedPlan:
    ident = get_identity(name)
    offsets = []
    total = 0
    for d in ident.multidegree:
        offsets.append(total)
        total += d
    groups = tuple(
        tuple(range(offsets[v], offsets[v] + d))
        for v, d in enumerate(ident.multidegree)
        if d > 1
    )
    return PolarizedPlan(
        ident,
        total,
        tuple(_polarize_words(ident.lhs, ident.multidegree, offsets)),
        tuple(_polarize_words(ident.rhs, ident.multidegree, offsets)),
        groups,
    )


@cache
def _plan_schedule(name: str) -> _Schedule:
    """The polarized plan's words, compiled once."""
    plan = polarized_plan(name)
    return _schedule(plan.slots, plan.lhs, plan.rhs, plan.groups)


class _Schedule(NamedTuple):
    """Signed words as hash-consed nodes; node ``s < slots`` is slot ``s``'s leaf.

    ``steps[d]`` lists the steps whose highest slot is ``d``, children
    first.  A product step is ``(node, left, right)``; an R node is the
    product of its child with the node ``phantom`` (None when no word
    applies R).  A sum step is ``(node, None, terms)``, the sum of the
    nodes ``terms``, computed at the depth of its deepest term.  ``lhs``/
    ``rhs`` list each root as ``(coef, node, p, q)``: its coefficient (an
    int or a parameter name) and its numbers of products and of R nodes.
    ``tied[d]``: slot ``d`` (never the last) follows slot ``d - 1`` in one group.
    ``beside_last`` lists the nodes that the last slot's leaf multiplies at its
    depth: those on its left, then those on its right (R's phantom for an R
    step whose child it is).  The words are linear in that slot, so each is
    computed at a smaller depth, and no sum holds the leaf: a sum's terms
    share one other operand, so they hold the same slots.

    A root stands for the words of one (coef, p, q) group of a side, factored
    by ``_factor``; the roots of a group sum to its words exactly.  ``counts``
    gives each root, lhs then rhs, the number k of words in its group.
    """

    steps: tuple[tuple[tuple, ...], ...]
    lhs: tuple[tuple, ...]
    rhs: tuple[tuple, ...]
    tied: tuple[bool, ...]
    size: int
    phantom: Optional[int]
    counts: tuple[int, ...]
    beside_last: tuple[tuple[int, ...], tuple[int, ...]]


def _factor(words: list) -> list:
    """Terms, fewer where possible, whose sum is the sum of ``words`` (one shape).

    The largest class of words with a common left or right operand, R(w)
    counting as w times the phantom, becomes one product whose other
    operand is the factored sum of theirs: sum u_i v = (sum u_i) v.  Classes
    are taken, the first largest first, until none has two words.  A class
    is keyed by its words with the other operand replaced by None.
    """
    terms = []
    while words:
        classes: dict = {}
        for w in words:
            if not isinstance(w, int):
                classes.setdefault((w[0], None), []).append(w)
                if w[0] != "R":
                    classes.setdefault((None, w[1]), []).append(w)
        key, shared = max(classes.items(), key=lambda kv: len(kv[1]), default=(None, ()))
        if len(shared) < 2:
            return terms + words
        words = [w for w in words if w not in shared]
        hole = key.index(None)
        inner = _factor([w[hole] for w in shared])
        inner = inner[0] if len(inner) == 1 else ("+", *inner)
        terms.append((inner, key[1]) if hole == 0 else (key[0], inner))
    return terms


def _schedule(slots: int, lhs_words, rhs_words, groups=()) -> _Schedule:
    ids: dict = {s: s for s in range(slots)}
    depth = list(range(slots))
    steps: list[list] = [[] for _ in range(slots)]

    def node(word) -> int:
        if word not in ids:
            if word[0] == "+":
                left, right = None, tuple(map(node, word[1:]))
            elif word[0] == "R":
                if "R" not in ids:  # the phantom e_dim, set once per check
                    ids["R"] = len(depth)
                    depth.append(0)
                left, right = node(word[1]), ids["R"]
            else:
                left, right = node(word[0]), node(word[1])
            at = max(depth[c] for c in (right if left is None else (left, right)))
            ids[word] = len(depth)
            depth.append(at)
            steps[at].append((ids[word], left, right))
        return ids[word]

    counts: list = []

    def roots(words) -> tuple:
        by_shape: dict = {}
        for coef, w in words:
            by_shape.setdefault((coef, *_shape(w)), []).append(w)
        terms = [(c, t, p, q, len(ws)) for (c, p, q), ws in by_shape.items() for t in _factor(ws)]
        counts.extend(k for *_, k in terms)
        return tuple((coef, node(t), p, q) for coef, t, p, q, _ in terms)

    lhs, rhs = roots(lhs_words), roots(rhs_words)
    tied = tuple(any(s in g[1:] for g in groups) for s in range(slots))
    if tied[-1]:
        raise AssertionError("the last slot must be a variable of degree one")
    last = slots - 1
    beside = tuple(tuple(dict.fromkeys(s[3 - side] for s in steps[last] if s[side] == last))
                   for side in (2, 1))
    return _Schedule(tuple(map(tuple, steps)), lhs, rhs, tied, len(depth), ids.get("R"),
                     tuple(counts), beside)


def compile_words(arity: int, lhs_words, rhs_words) -> _Schedule:
    """Schedule of signed words over {product, R}, each linear in every variable.

    Linearity in every variable makes a basis-tuple check a proof.
    """
    for _, word in tuple(lhs_words) + tuple(rhs_words):
        if _word_var_counts(word, arity) != [1] * arity:
            raise AssertionError(f"word {word!r} is not linear in each of {arity} variables")
    return _schedule(arity, lhs_words, rhs_words)


# ---------------------------------------------------------------------------
# Staged evaluation of multilinear words at basis tuples
# ---------------------------------------------------------------------------

def _weighted(sched: _Schedule, denom: int, rdenom: int = 1, params: Mapping = {}):
    """The roots as ``(weight, node)`` and their common scale ``L·D^P·E^Q``.

    A root of p products and q R nodes evaluates to D^p E^q times its value;
    its weight coef·L·D^(P-p)·E^(Q-q) is an int that brings it to the scale.
    A coefficient named by a string is looked up in ``params``.
    """
    roots = sched.lhs + sched.rhs
    coefs = [params[c] if type(c) is str else c for c, _, _, _ in roots]
    big_l = lcm(*(c.denominator for c in coefs))
    big_p = max(p for _, _, p, _ in roots)
    big_q = max(q for _, _, _, q in roots)
    weights = tuple(
        (c.numerator * (big_l // c.denominator) * denom ** (big_p - p) * rdenom ** (big_q - q), n)
        for c, (_, n, p, q) in zip(coefs, roots)
    )
    k = len(sched.lhs)
    return weights[:k], weights[k:], big_l * denom**big_p * rdenom**big_q


def _signed_sum(roots, vals) -> dict:
    acc: dict = {}
    for sign, n in roots:
        for k, v in vals[n].items():
            acc[k] = acc.get(k, 0) + sign * v
    return acc


def _times(rows, u: dict, v: dict) -> tuple:
    """The kernel's product u v on ``rows``, as a cell: its (index, int) pairs, zeros kept."""
    vals = [u, v, None]
    _products(rows, ((2, 0, 1),), vals)
    return tuple(vals[2].items())


def _phantom_leaf(rows, leaf: dict, beside) -> tuple[dict, list, Callable]:
    """The phantom leaf {n: 1} standing for the packed ``leaf`` L, n =
    ``len(rows[0])``; a list of ``rows`` that shares them, with a row n, any
    row between empty; and ``fill(vals)``, which adds the cells that products
    by L read at ``vals``: e_x L for x in the support of a node on L's left in
    ``beside``, as row x's last cell, and L e_y for y in that of a node on its
    right, as cell y of row n (R(L) at R's index).  Each is the kernel's
    product on ``rows``; a cell never filled raises when read."""
    n = len(rows[0])
    out = [*rows, *[()] * (n - len(rows)), [None] * n]
    lefts, rights = beside
    row_n = out[n]

    def fill(vals) -> None:
        for u in lefts:
            for x in vals[u]:
                if len(out[x]) == n:
                    out[x] += (_times(rows, {x: 1}, leaf),)
        for v in rights:
            for y in vals[v]:
                if row_n[y] is None:
                    row_n[y] = _times(rows, leaf, {y: 1})

    return {n: 1}, out, fill


def _products(rows, steps, vals) -> None:
    """Set ``vals[n]`` to the sparse int product of its children, or to the
    sum of its terms (zeros dropped), for each step.  A phantom index of
    ``rows`` (R's, or the last slot's leaf's once a block repeats, whose cells
    are filled before they are read) is multiplied as any other."""
    for n, left, right in steps:
        out: dict = {}
        if left is None:
            for t in right:
                for k, v in vals[t].items():
                    out[k] = out.get(k, 0) + v
            vals[n] = {k: v for k, v in out.items() if v}
            continue
        lv, rv = vals[left], vals[right]
        if lv and rv:
            rv = rv.items()
            for x, ux in lv.items():
                row = rows[x]
                for y, uy in rv:
                    c = ux * uy
                    for k, v in row[y]:
                        out[k] = out.get(k, 0) + c * v
        vals[n] = out


def _unscaled(acc: dict, dim: int, scale: int) -> Element:
    """The element with coordinates ``acc[k] / scale`` (a missing key is 0), ints where integral."""
    return Element(tuple(
        Fraction(v, scale) if (v := acc.get(k, 0)) % scale else v // scale for k in range(dim)))


def _failure(indices, inputs, lhs, rhs, vals, dim: int, scale: int) -> Verdict:
    """Failing verdict whose sides are the weighted roots divided by ``scale``."""
    sides = (_unscaled(_signed_sum(r, vals), dim, scale) for r in (lhs, rhs))
    return Verdict.fail(Witness(indices, inputs, *sides))


def _field_width(sched: _Schedule, signed, cmax: int) -> int:
    """Bits per packed field: 2^(width - 1) exceeds every coordinate of the ``signed``
    roots at any basis tuple (module docstring), cmax bounding each cell's l1 norm."""
    roots = sched.lhs + sched.rhs
    bound = sum(abs(w) * k * cmax ** (p + q)
                for (w, _), k, (_, _, p, q) in zip(signed, sched.counts, roots))
    return bound.bit_length() + 1


def _basis_verdict(a: Algebra, sched: _Schedule, rows, order: Sequence[int], cmax: int,
                   lhs, rhs, scale: int, group: Sequence[tuple] = ()) -> Verdict:
    """Check the weighted roots on basis tuples over ``order``, stopping at
    the first failure.

    Every slot runs over ``order``, ascending indices, and tuples run in
    lexicographic order, non-decreasing within each symmetry group of slots.
    ``rows`` are the int structure constants, each row extended by R's
    column when the words apply R; ``cmax`` is the largest l1 norm of a cell
    of ``rows``, R's columns included.  ``check_identity`` passes the
    support, as a tuple holding a null index passes (module docstring), and
    ``check_words`` every index.

    ``group`` lists non-identity elements of the group G of basis
    permutations that preserve the constants, any subset of G.  Orbit
    argument: an automorphism g maps the words' value at t to their value at
    g(t), and the polarized form is symmetric within each slot group, so t
    passes iff sort(g(t)) does, sort ordering each slot group; a pass on the
    lex-min tuple of each orbit of G x (slot symmetry), its representative,
    is a proof.  Only a listed g prunes, below a prefix it maps lower, so
    every representative is checked.  Witness argument: a failing tuple's
    representative fails and comes no later, so the first failing tuple
    checked is the first failing tuple, as without G.  Cost rule:
    ``check_identity`` passes ``Automorphisms.elements`` only for a plan
    with more than ``_TUPLES_PER_UNIT`` tuples per index of the support or
    nonzero constant; ``check_words`` never does, as an automorphism need not
    commute with R.

    A prefix is pruned when some alive g maps it, sorted within its slot
    groups, to a lex-smaller prefix: every tuple below it then has a smaller
    image.  Kept alive below a prefix are the g whose sorted image equals it
    on every completed slot group, since a larger image there stays larger
    below.  Inside an unfinished slot group a larger sorted image can still
    become smaller, so there no g is dropped.  At each prefix the alive g
    are then exactly the listed ones that could map it lower.  With
    ``group`` empty this is the plain loop.

    The alive g fix every completed slot group, so the current run r =
    (a, ..., x) decides.  At a's slot g[a] < a prunes; g[a] = a keeps g if
    r closes.  Else ``hits[y]`` holds the g with g[y] = a and ``low[y]`` the
    least image of y.  At a later x, low[x] < a prunes; a g in no hits[y],
    y in r, maps r above a, so it neither prunes nor stays: only hits sort.

    Packing (module docstring): the last slot's whole run is one leaf
    {run[p]: 2^(width p)}, checked in one pass; the first failing p's tuple is
    evaluated alone for the witness.  It is exact though the block holds
    non-representatives: each representative's prefixes survive, so it is
    checked; and as earlier blocks passed, the first failing tuple t of a
    block has a failing representative r <= t, which lies in no earlier block
    and so in this one at or after its first failing field: r = t, as without G.

    Pairs: with ``group`` empty, once the loop's first block has passed,
    slot last - 1's whole run is packed with the last slot's, one block per
    prefix of the slots before them.  Only the plan (no group) and that pass
    decide it: a verdict that fails in its first block pays for no square,
    and a plan that prunes prefixes keeps slot last - 1's pruning.  The last
    slot is tied to no other and runs over all of ``order``, so a square
    holds exactly the sorted tuples of its prefix and run, its fields in lex
    order: the lowest failing field is the first failing tuple.

    The last slot's leaf L = {order[p]: 2^(width p)} is one value for the
    whole verdict, in a square and in a block at the last slot.  The first
    block at a depth multiplies by L itself; from the second on the leaf is
    {n: 1}, a phantom index n = len(rows[0]) that ``_phantom_leaf`` adds
    after R's.  Cell (x, n) is e_x L and row n holds L e_y, so L e_dim is
    R(L); R's row at dim stays empty.  Before a block's last-depth steps run,
    ``fill`` adds just the cells they read, from the nodes ``beside_last``
    names: associativity never reads row n.  Each cell, zeros kept, is the
    integer the direct loop sums, so packed values and the verdict are
    bit-identical, and one never filled raises when read.  Counting single
    blocks and squares together, so that the first square used the phantom,
    read slower on ``fixture-catalog``.  The rows die with the call, as w
    and R's column change between checks.

    Pruning null indices keeps the orbit argument: automorphisms map the
    support to itself, so the lex-min tuple of an orbit of tuples over the
    support lies over it.
    """
    signed = lhs + tuple((-w, n) for w, n in rhs)
    dim, tied = a.dim, sched.tied
    at = order if len(order) == dim else {i: p for p, i in enumerate(order)}
    last = len(tied) - 1
    width = _field_width(sched, signed, cmax)
    start = [0] * len(tied)  # first slot of each slot's group
    for d in range(1, len(tied)):
        start[d] = start[d - 1] if tied[d] else d
    vals: list = [None] * sched.size
    if sched.phantom is not None:
        vals[sched.phantom] = {dim: 1}
    tup = [0] * len(tied)
    low, hits = [None] * len(tied), [None] * len(tied)  # kept at each run's first slot
    n2 = len(order)
    pair = False  # set once a block has passed without G
    leaf = phantom = fill = None  # L, then its phantom leaf once a block repeats
    prior = None  # the depth of the last block that multiplied by L

    def block(d: int, run) -> bool:
        """Check slot ``d``'s ``run`` in one pass, and with it the last slot's
        whole ``order`` when d = last - 1; True at the first failure, its
        indices set in ``tup``."""
        nonlocal rows, leaf, phantom, fill, prior
        if d < last:
            vals[d] = {i: 1 << width * n2 * p for p, i in enumerate(run)}
            _products(rows, sched.steps[d], vals)
        if d != prior:  # a first block at its depth multiplies by L itself
            if leaf is None:
                leaf = {i: 1 << width * p for p, i in enumerate(order)}
            vals[last], prior = leaf, d
        else:
            if phantom is None:
                phantom, rows, fill = _phantom_leaf(rows, leaf, sched.beside_last)
            fill(vals)
            vals[last] = phantom
        _products(rows, sched.steps[last], vals)
        bits = reduce(or_, _signed_sum(signed, vals).values(), 0)
        if bits:
            field = ((bits & -bits).bit_length() - 1) // width
            if d < last:
                field, q = divmod(field, n2)
                tup[last] = order[q]
            tup[d] = run[field]
        return bool(bits)

    def survivors(d: int, alive):
        """The elements alive below the prefix ``tup[:d + 1]``, or None to prune it."""
        s, closed = start[d], not tied[d + 1]
        a = tup[s]
        if s == d:  # a run's first index: compare g[a] with a, sort nothing
            kept, hits[d] = [], {}
            for g in alive:
                if g[a] < a:
                    return None
                if not closed:
                    hits[d].setdefault(g.index(a), []).append(g)
                elif g[a] == a:
                    kept.append(g)
            return kept if closed else alive
        if low[s][tup[d]] < a:
            return None
        run, kept = tup[s:d + 1], []
        for y in dict.fromkeys(run):
            for g in hits[s].get(y, ()):
                image = sorted([g[x] for x in run])
                if image < run:
                    return None
                if image == run:
                    kept.append(g)
        return kept if closed else alive

    def loop(d: int, alive) -> bool:
        """Run slot ``d`` and the slots after it; True at the first failure."""
        nonlocal pair
        if alive and not tied[d] and d < last and tied[d + 1]:
            low[d] = [min(c) for c in zip(*alive)]
        run = order[at[tup[d - 1]]:] if tied[d] else order
        if d == last or pair and d == last - 1:
            return block(d, run)
        for i in run:
            tup[d] = i
            below = alive and survivors(d, alive)
            if below is None:
                continue
            vals[d] = {i: 1}
            _products(rows, sched.steps[d], vals)
            if loop(d + 1, below):
                return True
            if not group and d == last - 1:  # the first block passed: pair the rest
                pair = True
                return block(d, run[1:])
        return False

    failed = loop(0, tuple(group))
    del loop  # empties the closure cell through which loop calls itself: no cycle
    if not failed:
        return Verdict.ok()
    for d in range(max(last - 1, 0), last + 1):  # the witness, evaluated alone
        vals[d] = {tup[d]: 1}
        _products(rows, sched.steps[d], vals)
    inputs = tuple(a.basis_vector(i) for i in tup)
    return _failure(tuple(tup), inputs, lhs, rhs, vals, dim, scale)


# Tuples per basis index or nonzero constant above which a plan uses the
# group.  On fresh M4, M5, commutator(M5) and M6 in shuffled matrix-unit bases
# (2-core x86-64, Python 3.11; the search 17-34 us per index or constant, the
# packed loop 0.4-2.4 us per tuple), the catalog suite took 0.056 s at 8 or
# 16, 0.085 s at 32, 0.15 s at 64 and 0.87 s without the group.
_TUPLES_PER_UNIT = 16


def check_identity(a: Algebra, name: str) -> Verdict:
    """Exact verdict: does the named identity hold for all elements of ``a``?

    Multilinear identities are checked directly on basis tuples; the others
    through their polarized multilinear form.  A failing verdict carries
    the lexicographically first failing basis tuple: tuples run non-decreasing
    within each symmetry group, where the polarized form is symmetric.
    Every slot runs over ``Algebra.support``: a tuple holding a null index
    passes.  A plan with more than ``_TUPLES_PER_UNIT`` tuples per index of
    the support or nonzero constant skips the prefixes that a listed
    automorphism of the constants maps lower (see ``_basis_verdict``).
    """
    plan = polarized_plan(name)
    sched = _plan_schedule(name)
    rows, denom, cmax = a.integer_rows
    n = len(a.support)
    tuples = prod(comb(n + d - 1, d) for d in plan.identity.multidegree)
    size = n + len(a.entries)
    group = a.automorphisms.elements if tuples > _TUPLES_PER_UNIT * size else ()
    return _basis_verdict(a, sched, rows, a.support, cmax, *_weighted(sched, denom), group)


def check_words(
    a: Algebra, integer_columns: tuple[tuple, int, int], sched: _Schedule, params: Mapping
) -> Verdict:
    """Exact verdict for the compiled words, R given by its ``integer_columns``.

    ``params`` gives the coefficients named in the words.  A failing verdict
    carries the lexicographically first failing basis tuple.  Every slot runs
    over every index: R need not vanish off the support, and a side may be a
    bare leaf.
    """
    rows, denom, norm = a.integer_rows
    cols, rdenom, rnorm = integer_columns
    rows = tuple(row + (col,) for row, col in zip(rows, cols))
    cmax = max(norm, rnorm)
    return _basis_verdict(a, sched, rows, range(a.dim), cmax,
                          *_weighted(sched, denom, rdenom, params))


# ---------------------------------------------------------------------------
# Raw identity words, and element-level evaluation of derived products
# ---------------------------------------------------------------------------

@cache
def _raw_schedule(name: str) -> _Schedule:
    """The identity's own words (not polarized), compiled once."""
    ident = get_identity(name)
    return _schedule(len(ident.variables), ident.lhs, ident.rhs)


def _eval_word_elements(a: Algebra, sched: _Schedule, elems: Sequence[Element],
                        apply: Optional[Callable], params: Mapping) -> Element:
    """The signed sum of the compiled words at ``elems``, R being ``apply``.

    The words are the schedule's lhs, as ``compile_words(arity, words, ())``
    gives them.  Each subword is one node of the schedule, evaluated once
    however many words share it.  A coefficient is an int, a Fraction or a
    name looked up in ``params``.
    """
    vals = [*elems, *[None] * (sched.size - len(elems))]
    for n, left, right in itertools.chain.from_iterable(sched.steps):
        if left is None:
            vals[n] = sum((vals[t] for t in right[1:]), vals[right[0]])
        elif right == sched.phantom:
            vals[n] = apply(vals[left])
        else:
            vals[n] = a.product(vals[left], vals[right])
    acc = None
    for coef, n, _, _ in sched.lhs:
        c = params[coef] if type(coef) is str else coef
        if acc is None:
            acc = vals[n] if c == 1 else c * vals[n]
        elif c == -1:
            acc = acc - vals[n]
        else:
            acc = acc + (vals[n] if c == 1 else c * vals[n])
    return acc


# A coordinate is drawn as CPython's randint(-6, 6) and randrange(4) draw it:
# getrandbits(4) until it is below 13, then getrandbits(3) until it is below
# 4.  Each call reads one 32-bit word of MT19937 and keeps its top bits, so a
# word's top byte decides what it gives.  No draw takes a byte from 0xD0 on:
# those are dropped, and a kept byte is read by its top nibble v.  A num word
# takes any v and gives v - 6; a quarter word takes v < 8, and it is 0,
# halving an odd num, when its byte is below 0x20.
_NEVER_TAKEN = bytes(range(0xD0, 0x100))
_TOP_NIBBLE = bytes(b >> 4 for b in range(256))
_COORD = re.compile(rb"([\x00-\x0c])[\x08-\x0c]*([\x00-\x07])")
# the doubled coordinate of the code n | q << 4 of a num nibble n and a
# quarter nibble q (the code is below 0x20 when the quarter's byte is), as a
# signed byte
_DOUBLED = bytes((num if c < 0x20 and num % 2 else 2 * num) & 0xFF
                 for c in range(256) for num in [(c & 15) - 6])
# the coordinate h / 2 of a doubled one, an int where integral
_HALVES = {h: Fraction(h, 2) if h % 2 else h // 2 for h in range(-12, 13)}
# the most coordinates that a chunk of trials, or one read of the generator, is for
_CHUNK_COORDS = 1 << 12


class _Drawer:
    """Doubled random coordinates, in [-6, 6] and halved when odd and
    ``randrange(4)`` (drawn every time) gives 0, read from ``rng`` in bulk.

    One ``getrandbits(32 k)`` gives k words, word i being bits 32 i to
    32 i + 31, so the top bytes of its ``to_bytes`` are every fourth byte.
    Their nibbles, the bytes no draw takes dropped, are split by ``_COORD``
    into a num and a quarter nibble per coordinate, the rejected quarter
    words between them dropped too.  The nibbles after the last whole
    coordinate, and the coordinates past a take, wait for the next take, so
    successive takes read the stream of ``randint``/``randrange`` exactly
    (``test_drawer_takes_continue_the_randint_stream`` and
    ``test_random_element_stream_is_pinned`` pin it).  A read may run past
    the last coordinate taken: the drawer leaves ``rng`` anywhere.
    """

    __slots__ = ("_getrandbits", "_tail", "_coords")

    def __init__(self, rng: random.Random):
        self._getrandbits = rng.getrandbits
        self._tail = b""
        self._coords: list = []

    def take(self, n: int) -> list:
        """The next ``n`` doubled coordinates, as ints."""
        coords = self._coords
        while len(coords) < n:
            # a coordinate takes 16/13 + 2 words on average: one read mostly does
            words = min(n - len(coords), _CHUNK_COORDS) * 7 // 2 + 8
            top = self._getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
            parts = _COORD.split(self._tail + top.translate(_TOP_NIBBLE, _NEVER_TAKEN))
            self._tail = parts.pop()
            # matches abut, as any kept nibble is a num, so the parts join into the
            # pairs' nibbles n, q in turn; n | q << 4 lands in every other byte
            pairs = int.from_bytes(b"".join(parts), "little")
            codes = (pairs | pairs >> 4).to_bytes(len(parts) // 3 * 2, "little")[::2]
            coords += memoryview(codes.translate(_DOUBLED)).cast("b").tolist()
        self._coords = coords[n:]
        del coords[n:]
        return coords


@lru_cache(maxsize=256)
def _raw_weighted(name: str, denom: int):
    """``_weighted`` for the raw identity's words, constants scaled by ``denom``."""
    return _weighted(_raw_schedule(name), denom)


def check_identity_random(a: Algebra, name: str, trials: int, seed: int) -> Verdict:
    """Evaluate the raw identity at pseudo-random elements; deterministic per seed.

    The elements are the drawer's doubled coordinates, and the structure
    constants are scaled by their lcm D, so both sides (m leaves, m - 1
    products) carry 2^m D^(m-1) and compare exactly in int; a witness is
    scaled back.  A ``_Drawer`` of ``random.Random(seed)`` gives the trials'
    coordinates, those of ``randint``/``randrange``, a chunk of trials at a
    time: 1 trial, then 4, 16, ..., up to the whole trials that
    ``_CHUNK_COORDS`` coordinates hold (one at least).  A verdict that fails
    at its first trial takes that trial's draws only, and any trial count
    runs in bounded memory, as the drawer reads the words of at most
    ``_CHUNK_COORDS`` coordinates at once.

    The draws are dense, so the words run on ``Algebra.integer_product``, a
    product compiled per algebra that sums every term of its support; the
    polarized engine's leaves are basis vectors, one or a packed few, and
    its ``_products`` visits only their nonzero cells.  Every leaf of a
    catalog word sits under a product, so the words read a draw only on the
    support, the indices that some nonzero constant names, and a side is zero
    off it; a witness's inputs are the full draws.  With an empty support no
    trial can fail, and nothing is drawn.
    """
    if trials < 1:
        raise NonassocError("trials must be >= 1")
    if seed < 0:
        raise NonassocError("seed must be >= 0")
    ident = get_identity(name)
    arity = len(ident.variables)
    sched = _raw_schedule(name)
    support = a.support
    if not support:
        return Verdict.ok()
    prod = a.integer_product
    steps = sum(sched.steps, ())
    lhs, rhs, scale = _raw_weighted(name, a.integer_rows[1])
    dim = a.dim
    whole = len(support) == dim
    width = arity * dim  # coordinates per trial
    vals: list = [None] * sched.size
    drawer = _Drawer(random.Random(seed))
    remaining, chunk = trials, 1
    while remaining:
        count = min(chunk, remaining)
        remaining -= count
        chunk = min(4 * chunk, max(1, _CHUNK_COORDS // width))
        coords = drawer.take(count * width)
        for start in range(0, count * width, width):
            for s, o in enumerate(range(start, start + width, dim)):
                vals[s] = coords[o:o + dim] if whole else [coords[o + k] for k in support]
            for n, left, right in steps:
                if left is None:
                    vals[n] = [sum(c) for c in zip(*(vals[t] for t in right))]
                else:
                    vals[n] = prod(vals[left], vals[right])
            sides = [_weighted_list(roots, vals, len(support)) for roots in (lhs, rhs)]
            if sides[0] != sides[1]:
                # each of the m doubled leaves carries a factor 2
                scale <<= sum(ident.multidegree)
                inputs = tuple(Element(tuple(map(_HALVES.__getitem__, coords[o:o + dim])))
                               for o in range(start, start + width, dim))
                lhs_e, rhs_e = (_unscaled(dict(zip(support, side)), dim, scale) for side in sides)
                return Verdict.fail(Witness((), inputs, lhs_e, rhs_e))
    return Verdict.ok()


def _weighted_list(roots, vals, size: int) -> list:
    """The sum of weight times ``vals[node]`` over the weighted ``roots``, entrywise."""
    if not roots:
        return [0] * size
    (w, n), *rest = roots
    out = vals[n] if w == 1 else [w * v for v in vals[n]]
    for w, n in rest:
        out = [u + w * v for u, v in zip(out, vals[n])]
    return out


# ---------------------------------------------------------------------------
# Parametric certification over product grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    """Declared behaviour of one rational parameter of a fixture family.

    ``degree`` is the maximum degree of any certified check in this
    parameter (after clearing denominators), declared by the family;
    ``exclude`` lists values where the family is undefined; ``axis`` is the
    certification axis.  Making a spec reads the axis through ``as_scalar``,
    so ``"1"`` and ``"2/2"`` are one value, and raises ``GridError`` unless it
    has more than ``degree`` distinct values, none repeated and none excluded.
    """

    name: str
    degree: int
    axis: tuple[Scalar, ...]
    exclude: tuple[Scalar, ...] = ()

    def __post_init__(self):
        try:
            axis = tuple(map(as_scalar, self.axis))
        except (TypeError, ValueError) as exc:
            raise GridError(f"grid for parameter {self.name}: {exc}") from None
        distinct = set(axis)
        if len(distinct) < self.degree + 1:
            raise GridError(
                f"grid for parameter {self.name} has {len(distinct)} distinct values; "
                f"declared degree {self.degree} needs at least {self.degree + 1}"
            )
        if len(distinct) < len(axis):
            repeated = next(v for i, v in enumerate(axis) if v in axis[:i])
            raise GridError(
                f"grid for parameter {self.name} repeats the value {format_scalar(repeated)}"
            )
        bad = distinct.intersection(self.exclude)
        if bad:
            raise GridError(
                f"grid for parameter {self.name} contains excluded values "
                f"{sorted(format_scalar(b) for b in bad)}"
            )
        object.__setattr__(self, "axis", axis)


@dataclass(frozen=True)
class ParametricVerdict:
    """Verdict of a grid certification, with the failing point when any."""

    passed: bool
    failing_point: Optional[dict] = None
    inner: Optional[Verdict] = None
    points_checked: int = 0

    def __bool__(self) -> bool:
        return self.passed


def certify_parametric(
    params: Sequence[ParamSpec], check: Callable[[dict], Verdict]
) -> ParametricVerdict:
    """Certify a polynomial check over all rational parameter values.

    ``check`` maps a point, a dict from each name in ``params`` to a value,
    to a Verdict.  It is run at every point of the product of the declared
    axes.  A polynomial of degree at most d in each variable that vanishes
    on a grid of d+1 distinct values per variable vanishes identically
    (Alon, Combinatorial Nullstellensatz, Lemma 2.1), and each axis has
    more than its ``degree`` distinct values (checked when its spec was
    made), so a pass certifies the check for all rational parameter values
    off the excluded ones.
    """
    count = 0
    for combo in itertools.product(*(p.axis for p in params)):
        point = {p.name: v for p, v in zip(params, combo)}
        verdict = check(point)
        count += 1
        if not verdict:
            return ParametricVerdict(False, point, verdict, count)
    return ParametricVerdict(True, None, None, count)
