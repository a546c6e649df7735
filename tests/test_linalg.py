import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from genalgebras import mat_vec
from nonassoc.linalg import SpanSolver, identity, rref, solve_affine
from nonassoc.scalars import canonical

small_matrix = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=1,
            max_size=5,
        ),
    )
)


@given(small_matrix)
@settings(max_examples=60)
def test_rref_transform_consistency(data):
    n, rows = data
    r, t, pivots = rref(rows)
    # T @ rows == R, exactly
    for i in range(len(rows)):
        got = [sum(t[i][k] * rows[k][j] for k in range(len(rows))) for j in range(n)]
        assert got == r[i]
    # pivot columns carry leading ones with zeros elsewhere
    for row_idx, pc in enumerate(pivots):
        assert r[row_idx][pc] == 1
        for other in range(len(rows)):
            if other != row_idx:
                assert r[other][pc] == 0


@given(small_matrix)
@settings(max_examples=60)
def test_nullspace_vectors_annihilate(data):
    n, rows = data
    for v in solve_affine(rows, [0] * len(rows))[1]:
        assert all(sum(row[j] * v[j] for j in range(n)) == 0 for row in rows)


def test_solve_affine_exact_known_system():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    sol, hom = solve_affine([[1, 1], [1, -1]], [3, 1])
    assert sol == [2, 1]
    assert hom == []


def test_solve_affine_inconsistent():
    sol, hom = solve_affine([[1, 1], [1, 1]], [0, 1])
    assert sol is None


def test_solve_affine_underdetermined():
    sol, hom = solve_affine([[1, 1, 0]], [2])
    assert sol is not None
    assert len(hom) == 2
    rng = random.Random(0)
    for _ in range(20):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in hom]
        x = [sol[j] + sum(ci * h[j] for ci, h in zip(c, hom)) for j in range(3)]
        assert x[0] + x[1] == 2


def test_span_solver_roundtrip():
    cols = [[1, 0, 2], [0, 1, 1]]
    s = SpanSolver(cols)
    assert s.independent
    c = s.coordinates([3, 5, 11])
    assert c == [3, 5]
    assert s.coordinates([1, 0, 0]) is None
    res = s.residual([1, 0, 0])
    assert any(x != 0 for x in res)


def test_span_solver_detects_dependence():
    s = SpanSolver([[1, 2], [2, 4]])
    assert not s.independent


def test_solve_affine_fractions_stay_exact():
    sol, hom = solve_affine([[Fraction(3), 0], [0, Fraction(2, 1)]], [1, Fraction(4, 2)])
    assert [(type(x), x) for x in sol] == [(Fraction, Fraction(1, 3)), (int, 1)]
    assert hom == []
    # an entry no row operation touches is canonicalized too
    sol, hom = solve_affine([[1, 0]], [Fraction(2, 1)])
    assert [(type(x), x) for x in sol] == [(int, 2), (int, 0)]
    assert hom == [[0, 1]]
    assert identity(2) == [[1, 0], [0, 1]]


def _solve_affine_oracle(mat, rhs):
    """The solution set from rref(mat), T @ rhs and a nullspace from R."""
    r, t, pivots = rref(mat)
    b = mat_vec(t, rhs)
    if any(b[len(pivots):]):
        return None, []
    n_cols = len(mat[0])
    x = [0] * n_cols
    for row_idx, pc in enumerate(pivots):
        x[pc] = b[row_idx]
    basis = []
    for free in range(n_cols):
        if free not in pivots:
            v = [0] * n_cols
            v[free] = 1
            for row_idx, pc in enumerate(pivots):
                v[pc] = canonical(-r[row_idx][free])
            basis.append(v)
    return x, basis


@given(st.data())
@settings(max_examples=80)
def test_solve_affine_matches_oracle(data):
    n, rows = data.draw(small_matrix)
    mat = [[data.draw(_mixed_scalar) if x else 0 for x in row] for row in rows]
    if data.draw(st.booleans()):  # a consistent system: rhs = mat @ x
        x = data.draw(st.lists(_mixed_scalar, min_size=n, max_size=n))
        rhs = [canonical(sum(a * b for a, b in zip(row, x))) for row in mat]
    else:
        rhs = data.draw(st.lists(_mixed_scalar, min_size=len(mat), max_size=len(mat)))
    got = solve_affine(mat, rhs)
    want = _solve_affine_oracle(mat, rhs)
    assert repr(got) == repr(want)
    assert solve_affine(mat, [0] * len(mat))[1] == _solve_affine_oracle(mat, [0] * len(mat))[1]


def _coordinates_oracle(columns, v):
    """Span coordinates by a full transform application and a reconstruction check."""
    mat = [[col[i] for col in columns] for i in range(len(columns[0]))]
    _, t, pivots = rref(mat)
    w = mat_vec(t, v)
    c = [0] * len(columns)
    for row_idx, pc in enumerate(pivots):
        c[pc] = w[row_idx]
    rebuilt = [canonical(sum(c[j] * col[i] for j, col in enumerate(columns)))
               for i in range(len(v))]
    return c if rebuilt == [canonical(x) for x in v] else None


_mixed_scalar = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


def _typed(vec):
    return None if vec is None else [(type(x), x) for x in vec]


@given(st.data())
@settings(max_examples=60)
def test_span_solver_coordinates_match_oracle(data):
    dim = data.draw(st.integers(1, 5))
    vector = st.lists(_mixed_scalar, min_size=dim, max_size=dim)
    columns = data.draw(st.lists(vector, min_size=1, max_size=dim))
    if data.draw(st.booleans()):  # force a rank-deficient column set
        weights = data.draw(st.lists(_mixed_scalar, min_size=len(columns),
                                     max_size=len(columns)))
        columns.append([sum(w * col[i] for w, col in zip(weights, columns))
                        for i in range(dim)])
    solver = SpanSolver(columns)
    weights = data.draw(st.lists(_mixed_scalar, min_size=len(columns),
                                 max_size=len(columns)))
    inside = [sum(w * col[i] for w, col in zip(weights, columns)) for i in range(dim)]
    for v in (inside, data.draw(vector)):
        c = solver.coordinates(v)
        assert (c is not None) == all(x == 0 for x in solver.residual(v))
        assert _typed(c) == _typed(_coordinates_oracle(columns, v))
        if c is not None:
            assert solver.reconstruct(c) == [canonical(x) for x in v]
    assert solver.coordinates(inside) is not None
