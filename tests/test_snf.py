import itertools
import random
import time
from math import gcd

import pytest

from ghom import Graph, complete_graph, cycle_graph, product
from ghom.groupoid import (
    Generator,
    Presentation,
    Word,
    _presented_component,
    abelian_invariants,
    fundamental_group_presentation,
)
from ghom.snf import RowLattice, _sparse_invariants, diagonal, smith_normal_form
from conftest import dense_row, random_graph, reference_relator_walks, reference_smith_normal_form, sparse_row


def sparse(row):
    """A dense row as the {column: nonzero entry} row `RowLattice` takes."""
    return {j: x for j, x in enumerate(row) if x}


def minors_gcd(rows, k):
    # determinantal divisor oracle: gcd of all k x k minors
    m, n = len(rows), len(rows[0])
    g = 0
    for ri in itertools.combinations(range(m), k):
        for ci in itertools.combinations(range(n), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, det(sub))
    return g


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(sub)
    return total


def invariant_factors_oracle(rows):
    m, n = len(rows), len(rows[0])
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        d = minors_gcd(rows, k)
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def test_known_matrix():
    assert diagonal(smith_normal_form([[2, 0], [0, 2], [1, 1]])) == [1, 2]


def test_single_loop_relators():
    # tau^2 and tau^4 rows over one generator
    rank, torsion = RowLattice([sparse(r) for r in [[2], [4]]], 1).invariants()
    assert (rank, torsion) == (0, [2])


def test_empty_matrix():
    assert RowLattice([], 3).invariants() == (3, [])
    assert RowLattice([sparse(r) for r in [[0, 0]]], 2).invariants() == (2, [])


def test_divisibility_chain_random():
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        s = smith_normal_form([r[:] for r in rows])
        diag = diagonal(s)
        for i in range(len(diag)):
            assert diag[i] >= 0
            for j in range(n):
                if j != i and i < len(s) and j < len(s[0]):
                    assert s[i][j] == 0 or i == j
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert nonzero == invariant_factors_oracle(rows)


def test_diagonal_matches_sympy_smith_normal_form():
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(45)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:
            # rank-deficient: append a combination of two rows
            rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])
        oracle = sympy_snf(Matrix(rows), domain=ZZ)
        expected = [abs(int(oracle[i, i])) for i in range(min(oracle.shape))]
        assert diagonal(smith_normal_form([r[:] for r in rows])) == expected
    # dense blocks with no unit entry, on which minimal-pivot elimination ran
    # for more than a minute at 30 x 20
    elapsed = 0.0
    for m, n in ((12, 12), (30, 20)) * 3:
        rows = dense_random_rows(rng, m, n, NO_UNIT_ENTRIES)
        oracle = sympy_snf(Matrix(rows), domain=ZZ)
        expected = [abs(int(oracle[i, i])) for i in range(min(oracle.shape))]
        start = time.perf_counter()
        got = diagonal(smith_normal_form([r[:] for r in rows]))
        invariants = _sparse_invariants([sparse(r) for r in rows], n)
        elapsed += time.perf_counter() - start
        assert got == expected
        assert invariants == sympy_invariants(rows, n)
    assert elapsed < 5.0


def test_invariants_independent_of_row_and_column_shuffles():
    rng = random.Random(43)
    rows = [[2, 4, 0], [0, 6, 2], [2, 2, 2]]
    base = RowLattice([sparse(r) for r in rows], 3).invariants()
    for _ in range(10):
        shuffled = [row[:] for row in rows]
        rng.shuffle(shuffled)
        perm = list(range(3))
        rng.shuffle(perm)
        shuffled = [[row[j] for j in perm] for row in shuffled]
        assert RowLattice([sparse(r) for r in shuffled], 3).invariants() == base


def lattice_member_oracle(rows, vec, bound=6):
    # brute force small integer combinations
    if not rows:
        return all(x == 0 for x in vec)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(rows)):
        combo = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(len(vec))]
        if combo == list(vec):
            return True
    return False


def test_row_lattice_membership_against_brute_force():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        lat = RowLattice([sparse(r) for r in rows], n)
        for _ in range(8):
            if rng.random() < 0.5:
                coeffs = [rng.randint(-3, 3) for _ in range(m)]
                vec = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(n)]
                assert lat.contains(vec)
            else:
                vec = [rng.randint(-4, 4) for _ in range(n)]
                assert lat.contains(vec) == lattice_member_oracle(rows, vec)


def test_residue_separates_cosets():
    lat = RowLattice([sparse(r) for r in [[2, 0], [0, 3]]], 2)
    assert lat.residue([0, 0]) == lat.residue([2, 3])
    assert lat.residue([1, 0]) != lat.residue([0, 0])
    assert lat.residue([5, 7]) == lat.residue([1, 1])


def test_residue_is_constant_on_cosets_random():
    rng = random.Random(46)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        lat = RowLattice([sparse(r) for r in rows], n)
        zero = lat.residue([0] * n)
        for _ in range(6):
            # zero, dense, and the one- or two-letter vectors of short walk words
            vec = [rng.randint(-4, 4) for _ in range(n)]
            if rng.random() < 0.2:
                vec = [0] * n
            elif rng.random() < 0.6:
                vec = [0] * n
                for j in rng.sample(range(n), min(n, rng.randint(1, 2))):
                    vec[j] = rng.choice((-2, -1, 1, 2))
            coeffs = [rng.randint(-3, 3) for _ in range(m)]
            shifted = [x + sum(c * row[j] for c, row in zip(coeffs, rows)) for j, x in enumerate(vec)]
            assert lat.residue(vec) == lat.residue(shifted)
            assert lat.contains(vec) == (lat.residue(vec) == zero)
            assert lat.contains(shifted) == lat.contains(vec)


def test_row_lattice_rejects_columns_out_of_range():
    with pytest.raises(ValueError, match="outside range"):
        RowLattice([{0: 1, 1: 2}, {2: 1}], 2)
    with pytest.raises(ValueError, match="outside range"):
        RowLattice([{-1: 1}], 2)


def test_row_lattice_ignores_explicit_zero_entries():
    lat, zero_free = RowLattice([{0: 0, 1: 2}], 2), RowLattice([{1: 2}], 2)
    for vec in ([1, 1], [0, 2], [3, -1], [0, 0]):
        assert lat.residue(vec) == zero_free.residue(vec)
        assert lat.contains(vec) == zero_free.contains(vec)
    assert lat.invariants() == zero_free.invariants() == (1, [2])
    rng = random.Random(58)
    for kind in MATRIX_KINDS:
        rows, n = seeded_matrix(rng, kind)
        lat, zero_free = RowLattice([dict(enumerate(r)) for r in rows], n), RowLattice([sparse(r) for r in rows], n)
        for _ in range(6):
            vec = [rng.randint(-6, 6) for _ in range(n)]
            assert lat.residue(vec) == zero_free.residue(vec)
            assert lat.contains(vec) == zero_free.contains(vec)
        assert lat.invariants() == zero_free.invariants()


def test_residue_with_no_relators():
    lat = RowLattice([], 2)
    assert lat.residue([3, -1]) == (3, -1)
    assert lat.contains([0, 0])
    assert not lat.contains([1, 0])


# -- unit-pivot elimination against the frozen dense Smith form --------------------


def dense_invariants(rows, width):
    diag = diagonal(reference_smith_normal_form([r[:] for r in rows])) if rows else []
    nonzero = [d for d in diag if d]
    return width - len(nonzero), [d for d in nonzero if d > 1]


NO_UNIT_ENTRIES = (0, 2, -2, 3, -3, 4, -6)
MATRIX_KINDS = ("width 1", "no rows", "no unit entry", "zero rows", "dependent rows", "relator-like")


def seeded_matrix(rng, kind):
    """A small integer matrix of the given kind, as (rows, width)."""
    n = 1 if kind == "width 1" else rng.randint(1, 8)
    m = 0 if kind == "no rows" else rng.randint(1, 8)
    if kind == "no unit entry":
        entries = (0,) + NO_UNIT_ENTRIES
    elif kind == "relator-like":
        entries = (0, 0, 0, 0, 1, -1, 1, -1, 2)
    else:
        entries = tuple(range(-5, 6))
    rows = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
    if kind == "zero rows":
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), [0] * n)
    if kind == "dependent rows":
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.insert(rng.randint(0, len(rows)), [ca * x + cb * y for x, y in zip(a, b)])
    return rows, n


def test_unit_pivot_invariants_match_dense_smith_form():
    rng = random.Random(47)
    for i in range(1200):
        kind = MATRIX_KINDS[i % len(MATRIX_KINDS)]
        rows, n = seeded_matrix(rng, kind)
        if kind == "no unit entry":
            assert all(abs(x) != 1 for row in rows for x in row)
        want = dense_invariants(rows, n)
        assert _sparse_invariants([sparse(r) for r in rows], n) == want, (kind, rows)
        assert RowLattice([sparse(r) for r in rows], n).invariants() == want, (kind, rows)


def sympy_invariants(rows, width):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    # a row and its negative span the same lattice: keep one of each
    rows = sorted({max(tuple(r), tuple(-x for x in r)) for r in rows if any(r)})
    if not rows:
        return width, []
    s = sympy_snf(Matrix(rows), domain=ZZ)
    nonzero = [abs(int(s[i, i])) for i in range(min(s.shape)) if s[i, i]]
    return width - len(nonzero), [d for d in nonzero if d > 1]


def test_abelian_invariants_with_no_unit_exponent_sum():
    # exponent sums from [-9, 9] without +-1 leave unit-pivot elimination
    # nothing to do: the whole 12 x 12 block goes to the Smith form, which
    # took 16 s by minimal-pivot elimination
    rng = random.Random(57)
    entries = [x for x in range(-9, 10) if abs(x) != 1]
    rows = [[rng.choice(entries) for _ in range(12)] for _ in range(12)]
    relators = tuple(Word(tuple((i, 1 if e > 0 else -1) for i, e in enumerate(row) for _ in range(abs(e))))
                     for row in rows)
    p = Presentation(tuple(Generator(f"e{i + 1}", None) for i in range(12)), relators, "0")
    start = time.perf_counter()
    got = abelian_invariants(p)
    assert time.perf_counter() - start < 5.0
    assert (got.rank, list(got.torsion)) == sympy_invariants(rows, 12)


def king_grid(m, n, loops=False):
    vs = [f"k{i}_{j}" for i in range(m) for j in range(n)]
    es = [(f"k{i}_{j}", f"k{a}_{b}") for i in range(m) for j in range(n)
          for a, b in ((i, j + 1), (i + 1, j - 1), (i + 1, j), (i + 1, j + 1)) if a < m and 0 <= b < n]
    return Graph(vs, es + ([(v, v) for v in vs] if loops else []))


def wheel_graph(n):
    rim = [f"r{i}" for i in range(n)]
    return Graph(["h"] + rim, [(rim[i], rim[(i + 1) % n]) for i in range(n)] + [("h", r) for r in rim])


def relator_matrix_graphs():
    rng = random.Random(48)
    graphs = [complete_graph(n) for n in range(3, 8)]
    graphs += [product(cycle_graph(a), cycle_graph(b)) for a, b in ((3, 3), (3, 4), (4, 4), (3, 5), (5, 5))]
    graphs += [wheel_graph(n) for n in range(4, 10)]
    graphs += [king_grid(m, n, loops=True) for m, n in ((2, 2), (2, 3), (3, 3), (2, 4))]
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.6))
        loops = [(v, v) for v in g.vertices if rng.random() < 0.5]
        graphs.append(Graph(g.vertices, list(g.edges) + loops))
    return graphs


def test_unit_pivot_invariants_match_sympy_on_relator_matrices():
    checked = 0
    for g in relator_matrix_graphs():
        for v in (c[0] for c in g.components()):
            modes = (False, True) if g.is_looped(v) else (False,)
            for looped in modes:
                table, relators = _presented_component(g, v, looped)
                width = len(table.generators)
                rows = [dense_row(w, width) for w in relators]
                assert RowLattice([sparse(r) for r in rows], width).invariants() == sympy_invariants(rows, width)
                checked += 1
    assert checked >= 300


def test_one_relator_per_4_cycle_keeps_the_invariants():
    # K4-K12 and the tori and looped king grids of the present benchmark:
    # sympy's Smith form of the kept relators, and the invariants of the
    # words of every closed 4-walk, agree with the presentation's
    graphs = [complete_graph(n) for n in range(4, 13)]
    tori = [(3, n) for n in range(3, 12)] + [(5, n) for n in range(3, 9)]
    graphs += [product(cycle_graph(m), cycle_graph(n)) for m, n in tori]
    graphs += [king_grid(m, n, loops=True) for m, n in ((3, 3), (2, 4), (2, 3))]
    for g in graphs:
        v = g.vertices[0]
        p = fundamental_group_presentation(g, v)
        width = len(p.generators)
        rows = [dense_row(w.signed_indices(), width) for w in p.relators]
        got = abelian_invariants(p)
        assert (got.rank, list(got.torsion)) == sympy_invariants(rows, width), g.vertices
        table, _ = _presented_component(g, v, False)
        squares = [(i + 1, i + 1) for i, gen in enumerate(table.generators) if gen.is_loop]
        full = squares + [key for _, key in reference_relator_walks(table) if key]
        assert _sparse_invariants([sparse_row(w) for w in full], width) == (got.rank, list(got.torsion))


def respanned(rng, rows):
    """Other rows with the same integer span: shuffled, signs flipped, rows
    repeated and integer combinations of rows added."""
    out = [r[:] if rng.random() < 0.5 else [-x for x in r] for r in rows]
    for _ in range(rng.randint(0, 4) if rows else 0):
        if rng.random() < 0.5:
            out.append(rng.choice(rows)[:])
        else:
            coeffs = [rng.randint(-3, 3) for _ in rows]
            out.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0]))])
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_residues_depend_only_on_the_lattice(kind):
    rng = random.Random(49)
    for _ in range(60):
        rows, n = seeded_matrix(rng, kind)
        lat = RowLattice([sparse(r) for r in rows], n)
        # the invariants build no Hermite basis
        assert lat.invariants() == dense_invariants(rows, n)
        assert lat._basis is None
        others = [RowLattice([sparse(r) for r in respanned(rng, rows)], n) for _ in range(3)]
        basis, pivots = lat._hermite()
        for _ in range(6):
            vec = [rng.randint(-6, 6) for _ in range(n)]
            got = lat.residue(vec)
            assert all(0 <= got[j] < basis[j][j] for j in pivots)
            assert all(other.residue(vec) == got for other in others), (rows, vec)
            coeffs = [rng.randint(-3, 3) for _ in rows]
            shifted = [x + sum(c * r[j] for c, r in zip(coeffs, rows)) for j, x in enumerate(vec)]
            assert lat.residue(shifted) == got
        assert lat.invariants() == dense_invariants(rows, n)


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_contains_matches_a_quotient_oracle(kind):
    # vec lies in the span L of the rows iff adding it as a row leaves the
    # quotient by L unchanged: the quotient by L + Z vec is a quotient of
    # the one by L, and a finitely generated abelian group is Hopfian.
    # sympy's Smith form computes both quotients.  The bounded brute force
    # of test_row_lattice_membership_against_brute_force covers small cases.
    rng = random.Random(50)
    members = 0
    for _ in range(40):
        rows, n = seeded_matrix(rng, kind)
        lat = RowLattice([sparse(r) for r in rows], n)
        quotient = sympy_invariants(rows, n)
        for _ in range(6):
            vec = [rng.randint(-4, 4) for _ in range(n)]
            if rows and rng.random() < 0.5:
                # a lattice vector, or half of one, which may lie outside
                coeffs = [rng.randint(-3, 3) for _ in rows]
                vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n)]
                if rng.random() < 0.5:
                    vec = [x // 2 for x in vec]
            want = sympy_invariants(rows + [vec], n) == quotient
            assert lat.contains(vec) == want, (rows, vec)
            members += want
    assert members >= (0 if kind == "no rows" else 20)


def dense_random_rows(rng, m, n, entries):
    return [[rng.choice(entries) for _ in range(n)] for _ in range(m)]


def test_hermite_basis_entries_stay_small_on_dense_matrices():
    # the same echelon basis never reduced reached 12,000-bit entries on
    # dense 30 x 20 matrices and 51,000-bit entries at 60 x 40
    rng = random.Random(56)
    for entries in (tuple(range(-9, 10)), (0, 2, -2, 3, -3, 4, -6), (0, 2, -2, 4, 6, -8)):
        for _ in range(3):
            rows = dense_random_rows(rng, 30, 20, entries)
            lat = RowLattice([sparse(r) for r in rows], 20)
            basis, pivots = lat._hermite()
            assert pivots == sorted(basis)
            for j in pivots:
                assert min(basis[j]) == j and basis[j][j] > 0
                assert all(0 <= basis[k].get(j, 0) < basis[j][j] for k in pivots if k < j)
            assert max(abs(x).bit_length() for row in basis.values() for x in row.values()) < 8
            # every row of the matrix reduces to zero
            assert all(lat.contains(r) for r in rows)
    rows = dense_random_rows(rng, 60, 40, tuple(range(-9, 10)))
    start = time.perf_counter()
    lat = RowLattice([sparse(r) for r in rows], 40)
    assert all(lat.contains(r) for r in rows)
    assert lat.residue([1] * 40) == lat.residue([1 + sum(col) for col in zip(*rows)])
    assert time.perf_counter() - start < 5.0
