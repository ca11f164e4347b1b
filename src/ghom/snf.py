"""Smith normal form and reduced Hermite bases over exact integers.

One Euclid routine, `_insert`, keeps a reduced Hermite basis (Cohen, A
Course in Computational Algebraic Number Theory, 2.4.2; Kannan and Bachem
1979): every entry above a pivot d lies in [0, d), which keeps entries
small.  Membership and canonical residues read that basis, which is the
same whatever rows span the lattice; the Smith form takes it of the rows
and of the columns in turn.  No transform is kept: the Smith form serves
only the abelian invariants.

Rows are sparse: {column: nonzero entry}.  Relator rows repeat up to sign
and nearly all hold a +-1 entry, so the invariants keep one row of each
sign class, run unit-pivot elimination (Tietze moves) on those, and send
only the block left over, again one row per sign class, to the Smith form.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from math import gcd


def smith_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Return S == U @ A @ V for some unimodular U and V: diagonal, with
    nonnegative entries in divisibility order, in A's m x n shape.

    The reduced Hermite basis of the rows is taken with `_insert`, then
    that of its columns, in turn, until every row holds one entry; then
    diag(a, b) becomes diag(gcd, lcm) along the chain.  Each round keeps
    the invariant factors: the basis spans the rows' lattice, and a matrix
    and its transpose share them.  It ends.  After a round the leading
    pivot d is alone in its column; the next round puts in its place the
    gcd of d's row, a proper divisor of d unless d divides the whole row.
    In that case, by uniqueness of the reduced basis, d's new row is d
    alone: its row and column stay clear from then on, and the trailing
    block runs on alone by the same argument.  All arithmetic is Python
    int, so no overflow is possible.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    lines = [{j: x for j, x in enumerate(r) if x} for r in rows]
    while True:
        basis, pivots = {}, []
        for v in lines:
            _insert(basis, pivots, v)
        if all(len(basis[c]) == 1 for c in pivots):
            break
        # the columns of the basis, as rows over the basis's row positions
        columns = defaultdict(dict)
        for i, c in enumerate(pivots):
            for k, x in basis[c].items():
                columns[k][i] = x
        lines = list(columns.values())
    diag = [basis[c][c] for c in pivots]
    # the divisibility chain: diag(a, b) is equivalent to diag(gcd, lcm)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            diag[i], diag[j] = gcd(a, b), a // gcd(a, b) * b
    s = [[0] * n for _ in range(m)]
    for i, d in enumerate(diag):
        s[i][i] = d
    return s


def diagonal(s: list[list[int]]) -> list[int]:
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


class RowLattice:
    """Integer row span of a matrix, with membership and canonical residues.

    Rows are sparse, {column: entry} with columns in range(width).  The
    reduced Hermite basis is built on the first `residue` or `contains`
    call; `invariants` needs no basis.
    """

    def __init__(self, rows: list[dict[int, int]], width: int):
        self.width = width
        self._rows = []
        for row in rows:
            for j in row:
                if not 0 <= j < width:
                    raise ValueError(f"row column {j} is outside range({width})")
            # an explicit zero is no entry: `_insert` would take it as a pivot
            self._rows.append({j: x for j, x in row.items() if x})
        self._basis = None

    def _hermite(self) -> tuple[dict[int, dict[int, int]], list[int]]:
        """The reduced Hermite basis, pivot column -> row, and its pivots
        in column order: each row is zero left of its positive pivot, and
        each entry above a pivot d lies in [0, d).  Rows join one at a time
        and the basis stays reduced as they do, which keeps entries small."""
        if self._basis is None:
            self._basis = {}, []
            for row in self._rows:
                _insert(*self._basis, dict(row))
        return self._basis

    def contains(self, vec: list[int]) -> bool:
        return not any(self.residue(vec))

    def residue(self, vec: list[int]) -> tuple[int, ...]:
        """The coset's one vector with its coordinate at each pivot in
        [0, d): equal residues iff equal cosets, whatever rows span the
        lattice."""
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        out = list(vec)
        basis, pivots = self._hermite()
        for j in pivots:
            q = out[j] // basis[j][j]
            if q:
                for k, x in basis[j].items():
                    out[k] -= q * x
        return tuple(out)

    def invariants(self) -> tuple[int, list[int]]:
        """(rank, torsion) of Z^width modulo the lattice."""
        return _sparse_invariants(self._rows, self.width)


def _subtract(row: dict[int, int], q: int, other: dict[int, int]) -> None:
    """row -= q * other, in place, keeping only nonzero entries."""
    for k, x in other.items():
        y = row.get(k, 0) - q * x
        if y:
            row[k] = y
        else:
            row.pop(k, None)


def _reduce(row: dict[int, int], basis: dict[int, dict[int, int]], pivots: list[int]) -> None:
    """Bring row's entries at the given pivots into [0, d), in column
    order: each step changes only later columns."""
    for k in pivots:
        if k in row:
            q = row[k] // basis[k][k]
            if q:
                _subtract(row, q, basis[k])


def _insert(basis: dict[int, dict[int, int]], pivots: list[int], v: dict[int, int]) -> None:
    """Add row v to a reduced Hermite basis, keeping it reduced."""
    while v:
        c = min(v)
        b = basis.get(c)
        if b is None:
            insort(pivots, c)
            b, v = v, {}
        elif v[c] % b[c] == 0:
            _subtract(v, v[c] // b[c], b)
            continue
        else:
            # Euclid on the two rows at column c: unimodular, and it leaves
            # v zero there and their gcd in b
            while c in v:
                _subtract(v, v[c] // b[c], b)
                if c in v:
                    b, v = v, b
        if b[c] < 0:
            b = {k: -x for k, x in b.items()}
        basis[c] = b
        i = pivots.index(c)
        _reduce(b, basis, pivots[i + 1:])
        for k in pivots[:i]:
            _reduce(basis[k], basis, pivots[i:])


def _eliminate_unit_pivots(rows: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Tietze moves on sparse rows (column -> nonzero entry): while some row
    has a +-1 entry at column j, clear column j from the other rows with it,
    then drop that row and column.  The quotient of the free abelian group
    on the columns by the row span keeps its isomorphism type.  Returns the
    number of columns dropped and the rows left, none holding a unit."""
    live = {}
    rows_of = defaultdict(set)  # column -> live rows with a nonzero there
    for i, row in enumerate(rows):
        if row:
            live[i] = dict(row)
            for j in row:
                rows_of[j].add(i)
    dropped = 0
    # a row changed by an elimination is queued again; the loop also visits
    # the entries appended while it runs
    queue = list(live)
    for i in queue:
        row = live.get(i)
        if row is None:
            continue
        units = [j for j, x in row.items() if x == 1 or x == -1]
        if not units:
            continue
        # the pivot column in the fewest rows makes the least fill-in
        j = min(units, key=lambda c: len(rows_of[c]))
        u = row[j]
        del live[i]
        for c in row:
            rows_of[c].discard(i)
        for k in rows_of.pop(j):
            other = live[k]
            f = other.pop(j) * u
            for c, x in row.items():
                if c == j:
                    continue
                y = other.get(c, 0) - f * x
                if y:
                    if c not in other:
                        rows_of[c].add(k)
                    other[c] = y
                elif c in other:
                    del other[c]
                    rows_of[c].discard(k)
            if other:
                queue.append(k)
            else:
                del live[k]
        dropped += 1
    return dropped, list(live.values())


def _up_to_sign(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """The first nonzero row of each class of rows equal up to sign: a row
    and its negative span the same lattice."""
    kept, seen = [], set()
    for row in rows:
        if row:
            # the class's key is its row with a positive entry at its least column
            key = frozenset(row.items()) if row[min(row)] > 0 else frozenset((j, -x) for j, x in row.items())
            if key not in seen:
                seen.add(key)
                kept.append(row)
    return kept


def _sparse_invariants(rows: list[dict[int, int]], width: int) -> tuple[int, list[int]]:
    """(rank, torsion) of Z^width modulo the integer row span of `rows`."""
    # the elimination's fill-in repeats itself, so the block left over is
    # thinned the same way as the rows
    dropped, rest = _eliminate_unit_pivots(_up_to_sign(rows))
    rest = _up_to_sign(rest)
    if not rest:
        return width - dropped, []
    columns = sorted({j for row in rest for j in row})
    s = smith_normal_form([[row.get(j, 0) for j in columns] for row in rest])
    nonzero = [d for d in diagonal(s) if d != 0]
    return width - dropped - len(nonzero), [d for d in nonzero if d > 1]
