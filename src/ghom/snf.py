"""Smith normal form over exact arbitrary-precision integers.

Partial pivoting by minimal absolute value keeps coefficients tame; all
arithmetic is Python int, so no overflow is possible.  The column transform
is tracked so callers can decide membership of a vector in the integer row
lattice of a matrix (the abelianized-image test); no caller needs the row
transform, so it is not kept.

Rows are sparse: {column: nonzero entry}.  Abelian invariants alone need
no transform.  Relator rows repeat up to sign and nearly all hold a +-1
entry, so the invariants keep one row of each sign class, run unit-pivot
elimination (Tietze moves) on those, and send only the block left over to
the dense form.
"""

from __future__ import annotations

from collections import defaultdict


def _add_row(s, dst, src, k):
    # row dst += k * row src
    s[dst] = [a + k * b for a, b in zip(s[dst], s[src])]


def _swap_cols(s, v, i, j):
    for r in s:
        r[i], r[j] = r[j], r[i]
    for r in v:
        r[i], r[j] = r[j], r[i]


def _add_col(s, v, dst, src, k):
    # column dst += k * column src, in S and in V
    for r in s:
        r[dst] += k * r[src]
    for r in v:
        r[dst] += k * r[src]


def _make_nonnegative(s, i):
    if s[i][i] < 0:
        s[i] = [-a for a in s[i]]


def smith_normal_form(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Return (S, V) with U @ A @ V == S for some unimodular U, V unimodular,
    S diagonal with nonnegative entries in divisibility order."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    s = [list(r) for r in rows]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    t = 0
    while t < min(m, n):
        # pivot: minimal nonzero absolute value in the trailing submatrix
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        s[t], s[pivot[0]] = s[pivot[0]], s[t]
        _swap_cols(s, v, t, pivot[1])
        # Clear column t completely before row t and the other way round:
        # eliminating with a pivot row or column that still holds old pivots
        # multiplies the trailing entries, and they grew to millions of bits
        # on a random 7x6 matrix.
        _clear_below(s, t)
        while _clear_right(s, v, t):
            _clear_below(s, t)
        _make_nonnegative(s, t)
        t += 1

    # enforce the divisibility chain s[i][i] | s[i+1][i+1]
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            a, b = s[i][i], s[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # fold column i+1 into i, then re-reduce the 2x2 block:
                # diag(a, b) becomes diag(gcd(a, b), ab/gcd(a, b))
                _add_col(s, v, i, i + 1, 1)
                _rediagonalize_pair(s, v, i)
                changed = True
            elif a == 0 and b != 0:
                s[i], s[i + 1] = s[i + 1], s[i]
                _swap_cols(s, v, i, i + 1)
                changed = True
    return s, v


def _clear_below(s, t):
    """Row operations until column t is zero below the pivot; a nonzero
    remainder becomes the new, smaller pivot."""
    while any(s[i][t] for i in range(t + 1, len(s))):
        for i in range(t + 1, len(s)):
            if s[i][t] != 0:
                _add_row(s, i, t, -(s[i][t] // s[t][t]))
                if s[i][t] != 0:
                    s[i], s[t] = s[t], s[i]


def _clear_right(s, v, t):
    """Column operations until row t is zero right of the pivot; returns
    whether the pivot column changed, which can refill column t."""
    changed = False
    while any(s[t][t + 1:]):
        for j in range(t + 1, len(s[t])):
            if s[t][j] != 0:
                _add_col(s, v, j, t, -(s[t][j] // s[t][t]))
                if s[t][j] != 0:
                    _swap_cols(s, v, j, t)
                    changed = True
    return changed


def _rediagonalize_pair(s, v, t):
    """Clear the 2x2 block at t after a column fold, tracking V."""
    while s[t + 1][t] != 0 or s[t][t + 1] != 0:
        if s[t][t] == 0 or (s[t + 1][t] != 0 and abs(s[t + 1][t]) < abs(s[t][t])):
            s[t], s[t + 1] = s[t + 1], s[t]
        if s[t][t] == 0 or (s[t][t + 1] != 0 and abs(s[t][t + 1]) < abs(s[t][t])):
            _swap_cols(s, v, t, t + 1)
        if s[t + 1][t] != 0:
            _add_row(s, t + 1, t, -(s[t + 1][t] // s[t][t]))
        if s[t][t + 1] != 0:
            _add_col(s, v, t + 1, t, -(s[t][t + 1] // s[t][t]))
    for i in (t, t + 1):
        _make_nonnegative(s, i)


def diagonal(s: list[list[int]]) -> list[int]:
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


class RowLattice:
    """Integer row span of a matrix, with membership and canonical residues.

    Rows are sparse, {column: entry} with columns in range(width).  The
    Smith form with its column transform V is built from every row, in
    order, on the first `contains` or `residue` call; `invariants` needs
    no V.
    """

    def __init__(self, rows: list[dict[int, int]], width: int):
        self.width = width
        for row in rows:
            for j in row:
                if not 0 <= j < width:
                    raise ValueError(f"row column {j} is outside range({width})")
        self._rows = list(rows)
        self._v = None

    def _factor(self):
        """Build the Smith form's V and diagonal on first use."""
        if self._v is not None:
            return
        rows = [_dense(r, range(self.width)) for r in self._rows]
        if rows:
            s, self._v = smith_normal_form(rows)
            self._diag = diagonal(s)
        else:
            self._v = [[int(i == j) for j in range(self.width)] for i in range(self.width)]
            self._diag = []

    def _transformed(self, vec: list[int]) -> list[int]:
        # y = vec . V, summing only the rows of V where vec is nonzero: a
        # walk word's vector has a handful of nonzeros
        self._factor()
        y = [0] * self.width
        for c, row in zip(vec, self._v):
            if c:
                y = [a + c * b for a, b in zip(y, row)]
        return y

    def contains(self, vec: list[int]) -> bool:
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        y = self._transformed(vec)
        for j in range(self.width):
            d = self._diag[j] if j < len(self._diag) else 0
            if d == 0:
                if y[j] != 0:
                    return False
            elif y[j] % d != 0:
                return False
        return True

    def residue(self, vec: list[int]) -> tuple[int, ...]:
        """Canonical coset coordinates; equal residues iff equal cosets."""
        y = self._transformed(vec)
        out = []
        for j in range(self.width):
            d = self._diag[j] if j < len(self._diag) else 0
            out.append(y[j] % d if d else y[j])
        return tuple(out)

    def invariants(self) -> tuple[int, list[int]]:
        """(rank, torsion) of Z^width modulo the lattice."""
        return _sparse_invariants(self._rows, self.width)


def _dense(row: dict[int, int], columns) -> list[int]:
    return [row.get(j, 0) for j in columns]


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


def _sparse_invariants(rows: list[dict[int, int]], width: int) -> tuple[int, list[int]]:
    """(rank, torsion) of Z^width modulo the integer row span of `rows`."""
    # a row and its negative span the same lattice: keep the first nonzero
    # row of each class equal up to sign
    kept, seen = [], set()
    for row in rows:
        key = frozenset(row.items())
        if key and key not in seen:
            seen.add(key)
            seen.add(frozenset((j, -x) for j, x in row.items()))
            kept.append(row)
    dropped, rest = _eliminate_unit_pivots(kept)
    if not rest:
        return width - dropped, []
    columns = sorted({j for row in rest for j in row})
    s, _ = smith_normal_form([_dense(row, columns) for row in rest])
    nonzero = [d for d in diagonal(s) if d != 0]
    return width - dropped - len(nonzero), [d for d in nonzero if d > 1]
