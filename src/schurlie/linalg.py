"""Exact dense linear algebra over the integers.

An incremental integer row echelon (Hermite-style) lattice for ranks and
saturation checks, and a Smith normal form with transforms for
divisibility-aware solving.  Everything stays well under a few hundred rows
and columns, so the implementations favour clarity.
"""

from .errors import InternalInvariantError


# ---------------------------------------------------------------------------
# integer lattices

def _xgcd(a, b):
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class IntegerLattice:
    """Row span over Z, kept in integer echelon form: each row's first
    nonzero entry (its pivot) is positive and lies right of the pivot above,
    so the lattice is Z^dim exactly when it has dim rows, all with pivot 1.
    add() returns True exactly when the lattice strictly grows.
    """

    def __init__(self, dim):
        self.dim = dim
        self.rows = []  # sorted by pivot column
        self._pivot_cols = []

    def rank(self):
        return len(self.rows)

    def basis_rows(self):
        return [list(r) for r in self.rows]

    def add(self, vec):
        if len(vec) != self.dim:
            raise InternalInvariantError(
                f"vector of length {len(vec)} in a dim-{self.dim} lattice")
        v = list(vec)
        grew = False
        for idx in range(len(self.rows)):
            p = self._pivot_cols[idx]
            if any(v[: p]):
                break  # v now has an earlier pivot; insert below
            if not v[p]:
                continue
            a = self.rows[idx][p]
            if v[p] % a == 0:
                f = v[p] // a
                v = [x - f * y for x, y in zip(v, self.rows[idx])]
            else:
                g, s, t = _xgcd(a, v[p])
                row = self.rows[idx]
                combined = [s * x + t * y for x, y in zip(row, v)]
                v = [(a // g) * y - (v[p] // g) * x for x, y in zip(row, v)]
                self.rows[idx] = combined
                grew = True  # pivot value shrank: strictly larger lattice
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is not None:
            if v[pivot] < 0:
                v = [-x for x in v]
            at = next((k for k, c in enumerate(self._pivot_cols) if c > pivot),
                      len(self.rows))
            self.rows.insert(at, v)
            self._pivot_cols.insert(at, pivot)
            grew = True
        return grew

    def full_unimodular(self):
        """True when the lattice is all of Z^dim."""
        return (len(self.rows) == self.dim
                and all(r[p] == 1 for r, p in zip(self.rows, self._pivot_cols)))

    def elementary_divisors(self):
        if self.full_unimodular():
            return [1] * self.dim  # Z^dim needs no Smith form
        return snf_with_transforms(self.rows)[0]


# ---------------------------------------------------------------------------
# Smith normal form

def snf_with_transforms(rows):
    """(diag, U, V) with U * rows * V diagonal, U and V unimodular.

    diag is the nonzero part of the Smith form: positive d1 | d2 | ... | dr.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    U = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i, q, k):  # row_i -= q * row_k
        m[i] = [a - q * b for a, b in zip(m[i], m[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_op(j, q, k):  # col_j -= q * col_k
        for row in m:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    def row_swap(i, k):
        m[i], m[k] = m[k], m[i]
        U[i], U[k] = U[k], U[i]

    def col_swap(j, k):
        for row in m:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    top = 0
    while top < min(nrows, ncols):
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(top, best[0])
        col_swap(top, best[1])
        while True:
            again = False
            for i in range(top + 1, nrows):
                if m[i][top]:
                    q = m[i][top] // m[top][top]
                    row_op(i, q, top)
                    if m[i][top]:
                        row_swap(top, i)
                        again = True
            for j in range(top + 1, ncols):
                if m[top][j]:
                    q = m[top][j] // m[top][top]
                    col_op(j, q, top)
                    if m[top][j]:
                        col_swap(top, j)
                        again = True
            if not again:
                break
        if m[top][top] < 0:
            m[top] = [-a for a in m[top]]
            U[top] = [-a for a in U[top]]
        d = m[top][top]
        stray = next(((i, j) for i in range(top + 1, nrows)
                      for j in range(top + 1, ncols) if m[i][j] % d), None)
        if stray is not None:
            row_op(top, -1, stray[0])  # fold the offending row in, then redo
            continue
        top += 1
    diag = [m[k][k] for k in range(min(nrows, ncols)) if m[k][k]]
    for prev, nxt in zip(diag, diag[1:]):
        if nxt % prev:
            raise InternalInvariantError("Smith divisors fail the chain condition")
    return diag, U, V


def solve_integer(rows, rhs):
    """One integer solution of rows*x = rhs, or None when none exists."""
    if not rows:
        return None
    ncols = len(rows[0])
    diag, U, V = snf_with_transforms(rows)
    r = len(diag)
    ub = [sum(u * b for u, b in zip(urow, rhs)) for urow in U]
    if any(ub[i] for i in range(r, len(ub))):
        return None
    y = []
    for i in range(r):
        if ub[i] % diag[i]:
            return None
        y.append(ub[i] // diag[i])
    y += [0] * (ncols - r)
    return [sum(V[i][k] * y[k] for k in range(ncols)) for i in range(ncols)]
