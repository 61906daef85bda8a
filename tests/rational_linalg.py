"""Rational row reduction over Fraction: independent oracles for the
integer engines of schurlie.linalg, used by the tests only."""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right nullspace (one vector per free column)."""
    if not rows:
        return []
    reduced, pivots = rref(rows)
    cols = len(rows[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis
