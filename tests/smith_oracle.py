"""The Smith normal form that schurlie.linalg.smith_normal_form replaced, and
solve_integer on top of it, kept verbatim as an oracle, used by the tests only.

Each round scans the whole remaining block for its pivot, and runs the scan
for a stray divisor whatever the pivot; the new form must choose the same
pivots and make the same row and column operations.
"""

from schurlie.errors import InternalInvariantError


def smith_normal_form(m, nrows, ncols):
    """Bring the top-left nrows x ncols block A of m to Smith form U*A*V in
    place; return its nonzero diagonal, positive d1 | d2 | ... | dr.

    Row operations act on whole rows and column operations on whole columns,
    but every choice reads only the block: a right border B of the block rows
    ends as U*B, and an identity border below the block ends as V.
    """
    def row_op(i, q, k):  # row_i -= q * row_k
        m[i] = [a - q * b for a, b in zip(m[i], m[k])]

    def col_op(j, q, k):  # col_j -= q * col_k
        for row in m:
            row[j] -= q * row[k]

    def row_swap(i, k):
        m[i], m[k] = m[k], m[i]

    def col_swap(j, k):
        for row in m:
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
    return diag


def solve_integer(rows, rhs):
    """One integer solution of rows*x = rhs, or None when none exists.

    A copy of rows is bordered by rhs on the right and by the identity
    below, so its Smith form D = U*rows*V leaves U*rhs on the right and V
    below; then x = V*y for an integer y with D*y = U*rhs.
    """
    if not rows:
        return None
    nrows, ncols = len(rows), len(rows[0])
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    m += [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    diag = smith_normal_form(m, nrows, ncols)
    ub = [row[ncols] for row in m[:nrows]]
    if any(ub[len(diag):]) or any(b % d for d, b in zip(diag, ub)):
        return None
    y = [b // d for d, b in zip(diag, ub)]
    return [sum(v * yk for v, yk in zip(row, y)) for row in m[nrows:]]
