"""The integer echelon lattice that schurlie.linalg.IntegerLattice replaced,
kept as an oracle for the Hermite-form one, used by the tests only.

It reduces a vector row by row, top down, and never reduces above its
pivots, so its rows are a basis of the same span but not a canonical one.
"""

from schurlie.linalg import _xgcd, smith_normal_form


class EchelonLattice:
    """Row span over Z in integer echelon form: each row's first nonzero
    entry (its pivot) is positive and lies right of the pivot above."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []  # sorted by pivot column
        self._pivot_cols = []

    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Fold vec in; True exactly when the lattice strictly grows."""
        if len(vec) != self.dim:
            raise ValueError(f"vector of length {len(vec)} in a dim-{self.dim} lattice")
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
            return [1] * self.dim
        rows = [list(r) for r in self.rows]  # the elimination works in place
        return smith_normal_form(rows, len(rows), self.dim)
