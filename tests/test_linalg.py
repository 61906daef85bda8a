import random
from itertools import islice, product

import pytest

import smith_oracle
from echelon_lattice import EchelonLattice
from rational_linalg import nullspace, rank, rref
from schurlie import derivations, suites
from schurlie.derivations import mtilde_generators, schur_closure_rank
from schurlie.linalg import IntegerLattice, smith_normal_form, solve_integer


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert rank(rows) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


def test_nullspace():
    rows = [[1, 1, 0], [0, 0, 1]]
    basis = nullspace(rows)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def _smith_diagonal(A):
    """The Smith diagonal of A, on a copy: the elimination works in place."""
    rows = [list(r) for r in A]
    return smith_normal_form(rows, len(rows), len(rows[0]) if rows else 0)


def _matmul(X, Y):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _smith_bordered(A, B):
    """Smith form of A bordered as [A | B ; I | 0]: (diag, the block, the
    right border, the bottom border) afterwards."""
    m, k, w = len(A), len(A[0]), len(B[0])
    M = [list(a) + list(b) for a, b in zip(A, B)]
    M += [row + [0] * w for row in _identity(k)]
    diag = smith_normal_form(M, m, k)
    return diag, [r[:k] for r in M[:m]], [r[k:] for r in M[:m]], [r[:k] for r in M[m:]]


def _assert_smith_transforms(A):
    """Read U and V off the border of [A | I ; I | 0], check U * A * V
    against the divisors, and return (U, V)."""
    m, k = len(A), len(A[0])
    diag, block, U, V = _smith_bordered(A, _identity(m))
    D = [[diag[i] if i == j and i < len(diag) else 0 for j in range(k)]
         for i in range(m)]
    assert _matmul(_matmul(U, A), V) == D
    assert block == D
    for prev, nxt in zip(diag, diag[1:]):
        assert nxt % prev == 0
    assert abs(_det(U)) == 1 and abs(_det(V)) == 1
    return U, V


def test_smith_normal_form_classic():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert _smith_diagonal(rows) == [2, 2, 156]


def test_smith_chain_and_rank_deficient():
    assert _smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert _smith_diagonal([[2, 4], [1, 2]]) == [1]
    assert _smith_diagonal([[0, 0], [0, 0]]) == []


def test_snf_with_transforms_reconstructs():
    rng = random.Random(1)
    for _ in range(20):
        m = rng.randint(1, 4)
        k = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(m)]
        _assert_smith_transforms(A)
    # all-zero rows, which the elimination must leave below the divisors
    for A in ([[0, 0, 0], [2, 4, 6], [0, 0, 0]], [[0, 0], [0, 0]], [[0], [0], [3]],
              [[1, 2], [0, 0], [2, 4]], [[0, 2, 0], [0, 0, 0], [0, 0, 3]]):
        _assert_smith_transforms(A)


def test_smith_border_carries_multicolumn_rhs():
    # the right border must end as U * B, with the U and V of the identity
    # border: the elimination reads only the block
    rng = random.Random(5)
    cases = [([[2, 0], [0, 3]], [[1, 0, 5], [0, 1, -7]]),  # a stray fold
             ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], [[1, 2], [3, 4], [5, 6]])]
    for _ in range(20):
        m, k, w = rng.randint(1, 4), rng.randint(1, 4), rng.randint(2, 3)
        cases.append(([[rng.randint(-6, 6) for _ in range(k)] for _ in range(m)],
                      [[rng.randint(-6, 6) for _ in range(w)] for _ in range(m)]))
    for A, B in cases:
        U, V = _assert_smith_transforms(A)
        diag, block, UB, V_b = _smith_bordered(A, B)
        assert diag == _smith_diagonal(A)
        assert UB == _matmul(U, B)
        assert V_b == V


def test_solve_integer():
    assert solve_integer([[2]], [4]) == [2]
    assert solve_integer([[2]], [3]) is None
    # 2x + 4y = 6 has integer solutions
    sol = solve_integer([[2, 4]], [6])
    assert sol is not None and 2 * sol[0] + 4 * sol[1] == 6
    assert solve_integer([[2, 4]], [3]) is None
    sol = solve_integer([[1, 2], [3, 4]], [5, 11])
    assert sol == [1, 2]
    assert solve_integer([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_integer_random_consistency():
    rng = random.Random(2)
    for _ in range(30):
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(m)]
        x = [rng.randint(-5, 5) for _ in range(k)]
        b = [sum(A[i][j] * x[j] for j in range(k)) for i in range(m)]
        sol = solve_integer(A, b)
        assert sol is not None
        assert all(sum(A[i][j] * sol[j] for j in range(k)) == b[i] for i in range(m))


def test_solve_integer_matches_box_enumeration():
    # differential oracle: every integer point of a small box, on random
    # systems whose right-hand side may or may not be reachable
    rng = random.Random(6)
    box = range(-3, 4)
    outcomes = set()
    for _ in range(150):
        m, k = rng.randint(1, 3), rng.randint(1, 3)
        scale = rng.choice([1, 2, 3])
        A = [[scale * rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        if rng.random() < 0.5:
            x = [rng.choice(box) for _ in range(k)]
            b = [sum(a * xj for a, xj in zip(row, x)) for row in A]
        else:
            b = [rng.randint(-8, 8) for _ in range(m)]
        in_box = next((x for x in product(box, repeat=k)
                       if all(sum(a * xj for a, xj in zip(row, x)) == bi
                              for row, bi in zip(A, b))), None)
        sol = solve_integer(A, b)
        if sol is None:
            assert in_box is None, (A, b, in_box)
        else:
            assert all(sum(a * xj for a, xj in zip(row, sol)) == bi
                       for row, bi in zip(A, b)), (A, b, sol)
        outcomes.add((sol is None, in_box is None))
    # the draw must reach both solvable and unsolvable systems
    assert {(True, True), (False, False)} <= outcomes


def test_lattice_rank_and_containment():
    lat = IntegerLattice(3)
    assert lat.add([2, 0, 0])
    assert lat.add([0, 3, 0])
    assert not lat.add([2, 3, 0])
    assert lat.rank() == 2
    assert not lat.add([4, 6, 0])
    # gcd refinement grows the lattice at fixed rank
    assert lat.add([3, 0, 0])
    assert not lat.add([1, 0, 0])
    assert lat.rank() == 2


def test_lattice_divisors_and_unimodular():
    lat = IntegerLattice(2)
    lat.add([2, 0])
    lat.add([0, 2])
    assert lat.elementary_divisors() == [2, 2]
    assert not lat.full_unimodular()
    lat.add([1, 1])
    assert lat.elementary_divisors() == [1, 2]
    lat.add([0, 1])
    assert lat.full_unimodular()
    assert lat.elementary_divisors() == [1, 1]


def test_lattice_matches_smith_on_random_input():
    rng = random.Random(3)
    for _ in range(20):
        dim = rng.randint(1, 4)
        vecs = [[rng.randint(-4, 4) for _ in range(dim)]
                for _ in range(rng.randint(1, 6))]
        lat = IntegerLattice(dim)
        for v in vecs:
            lat.add(v)
        divisors = lat.elementary_divisors()
        assert divisors == _smith_diagonal(vecs)
        assert lat.rank() == rank(vecs)
        assert all(next(x for x in row if x) > 0 for row in lat.rows)
        assert lat.full_unimodular() == (lat.rank() == dim
                                         and all(d == 1 for d in divisors))
        for v in vecs:
            assert not lat.add(v)  # every added vector lies in the lattice


def test_lattice_gcd_step_keeps_pivot_positive():
    # the gcd of 2 and -3 must enter as pivot 1, not -1
    lat = IntegerLattice(1)
    lat.add([2])
    assert lat.add([-3])
    assert lat.rows == [[1]]
    assert lat.full_unimodular()


def test_lattice_rejects_wrong_length():
    lat = IntegerLattice(2)
    with pytest.raises(Exception):
        lat.add([1, 2, 3])


def _assert_hermite(lat):
    # pivots positive in increasing columns, every other entry of a pivot
    # column in [0, pivot)
    rows = lat.rows
    pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
    assert pivots == sorted(set(pivots))
    for r, p in zip(rows, pivots):
        assert r[p] > 0
        assert all(0 <= other[p] < r[p] for other in rows if other is not r)


def _assert_same_lattice(lat, oracle):
    assert lat.rank() == oracle.rank()
    assert lat.full_unimodular() == oracle.full_unimodular()
    assert lat.elementary_divisors() == oracle.elementary_divisors()


def test_lattice_matches_echelon_oracle_on_random_input():
    rng = random.Random(7)
    gcd_steps = negative_leads = 0
    for _ in range(200):
        dim = rng.randint(1, 6)
        lat, oracle = IntegerLattice(dim), EchelonLattice(dim)
        unread = IntegerLattice(dim)  # its rows are read only at the end
        for _ in range(rng.randint(1, 8)):
            # sparse, scaled and often starting late, so the draw meets
            # leading entries that do not divide each other and negative ones
            scale = rng.choice([1, 2, 3, 6])
            start = rng.randrange(dim)
            v = [0] * start + [scale * rng.choice([0, 0, 1, -1, 2, -3, 5, -4])
                               for _ in range(dim - start)]
            lead = next((x for x in v if x), 0)
            negative_leads += lead < 0
            rank_before = lat.rank()
            grew = lat.add(v)
            assert grew == oracle.add(v) == unread.add(v), v
            gcd_steps += grew and lat.rank() == rank_before
            _assert_hermite(lat)
            _assert_same_lattice(lat, oracle)
            assert unread.rank() == lat.rank()
            assert unread.full_unimodular() == lat.full_unimodular()
        # the Hermite form is unique to the span, so it cannot depend on
        # when the rows were read
        assert unread.rows == lat.rows
        _assert_same_lattice(unread, oracle)
        for row in oracle.rows:
            assert not lat.add(row)  # the same span, not just the same invariants
        for row in lat.basis_rows():
            assert not oracle.add(row)
    assert gcd_steps and negative_leads


@pytest.mark.parametrize("n, p", [(2, 8), (3, 4)])
def test_lattice_matches_echelon_oracle_on_closure_adds(monkeypatch, n, p):
    sequences = []  # (dim, the vectors added), one per block per degree

    class Recording(IntegerLattice):
        def __init__(self, dim):
            super().__init__(dim)
            self.added = []
            sequences.append((dim, self.added))

        def add(self, vec):
            self.added.append(list(vec))
            return super().add(vec)

    monkeypatch.setattr(derivations, "IntegerLattice", Recording)
    report = schur_closure_rank(n, mtilde_generators(n), p)
    assert len(report) == p - 1
    assert len(sequences) == sum(len(derivations._blocks(n, q)) for q in range(2, p + 1))
    recorded = iter(sequences)
    for entry in report:
        oracles = []
        for dim, added in islice(recorded, len(derivations._blocks(n, entry["degree"]))):
            lat, oracle = IntegerLattice(dim), EchelonLattice(dim)
            for v in added:
                assert lat.add(v) == oracle.add(v)
                assert lat.full_unimodular() == oracle.full_unimodular()
            _assert_hermite(lat)
            _assert_same_lattice(lat, oracle)
            if lat.full_unimodular():  # Z^dim in Hermite form is the identity
                assert lat.rows == [[int(i == j) for j in range(dim)] for i in range(dim)]
            oracles.append(oracle)
        # the block lattices' direct sum: one Smith form of its block-diagonal
        # basis must give the report's divisors
        width = sum(oracle.dim for oracle in oracles)
        diagonal, offset = [], 0
        for oracle in oracles:
            diagonal += [[0] * offset + row + [0] * (width - offset - oracle.dim)
                         for row in oracle.rows]
            offset += oracle.dim
        assert width == entry["full_rank"]
        assert smith_normal_form(diagonal, len(diagonal), width) == entry["elementary_divisors"]


def test_lattice_entries_stay_bounded_on_closure_adds(monkeypatch):
    # add reduces the rows it changes, so the stored rows, read from _rows
    # and so without the Hermite pass of rows, stay as small as the vectors
    # fed in
    largest = {"stored": 0, "added": 0}

    class Recording(IntegerLattice):
        def add(self, vec):
            grew = super().add(vec)
            largest["added"] = max(largest["added"], *map(abs, vec))
            largest["stored"] = max([largest["stored"]]
                                    + [abs(x) for row in self._rows.values() for x in row])
            return grew

    monkeypatch.setattr(derivations, "IntegerLattice", Recording)
    schur_closure_rank(2, mtilde_generators(2), 8)
    assert 0 < largest["stored"] <= largest["added"], largest


def _minor_gcd_divisors(A):
    # independent oracle: the product d1*...*dk equals the gcd of all
    # k-by-k minors
    from itertools import combinations
    from math import gcd

    m, k = len(A), len(A[0])
    divisors = []
    prev = 1
    for size in range(1, min(m, k) + 1):
        g = 0
        for rows_idx in combinations(range(m), size):
            for cols_idx in combinations(range(k), size):
                sub = [[A[i][j] for j in cols_idx] for i in rows_idx]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        divisors.append(g // prev)
        prev = g
    return divisors


def test_smith_matches_minor_gcd_oracle():
    rng = random.Random(4)
    for _ in range(25):
        m, k = rng.randint(1, 3), rng.randint(1, 3)
        A = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(m)]
        assert _smith_diagonal(A) == _minor_gcd_divisors(A)
    assert _smith_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) \
        == _minor_gcd_divisors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])


def _assert_smith_as_oracle(A, B):
    """The Smith form of A bordered by B on the right and by I below, as
    solve_integer borders it, and the solve of A x = B's first column equal
    the kept oracle's: the same diagonal, the same whole bordered matrix, so
    the same operations, and the same solution."""
    m, k = len(A), len(A[0])
    M = [list(a) + list(b) for a, b in zip(A, B)] + _identity(k)
    O = [list(r) for r in M]
    assert smith_normal_form(M, m, k) == smith_oracle.smith_normal_form(O, m, k)
    assert M == O
    rhs = [b[0] for b in B]
    assert solve_integer(A, rhs) == smith_oracle.solve_integer(A, rhs)


def test_smith_matches_kept_oracle_on_random_bordered_input():
    # sparse entries of every size up to 9, so that a pivot of size 2 or
    # more often comes before a 1 in row-major order, and strays are folded
    rng = random.Random(31)
    for _ in range(2000):
        m, k, w = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 2)
        top = rng.choice([2, 4, 9])
        A = [[rng.choice([0, 0, rng.randint(-top, top)]) for _ in range(k)]
             for _ in range(m)]
        B = [[rng.randint(-9, 9) for _ in range(w)] for _ in range(m)]
        _assert_smith_as_oracle(A, B)


@pytest.mark.parametrize("n, max_degree", [(2, 8), (3, 5), (4, 4), (5, 3)])
def test_smith_matches_kept_oracle_on_lemma425_systems(
        monkeypatch, cold_fixing_cache, n, max_degree):
    # every block system that the lemma425 suite solves at this size
    systems = []

    def recording_solve(rows, rhs):
        systems.append((rows, rhs))
        return solve_integer(rows, rhs)

    monkeypatch.setattr(derivations, "solve_integer", recording_solve)
    for _, i, j, tree in suites._pairs_and_monomials(n, 2, max_degree):
        derivations.find_annihilating_schur(n, i, j, tree)
    assert systems
    for rows, rhs in systems:
        _assert_smith_as_oracle(rows, [[b] for b in rhs])
