import json
import random
from itertools import permutations

import pytest

from rational_linalg import nullspace
from schurlie.errors import (DimensionMismatch, InternalInvariantError,
                             InvalidArgument, ResourceGuardExceeded)
from schurlie.freelie import (bracketing_function, embed, lyndon_basis,
                              monomial_from_shape, monomial_letters,
                              normalize, shape_of, specht_wever)
from schurlie.schur import (SchurElement, apply_to_lie, basis,
                            basis_dimension_formula, decompose_in_basis,
                            equivariant_basis_bruteforce, is_equivariant,
                            letter_substitution, orbit_keys,
                            orbit_data_of_column, schur_is_equivariant)
from schurlie.words import (TensorElement, act, perm_inverse, sorted_words,
                            stabilizer_orbit_key, words_of)


def all_perms(q):
    """All of Sigma_q in one-line notation, lexicographic order."""
    return permutations(range(1, q + 1))

# frozen dimension table C(n^2+q-1, q)
DIMS = {1: [1, 1, 1, 1, 1], 2: [1, 4, 10, 20, 35], 3: [1, 9, 45, 165, 495]}


def _rand_element(n, q, rng, entries=2):
    us = list(sorted_words(n, q))
    data = {}
    for _ in range(entries):
        u = rng.choice(us)
        key = rng.choice(orbit_keys(n, u))
        data.setdefault(u, {})[key] = rng.choice([-3, -2, -1, 1, 2, 3])
    return SchurElement(n, q, data)


def test_identity_and_zero():
    ident = SchurElement.identity(2, 2)
    t = TensorElement(2, {(1, 2): 3, (2, 2): -1})
    assert ident.apply(t) == t
    assert SchurElement.zero(2, 2).apply(t).is_zero()


def test_from_orbit_data_frozen_example():
    f = SchurElement(2, 2, {(1, 1): {(1, 2): 1}})
    assert f.apply_word((1, 1)) == TensorElement(2, {(1, 2): 1, (2, 1): 1})
    assert f.apply_word((1, 2)).is_zero()
    assert f.apply_word((2, 1)).is_zero()
    assert f.apply_word((2, 2)).is_zero()
    assert schur_is_equivariant(f)


def test_from_orbit_data_validation():
    with pytest.raises(InvalidArgument):
        SchurElement(2, 2, {(2, 1): {(1, 2): 1}})
    with pytest.raises(InvalidArgument):
        # (2,1) is not canonical for u=(1,1): the key must be sorted per block
        SchurElement(2, 2, {(1, 1): {(2, 1): 1}})
    with pytest.raises(InvalidArgument):
        SchurElement.from_json_dict({"n": 2, "q": 2, "entries": [
            {"u": "1.1", "key": "2.1", "coeff": "1"}]})
    with pytest.raises(InvalidArgument):
        SchurElement.from_json_dict([5])
    with pytest.raises(InvalidArgument):
        # letters are positive: a zero in the key or in u is rejected
        SchurElement(2, 2, {(1, 2): {(0, 2): 1}})
    with pytest.raises(InvalidArgument):
        SchurElement(2, 2, {(0, 1): {(0, 1): 1}})
    with pytest.raises(InvalidArgument, match="above rank 2"):
        # a key letter above the rank is no basis word
        SchurElement(2, 1, {(1,): {(3,): 1}})
    with pytest.raises(InvalidArgument, match="above rank 2"):
        letter_substitution(2, 1, (3, 1))
    # a bad sorted word is refused even with an empty row
    for u in [(2, 1), (1, 3), (1,), (0, 1)]:
        with pytest.raises(InvalidArgument):
            SchurElement(2, 2, {u: {}})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_keys_match_word_scan(n):
    # the keys generated run by run are the canonical forms of all n^q words
    for q in range(0, 7):
        if n ** q > 5000:
            break
        for u in sorted_words(n, q):
            scan = sorted({stabilizer_orbit_key(u, w) for w in words_of(n, q)})
            assert list(orbit_keys(n, u)) == scan


def test_apply_degree_mismatch():
    f = SchurElement.identity(2, 2)
    with pytest.raises(DimensionMismatch):
        f.apply(TensorElement(3, {(1, 1, 1): 1}))


def test_apply_commutes_with_action_exhaustive():
    rng = random.Random(5)
    for n, q in [(2, 3), (3, 3), (2, 5)]:
        f = _rand_element(n, q, rng)
        t = TensorElement(q, {tuple(rng.randint(1, n) for _ in range(q)): rng.randint(-3, 3)
                              for _ in range(3)})
        for sigma in all_perms(q):
            assert f.apply(t.act(sigma)) == f.apply(t).act(sigma)


def test_equivariance_of_constructed_elements_q5():
    rng = random.Random(6)
    for n in (2, 3):
        for _ in range(5):
            f = _rand_element(n, 5, rng)
            assert schur_is_equivariant(f)


def test_is_equivariant_counterexamples():
    # the swap map commutes with the abelian degree-2 group
    swap = {w: TensorElement.from_word(act(w, (2, 1))) for w in words_of(2, 2)}
    assert is_equivariant(swap, 2, 2)
    # a single matrix unit does not extend equivariantly
    unit = {(1, 2): TensorElement.from_word((1, 2))}
    assert not is_equivariant(unit, 2, 2)


def _is_equivariant_exhaustive(colmap, q):
    """Reference for is_equivariant: commutation with every sigma in Sigma_q,
    including that no word outside the support is sent into it."""
    zero = TensorElement(q)
    support = {w for w, col in colmap.items() if not col.is_zero()}
    for sigma in all_perms(q):
        for w in support:
            if colmap.get(act(w, sigma), zero) != colmap[w].act(sigma):
                return False
        inv = perm_inverse(sigma)
        for w in support:
            if act(w, inv) not in support:
                return False
    return True


def test_is_equivariant_matches_exhaustive_oracle():
    rng = random.Random(21)
    verdicts = []
    for n, q in [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5)]:
        for _ in range(4):
            colmap = _rand_element(n, q, rng, entries=3).column_map()
            # one entry changed
            changed = dict(colmap)
            w = rng.choice(sorted(changed))
            x = tuple(rng.randint(1, n) for _ in range(q))
            changed[w] = changed[w] + TensorElement(q, {x: rng.choice([-1, 1])})
            # support cut to the words without letter 1 at position p: still
            # closed under the place permutations that fix p, so a check of
            # some generators only can pass it
            p = rng.randrange(q)
            restricted = {w: col for w, col in colmap.items() if w[p] != 1}
            for m in (colmap, changed, restricted):
                expected = _is_equivariant_exhaustive(m, q)
                assert is_equivariant(m, n, q) == expected, (n, q, m)
                verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_is_equivariant_guard():
    with pytest.raises(ResourceGuardExceeded):
        is_equivariant({}, 1, 9)


def test_compose_frozen():
    rng = random.Random(7)
    for n, q in [(2, 2), (3, 3)]:
        f = _rand_element(n, q, rng)
        ident = SchurElement.identity(n, q)
        zero = SchurElement.zero(n, q)
        assert ident.compose(f) == f
        assert f.compose(ident) == f
        assert f.compose(zero) == zero


def _column_map_compose(f, g, n, q):
    # oracle: dense column-by-column composition
    out = {}
    for w in words_of(n, q):
        image = f.apply(g.apply_word(w))
        if not image.is_zero():
            out[w] = image
    return out


def test_compose_matches_matrix_oracle_and_associativity():
    rng = random.Random(8)
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 4)]:
        f, g, h = (_rand_element(n, q, rng) for _ in range(3))
        fg = f.compose(g)
        oracle = _column_map_compose(f, g, n, q)
        assert fg.column_map() == oracle
        assert fg.compose(h) == f.compose(g.compose(h))


def test_basis_counts_match_oracle_and_formula():
    for n in (1, 2, 3):
        for q in range(0, 5):
            b = basis(n, q)
            assert len(b) == DIMS[n][q] == basis_dimension_formula(n, q)
            oracle = equivariant_basis_bruteforce(n, q)
            assert len(oracle) == len(b)


def test_basis_degree_zero_and_rank_one():
    assert len(basis(2, 0)) == 1
    assert len(basis(1, 3)) == 1


def test_every_bruteforce_map_decomposes_uniquely():
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for colmap in equivariant_basis_bruteforce(n, q):
            assert is_equivariant(colmap, n, q)
            elem = decompose_in_basis(colmap, n, q)
            assert elem is not None
            assert elem.column_map() == colmap


def test_decompose_roundtrip_on_random_combinations():
    rng = random.Random(15)
    for n, q in [(2, 3), (3, 2)]:
        f = _rand_element(n, q, rng, entries=4)
        assert decompose_in_basis(f.column_map(), n, q) == f


def test_decompose_rejects_non_equivariant():
    unit = {(1, 2): TensorElement.from_word((1, 2))}
    assert decompose_in_basis(unit, 2, 2) is None
    # nonzero only off the sorted words: the candidate is zero, the map is not
    unsorted = {(2, 1): TensorElement.from_word((2, 1))}
    assert decompose_in_basis(unsorted, 2, 2) is None


@pytest.mark.parametrize("n, q", [(2, 4), (3, 3)])
def test_bruteforce_classes_are_the_orbits_of_all_permutations(n, q):
    # the oracle unions along the adjacent transpositions only; its classes
    # must be the orbits of (row, col) pairs under every element of Sigma_q
    words = list(words_of(n, q))
    orbits = {frozenset((act(r, s), act(c, s)) for s in all_perms(q))
              for r in words for c in words}
    maps = equivariant_basis_bruteforce(n, q)
    classes = {frozenset((r, w) for w, col in m.items() for r, _ in col.items())
               for m in maps}
    assert len(maps) == len(orbits)
    assert classes == orbits


def test_bruteforce_dimension_matches_dense_nullspace():
    # cross-check the union-find oracle against dense rational elimination
    for n, q in [(2, 2), (2, 3)]:
        words = list(words_of(n, q))
        index = {w: i for i, w in enumerate(words)}
        N = len(words)
        rows = []
        for sigma in all_perms(q):
            moved = [index[act(w, sigma)] for w in words]
            for r in range(N):
                for c in range(N):
                    row = [0] * (N * N)
                    row[moved[r] * N + moved[c]] += 1
                    row[r * N + c] -= 1
                    if any(row):
                        rows.append(row)
        assert len(nullspace(rows)) == basis_dimension_formula(n, q)


def test_basis_elements_are_equivariant():
    for n, q in [(2, 3), (3, 2)]:
        for f in basis(n, q):
            assert schur_is_equivariant(f)


def test_apply_to_lie_identity():
    a = normalize(2, (1, 2))
    assert apply_to_lie(SchurElement.identity(2, 2), a) == a


def test_apply_to_lie_orbit_form():
    # the image of a monomial is an orbit-sum of same-shape monomials with
    # the coefficients read off the column at its letter word
    rng = random.Random(9)
    for n, q in [(2, 3), (3, 3)]:
        for tree in lyndon_basis(n, q):
            u = monomial_letters(tree)
            shape = shape_of(tree)
            f = _rand_element(n, q, rng)
            image = apply_to_lie(f, normalize(n, tree))
            col = f.apply_word(u)
            expected = None
            for v, c in col.items():
                term = normalize(n, monomial_from_shape(shape, v)).scale(c)
                expected = term if expected is None else expected + term
            if expected is None:
                expected = normalize(n, tree).scale(0)
            assert image == expected
            # coefficients are constant along the stabilizer classes of u
            seen = {}
            for v, c in col.items():
                key = tuple(sorted(zip(u, v)))
                assert seen.setdefault(key, c) == c


def test_specht_wever_commutation_fuzz():
    rng = random.Random(10)
    for n, q in [(2, 3), (3, 3), (3, 4)]:
        for _ in range(10):
            f = _rand_element(n, q, rng)
            for w in words_of(n, q):
                lhs = f.apply(embed(specht_wever(w, n)))
                rhs = embed(specht_wever(f.apply_word(w), n))
                assert lhs == rhs


def test_apply_to_lie_closure_fuzz():
    rng = random.Random(11)
    for n, q in [(2, 4), (3, 3)]:
        words = list(words_of(n, q))
        for _ in range(20):
            f = _rand_element(n, q, rng)
            a = specht_wever(TensorElement(q, {rng.choice(words): rng.randint(-3, 3)
                                               for _ in range(2)}), n)
            apply_to_lie(f, a)  # must not raise


def test_letter_substitution():
    n = 2
    ident = letter_substitution(n, 2, (1, 2))
    assert ident == SchurElement.identity(n, 2)
    zeta = letter_substitution(n, 2, (2, 1))
    assert zeta.apply_word((1, 1)) == TensorElement.from_word((2, 2))
    assert schur_is_equivariant(zeta)


def test_letter_substitution_composes():
    n, t = 3, 3
    for sigma in [(2, 1, 3), (2, 3, 1), (3, 1, 2)]:
        for tau in [(1, 3, 2), (3, 2, 1)]:
            from schurlie.words import perm_compose
            lhs = letter_substitution(n, t, sigma).compose(letter_substitution(n, t, tau))
            assert lhs == letter_substitution(n, t, perm_compose(sigma, tau))


def test_json_roundtrip():
    rng = random.Random(12)
    for n, q in [(2, 0), (2, 2), (3, 3)]:
        f = _rand_element(n, q, rng) if q else SchurElement.scalar(n, 5)
        payload = json.loads(json.dumps(f.to_json_dict()))
        assert SchurElement.from_json_dict(payload) == f


def test_orbit_data_roundtrip():
    rng = random.Random(13)
    for n, q in [(2, 3), (3, 2)]:
        f = _rand_element(n, q, rng, entries=4)
        data = {}
        for u in sorted_words(n, q):
            row = orbit_data_of_column(u, f.column(u))
            if row:
                data[u] = row
        assert SchurElement(n, q, data) == f


def test_orbit_data_rejects_non_invariant_column():
    # under u = (1, 1) the words (1, 2) and (2, 1) form one stabilizer orbit
    with pytest.raises(InternalInvariantError, match="not constant"):
        orbit_data_of_column((1, 1), TensorElement(2, {(1, 2): 1, (2, 1): 2}))
    with pytest.raises(InternalInvariantError, match="misses part"):
        orbit_data_of_column((1, 1), TensorElement(2, {(1, 2): 1}))


def test_linear_structure():
    rng = random.Random(14)
    f = _rand_element(2, 2, rng)
    g = _rand_element(2, 2, rng)
    t = TensorElement(2, {(1, 2): 1, (2, 2): 2})
    assert (f + g).apply(t) == f.apply(t) + g.apply(t)
    assert (f - f).is_zero()
    assert f.scale(3).apply(t) == f.apply(t).scale(3)


def test_bracketing_function_consistency_with_apply_to_lie():
    # applying an element inside the bracketing expansion agrees with the
    # group-ring route
    f = SchurElement(2, 3, {(1, 1, 2): {(1, 1, 2): 2}})
    shape = ((None, None), None)
    ring = bracketing_function(shape)
    for w in words_of(2, 3):
        lhs = f.apply(ring.apply(w))
        rhs = ring.apply(f.apply_word(w))
        assert lhs == rhs
