import math
from itertools import permutations, product

import pytest

from schurlie.errors import DimensionMismatch, InvalidArgument
from schurlie.words import (TensorElement, act, format_perm, multidegree,
                            orbit, perm_compose, perm_from_cycles,
                            perm_inverse, perm_sorting_onto, rearrangements,
                            sorted_rep, sorted_words, stabilizer_orbit_key,
                            tensor_product, words_of)


def all_perms(q):
    """All of Sigma_q in one-line notation, lexicographic order."""
    return permutations(range(1, q + 1))


def test_act_swap():
    # x1 (x) x2 under the transposition, also given as a list
    assert act((1, 2), (2, 1)) == (2, 1)
    assert act((1, 2), [2, 1]) == (2, 1)
    assert act((3,), [1]) == (3,)


def test_act_identity():
    assert act((1, 2, 3), (1, 2, 3)) == (1, 2, 3)


def test_act_three_cycle():
    # the cycle 1->2->3->1 moves letters (i,j,k) to (k,i,j)
    sigma = perm_from_cycles([(1, 2, 3)], 3)
    assert sigma == (2, 3, 1)
    assert act((1, 2, 3), sigma) == (3, 1, 2)


def test_act_length_mismatch():
    with pytest.raises(DimensionMismatch):
        act((1, 2, 3), (2, 1))


def _place_by_definition(w, sigma):
    """The action written out: position sigma(t) of the result holds w[t]."""
    out = [0] * len(w)
    for letter, target in zip(w, sigma):
        out[target - 1] = letter
    return tuple(out)


def test_act_matches_its_definition():
    # every sigma of sizes 0-6, on a word of distinct letters and on one with
    # repeated letters; a tensor holding both moves each word the same way
    for q in range(7):
        distinct = tuple(range(1, q + 1))
        repeated = (1, 2, 1, 3, 2, 1)[:q]
        words = {distinct, repeated}
        t = TensorElement(q, {w: c for c, w in enumerate(sorted(words), 1)})
        for sigma in all_perms(q):
            for w in words:
                assert act(w, sigma) == _place_by_definition(w, sigma), (w, sigma)
            assert t.act(sigma) == TensorElement(
                q, {_place_by_definition(w, sigma): c for w, c in t.items()})


def test_action_composition_law_small():
    # act(act(w, s), t) == act(w, t o s), exhaustively for q <= 4
    for q in range(1, 5):
        for w in product(range(1, 3), repeat=q):
            for s in all_perms(q):
                for t in all_perms(q):
                    assert act(act(w, s), t) == act(w, perm_compose(t, s))


def test_action_composition_law_q5_distinct_word():
    # the action only moves positions, so the law on the all-distinct word
    # pins it for every word of that length
    w = (1, 2, 3, 4, 5)
    for s in all_perms(5):
        for t in all_perms(5):
            assert act(act(w, s), t) == act(w, perm_compose(t, s))


def test_perm_inverse_and_cycles_roundtrip():
    for q in range(1, 6):
        for p in all_perms(q):
            assert perm_compose(p, perm_inverse(p)) == tuple(range(1, q + 1))
            rebuilt = perm_from_cycles([tuple(c) for c in _cycles(p)], q)
            assert rebuilt == p


def _cycles(p):
    from schurlie.words import perm_cycles
    return perm_cycles(p)


def test_format_perm():
    assert format_perm((1, 2, 3)) == "1"
    assert format_perm((2, 1, 3)) == "(1 2)"
    assert format_perm((2, 3, 1)) == "(1 2 3)"
    assert format_perm((2, 1, 4, 3)) == "(1 2)(3 4)"


def test_perm_from_cycles_rejects_repeats():
    with pytest.raises(InvalidArgument):
        perm_from_cycles([(1, 1)], 2)


def test_orbit_frozen_examples():
    assert orbit((1, 1)) == {(1, 1)}
    assert orbit((1, 2)) == {(1, 2), (2, 1)}
    assert orbit((1, 1, 2)) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}


def test_orbit_size_formula():
    for n, q in [(2, 3), (3, 3), (3, 4)]:
        for w in words_of(n, q):
            stab = sum(1 for s in all_perms(q) if act(w, s) == w)
            assert len(orbit(w)) == math.factorial(q) // stab


def test_orbit_partition_counts():
    # orbit sizes over sorted representatives add up to n^q
    for n in (1, 2, 3):
        for q in range(0, 6):
            total = sum(len(orbit(u)) for u in sorted_words(n, q))
            assert total == n ** q


def test_sorted_rep():
    assert sorted_rep((2, 1)) == (1, 2)
    assert sorted_rep((1, 1)) == (1, 1)
    assert sorted_rep((3, 1, 3)) == (1, 3, 3)
    for w in words_of(3, 4):
        u = sorted_rep(w)
        assert u in orbit(w)
        assert sorted_rep(u) == u


def test_multidegree():
    assert multidegree((1, 2, 1), 2) == (2, 1)
    assert multidegree((), 3) == (0, 0, 0)
    with pytest.raises(InvalidArgument):
        multidegree((4,), 3)


def test_orbits_match_multidegrees():
    # same orbit iff same multidegree, exhaustive at small sizes
    for n in (2, 3):
        for q in range(0, 6):
            for u in words_of(n, q):
                for v in words_of(n, q):
                    same_orbit = sorted_rep(u) == sorted_rep(v)
                    assert same_orbit == (multidegree(u, n) == multidegree(v, n))


def test_stabilizer_orbit_key_frozen():
    assert stabilizer_orbit_key((1, 1), (2, 1)) == (1, 2)
    assert stabilizer_orbit_key((1, 2), (2, 1)) == (2, 1)
    assert stabilizer_orbit_key((1, 1, 2), (3, 1, 2)) == (1, 3, 2)


def test_stabilizer_orbit_key_requires_sorted():
    with pytest.raises(InvalidArgument):
        stabilizer_orbit_key((2, 1), (1, 2))


def test_stabilizer_orbit_key_rejects_length_mismatch():
    # zip would silently drop the unmatched position
    with pytest.raises(DimensionMismatch):
        stabilizer_orbit_key((1, 1), (1,))


def test_stabilizer_orbit_key_matches_bruteforce():
    # key equality must agree with membership in the same stabilizer orbit;
    # the stabilizer is taken by brute force over all of Sigma_q
    for n in (2, 3):
        for q in range(1, 6):
            for u in sorted_words(n, q):
                stab = [s for s in all_perms(q) if act(u, s) == u]
                assert len(stab) == math.prod(math.factorial(u.count(a)) for a in set(u))
                for w in words_of(n, q):
                    orb = {act(w, s) for s in stab}
                    key = stabilizer_orbit_key(u, w)
                    assert key in orb
                    assert all(stabilizer_orbit_key(u, v) == key for v in orb)


def test_rearrangements_match_permutations():
    for n, q in [(3, 4), (2, 6), (4, 3), (1, 2), (2, 0)]:
        for w in words_of(n, q):
            assert rearrangements(w) == sorted(set(permutations(w)))


def test_perm_sorting_onto():
    for w in words_of(3, 4):
        u = sorted_rep(w)
        sigma = perm_sorting_onto(u, w)
        assert act(u, sigma) == w
        # the stable sigma: equal letters of u keep their order in w
        stable = tuple(t + 1 for _, t in sorted((a, t) for t, a in enumerate(w)))
        assert sigma == stable
    with pytest.raises(InvalidArgument):
        perm_sorting_onto((1, 2), (1, 1))
    with pytest.raises(InvalidArgument):
        perm_sorting_onto((2, 1), (1, 2))


def test_tensor_arithmetic():
    t = TensorElement(2, {(1, 2): 2, (2, 1): -1})
    s = TensorElement(2, {(1, 2): -2})
    assert (t + s).items() == [((2, 1), -1)]
    assert (t - t).is_zero()
    assert (3 * t).coeff((1, 2)) == 6
    assert t.scale(0).is_zero()
    assert (-t).coeff((2, 1)) == 1
    with pytest.raises(DimensionMismatch):
        t + TensorElement(3)
    with pytest.raises(DimensionMismatch):
        TensorElement(2, {(1, 2, 3): 1})
    with pytest.raises(InvalidArgument):
        TensorElement(2, {(1, 0): 1})
    with pytest.raises(DimensionMismatch):
        t.act((1, 2, 3))


def test_tensor_act_linear():
    t = TensorElement(2, {(1, 2): 1, (1, 1): 4})
    swapped = t.act((2, 1))
    assert swapped.coeff((2, 1)) == 1
    assert swapped.coeff((1, 1)) == 4
    assert t.act([2, 1]) == swapped


def test_tensor_product():
    a = TensorElement(1, {(1,): 1, (2,): -1})
    b = TensorElement(1, {(1,): 1})
    ab = tensor_product(a, b)
    assert ab.items() == [((1, 1), 1), ((2, 1), -1)]
    empty = TensorElement.from_word(())
    assert tensor_product(empty, a) == a
