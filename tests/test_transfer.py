import random
from itertools import combinations, permutations, product

import pytest

from schurlie.errors import DimensionMismatch, InvalidArgument
from schurlie.schur import (SchurElement, orbit_data_of_column, orbit_keys,
                            schur_is_equivariant)
from schurlie.transfer import (GradedSchurElement, boxtimes, coset_id,
                               coset_transversal, is_left_transversal,
                               multinomial, operad_compose, random_transversal,
                               star, transfer, transversal_by_product,
                               young_subgroup)
from schurlie.words import (TensorElement, act, perm_inverse, sorted_words,
                            tensor_product, words_of)


def _rand_element(n, q, rng, entries=2):
    if q == 0:
        return SchurElement.scalar(n, rng.randint(-3, 3))
    us = list(sorted_words(n, q))
    data = {}
    for _ in range(entries):
        u = rng.choice(us)
        key = rng.choice(orbit_keys(n, u))
        data.setdefault(u, {})[key] = rng.choice([-3, -2, -1, 1, 2, 3])
    return SchurElement(n, q, data)


def test_transversal_frozen():
    assert coset_transversal((3,)) == [(1, 2, 3)]
    assert sorted(coset_transversal((1, 1))) == [(1, 2), (2, 1)]
    assert len(coset_transversal((2, 1))) == 3
    assert multinomial((2, 1)) == 3


def test_transversal_validity_and_minimality():
    for parts in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 2), (3, 2)]:
        reps = coset_transversal(parts)
        assert is_left_transversal(reps, parts)
        # shuffle representatives are increasing on each source block
        start = 0
        for a in parts:
            for sigma in reps:
                images = [sigma[t] for t in range(start, start + a)]
                assert images == sorted(images)
            start += a


def _compositions(d):
    """Every composition of d, as tuples of positive parts."""
    if d == 0:
        return [()]
    return [(a,) + rest for a in range(1, d + 1) for rest in _compositions(d - a)]


def _block_image_sets(sigma, parts):
    images, start = [], 0
    for a in parts:
        images.append(frozenset(sigma[start:start + a]))
        start += a
    return tuple(images)


def test_transversal_equals_block_increasing_permutations():
    # brute force: the minimal-length representatives are exactly the
    # permutations increasing on every block
    for d in range(1, 7):
        for parts in _compositions(d):
            expected = set()
            for sigma in permutations(range(1, d + 1)):
                start = 0
                for a in parts:
                    if list(sigma[start:start + a]) != sorted(sigma[start:start + a]):
                        break
                    start += a
                else:
                    expected.add(sigma)
            reps = coset_transversal(parts)
            assert len(reps) == len(expected) and set(reps) == expected, parts


def test_coset_id_matches_block_image_sets():
    # equal coset_id exactly when the tuples of block image sets are equal:
    # the pairs (id, sets) over all of Sigma_d define a bijection
    for d in range(1, 7):
        for parts in _compositions(d):
            pairs = {(coset_id(sigma, parts), _block_image_sets(sigma, parts))
                     for sigma in permutations(range(1, d + 1))}
            assert (len(pairs) == len({a for a, _ in pairs})
                    == len({b for _, b in pairs}) == multinomial(parts)), parts


def test_young_subgroup_size():
    from math import factorial, prod
    for parts in [(2, 1), (2, 2), (1, 3)]:
        assert len(young_subgroup(parts)) == prod(factorial(a) for a in parts)
    # order too, as random_transversal's draws depend on it: each block's
    # permutations of its own positions, taken in product order
    for d in range(1, 7):
        for k in range(d):
            for cuts in combinations(range(1, d), k):
                bounds = (0, *cuts, d)
                blocks = list(zip(bounds, bounds[1:]))
                expected = [sum(pieces, ()) for pieces in product(
                    *(permutations(range(i + 1, j + 1)) for i, j in blocks))]
                assert young_subgroup([j - i for i, j in blocks]) == expected, cuts


def test_product_construction_transversal():
    for parts in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (1, 2, 1)]:
        built = transversal_by_product(parts)
        assert is_left_transversal(built, parts)


def test_random_transversal_is_transversal():
    rng = random.Random(3)
    for parts in [(2, 1), (1, 1, 2)]:
        reps = random_transversal(parts, rng)
        assert is_left_transversal(reps, parts)
        canonical = coset_transversal(parts)
        assert ({coset_id(s, parts) for s in reps}
                == {coset_id(s, parts) for s in canonical})


def test_transfer_single_part_is_identity_map():
    rng = random.Random(4)
    f = _rand_element(2, 3, rng)
    assert transfer((3,), [f]) == f


def test_transfer_of_identities_frozen():
    id1 = SchurElement.identity(2, 1)
    assert transfer((1, 1), [id1, id1]) == SchurElement.identity(2, 2).scale(2)


def test_transfer_argument_errors():
    id1 = SchurElement.identity(2, 1)
    with pytest.raises(DimensionMismatch):
        transfer((2, 1), [id1, id1])
    with pytest.raises(InvalidArgument):
        transfer((1,), [id1, id1])
    with pytest.raises(InvalidArgument):
        transfer((1, 0), [id1, id1])
    with pytest.raises(DimensionMismatch):
        transfer((1, 1), [id1, SchurElement.identity(3, 1)])
    with pytest.raises(InvalidArgument):
        transfer((1, 1), [id1, id1], transversal=[(1, 2), (1, 1)])
    with pytest.raises(DimensionMismatch):
        transfer((1, 1), [id1, id1], transversal=[(1, 2, 3)])


def test_transfer_rejects_non_transversal():
    # one coset missed, and one coset counted twice
    id1 = SchurElement.identity(2, 1)
    for perms in ([(1, 2)], [(1, 2), (2, 1), (1, 2)]):
        with pytest.raises(InvalidArgument, match="transversal"):
            transfer((1, 1), [id1, id1], transversal=perms)


def test_transfer_transversal_independence():
    rng = random.Random(5)
    for n in (2, 3):
        for parts in [(1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 3)]:
            fs = [_rand_element(n, a, rng) for a in parts]
            base = transfer(parts, fs)
            assert base == transfer(parts, fs, transversal=random_transversal(parts, rng))
            assert base == transfer(parts, fs, transversal=transversal_by_product(parts))


def test_transfer_lands_in_equivariants():
    rng = random.Random(6)
    for parts in [(1, 2), (2, 2)]:
        fs = [_rand_element(2, a, rng) for a in parts]
        assert schur_is_equivariant(transfer(parts, fs))


def test_star_degree_one_commutes():
    rng = random.Random(7)
    f = _rand_element(3, 1, rng)
    g = _rand_element(3, 1, rng)
    assert star(f, g) == star(g, f)


def test_star_scalars():
    rng = random.Random(8)
    g = _rand_element(2, 2, rng)
    one = SchurElement.scalar(2, 1)
    assert star(one, g) == g
    assert star(g, one) == g
    assert star(SchurElement.scalar(2, -2), g) == g.scale(-2)
    assert star(SchurElement.scalar(2, 3), SchurElement.scalar(2, 4)).scalar_value == 12


def test_star_laws_random():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.choice([2, 3])
        a, b, c = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 1)
        f = _rand_element(n, a, rng)
        g = _rand_element(n, b, rng)
        h = _rand_element(n, c, rng)
        assert star(f, g) == star(g, f)
        assert star(star(f, g), h) == star(f, star(g, h))
        assert star(star(f, g), h) == transfer((a, b, c), [f, g, h])
        g2 = _rand_element(n, b, rng)
        assert star(f, g + g2) == star(f, g) + star(f, g2)


def test_boxtimes_unit_and_scalar():
    rng = random.Random(10)
    g = GradedSchurElement.of(_rand_element(2, 2, rng))
    one = GradedSchurElement.scalar(2, 1)
    assert boxtimes(one, g) == g
    assert boxtimes(GradedSchurElement.scalar(2, 5), g) == GradedSchurElement(
        2, {2: g.component(2).scale(5)})


def test_boxtimes_graded_components():
    rng = random.Random(11)
    f1 = _rand_element(2, 1, rng)
    f2 = _rand_element(2, 2, rng)
    g1 = _rand_element(2, 1, rng)
    F = GradedSchurElement.of(f1, f2)
    G = GradedSchurElement.of(g1)
    prod = boxtimes(F, G)
    assert prod.component(2) == star(f1, g1)
    assert prod.component(3) == star(f2, g1)
    assert prod.degrees() == [2, 3]
    with pytest.raises(DimensionMismatch):
        F + GradedSchurElement.of(_rand_element(3, 1, rng))


def test_boxtimes_accepts_plain_elements():
    rng = random.Random(12)
    f = _rand_element(2, 1, rng)
    g = _rand_element(2, 1, rng)
    assert boxtimes(f, g).component(2) == star(f, g)


def test_boxtimes_associative_across_degrees():
    rng = random.Random(17)
    F = GradedSchurElement.of(_rand_element(2, 0, rng), _rand_element(2, 1, rng))
    G = GradedSchurElement.of(_rand_element(2, 1, rng))
    H = GradedSchurElement.of(_rand_element(2, 0, rng), _rand_element(2, 2, rng))
    lhs, rhs = boxtimes(boxtimes(F, G), H), boxtimes(F, boxtimes(G, H))
    assert lhs == rhs and hash(lhs) == hash(rhs)


def test_star_with_zero_factor():
    rng = random.Random(18)
    f = _rand_element(2, 2, rng)
    assert star(f, SchurElement.zero(2, 1)).is_zero()
    assert star(SchurElement.scalar(2, 0), f).is_zero()


def _direct_sum(fs, parts, transversal, u):
    """The defining sum of transfer evaluated on the word u."""
    d = sum(parts)
    direct = TensorElement(d)
    for sigma in transversal:
        v = act(u, perm_inverse(sigma))
        piece = TensorElement.from_word(())
        pos = 0
        for f, a in zip(fs, parts):
            piece = tensor_product(piece, f.apply_word(v[pos:pos + a]))
            pos += a
        direct = direct + piece.act(sigma)
    return direct


def test_transfer_matches_direct_evaluation_on_all_words():
    # the orbit-form result extends equivariantly; evaluating the defining
    # sum directly on every basis word (not only the sorted ones) must agree,
    # for every kind of transversal
    rng = random.Random(19)
    for n, parts in [(2, (1, 1)), (2, (2, 1)), (3, (1, 2)), (2, (2, 2)),
                     (3, (1, 1, 1)), (2, (2, 1, 1)), (2, (1, 2, 1))]:
        fs = [_rand_element(n, a, rng) for a in parts]
        d = sum(parts)
        for transversal in (coset_transversal(parts), random_transversal(parts, rng),
                            transversal_by_product(parts)):
            result = transfer(parts, fs, transversal=transversal)
            for u in words_of(n, d):
                assert result.apply_word(u) == _direct_sum(fs, parts, transversal, u), \
                    (n, parts, transversal, u)


def _transfer_full_scan(parts, fs, transversal):
    """transfer read off the defining sum at every sorted word, not only at
    the sorted letters of one support word per factor."""
    n, d = fs[0].n, sum(parts)
    data = {}
    for u in sorted_words(n, d):
        column = _direct_sum(fs, parts, transversal, u)
        if not column.is_zero():
            data[u] = orbit_data_of_column(u, column)
    return SchurElement(n, d, data)


def test_transfer_support_loop_matches_full_scan():
    rng = random.Random(27)
    cases = [(2, (1, 1)), (2, (2, 1)), (3, (1, 2)), (3, (2, 2)), (2, (3, 1)),
             (3, (1, 1, 1)), (2, (2, 1, 1)), (3, (1, 2, 1))]
    for n, parts in cases:
        for _ in range(3):
            fs = [_rand_element(n, a, rng, entries=rng.randint(1, 3)) for a in parts]
            canonical = coset_transversal(parts)
            for given, transversal in ((None, canonical), (canonical, canonical),
                                       (random_transversal(parts, rng),) * 2,
                                       (transversal_by_product(parts),) * 2):
                got = transfer(parts, fs, transversal=given)
                want = _transfer_full_scan(parts, fs, transversal)
                assert got == want, (n, parts, transversal)
                # the pairs come in sorted-word order
                assert [u for u, _ in got._coeffs] == [u for u, _ in want._coeffs]
        # a factor with an empty support makes every column zero
        empty = rng.randrange(len(parts))
        fs = [SchurElement.zero(n, a) if i == empty else _rand_element(n, a, rng)
              for i, a in enumerate(parts)]
        got = transfer(parts, fs)
        assert got.is_zero() and got == _transfer_full_scan(parts, fs, coset_transversal(parts))


def test_transfer_getters_and_product_memo_match_oracles():
    # one case per way the per-sigma placers, the merge path or the per-u
    # product memo could go wrong: degree 1, where sigma and its placers are
    # the identity; degree 5 with two and with four parts; and factors whose
    # supports share sorted words, so that many sigma read the same blocks
    # off one u.  The default transversal (None) places each product of
    # support columns by the shuffles that merge it, with placer pairs from
    # the per-composition cache; a given one, the canonical one included,
    # collects its own and sums sigma by sigma, with the per-u memo
    rng = random.Random(28)
    shared = {1: {(1,): {(1,): 2, (2,): -1}},
              2: {(1, 1): {(1, 2): 1, (1, 1): 3}, (1, 2): {(2, 1): -2}},
              3: {(1, 1, 1): {(1, 1, 2): 1}, (1, 1, 2): {(1, 1, 2): -1, (2, 2, 1): 2}}}
    cases = [(2, (1,), None), (3, (1,), None), (2, (2, 3), None),
             (2, (1, 1, 1, 2), None), (2, (2, 3), shared), (2, (1, 1, 1, 2), shared),
             (2, (1, 2, 1), shared)]
    for n, parts, data in cases:
        fs = [SchurElement(n, a, data[a]) if data else
              _rand_element(n, a, rng, entries=rng.randint(1, 3)) for a in parts]
        d = sum(parts)
        canonical = coset_transversal(parts)
        for given, transversal in ((None, canonical), (canonical, canonical),
                                   (None, canonical),
                                   (random_transversal(parts, rng),) * 2,
                                   (transversal_by_product(parts),) * 2):
            got = transfer(parts, fs, transversal=given)
            assert got == _transfer_full_scan(parts, fs, transversal), (n, parts)
            for w in words_of(n, d):
                assert got.apply_word(w) == _direct_sum(fs, parts, transversal, w), \
                    (n, parts, transversal, w)
        if data:
            # the memo is hit: some column has fewer distinct blocks than sigmas
            u = (1,) * (d - 1) + (2,)
            transversal = coset_transversal(parts)
            assert len({act(u, perm_inverse(s)) for s in transversal}) < len(transversal)
            assert not got.is_zero()


def _merges(parts, fs):
    """Per tuple of the factors' support words, the canonical sigma that read
    its concatenation off its sorted letters: the shuffles that merge it."""
    transversal = coset_transversal(parts)
    out = {}
    for us in product(*({u for u, _ in f._coeffs} for f in fs)):
        v = sum(us, ())
        u = tuple(sorted(v))
        out[us] = [s for s in transversal if act(u, perm_inverse(s)) == v]
    return out


def _shared_letters(n, a, rng):
    """An element whose sorted words are 1^a and 1^(a-1) 2: factors built
    this way share letters, so their blocks merge in many ways."""
    data = {}
    for u in {(1,) * a, (1,) * (a - 1) + (2,)}:
        keys = orbit_keys(n, u)
        data[u] = {key: rng.choice([-3, -2, -1, 1, 2, 3])
                   for key in rng.sample(keys, min(2, len(keys)))}
    return SchurElement(n, a, data)


def test_merge_path_matches_canonical_transversal_loop():
    # transversal=None builds each column from the tuples of support words
    # and the shuffles that merge them; the canonical transversal given
    # explicitly runs the sigma-by-sigma loop, applying each factor to
    # unsorted blocks, so the two are different algorithms
    rng = random.Random(29)
    cases = [(2, (1, 1)), (3, (2, 1)), (2, (2, 3)), (3, (1, 2)), (3, (1, 2, 1)),
             (2, (2, 1, 2)), (3, (1, 1, 1)), (2, (1, 1, 1, 1)), (3, (1, 1, 2, 1)),
             (2, (2, 1, 1, 2))]
    most = 0
    for n, parts in cases:
        canonical = coset_transversal(parts)
        draws = [[_rand_element(n, a, rng, entries=rng.randint(1, 4)) for a in parts]
                 for _ in range(4)]
        draws.append([_shared_letters(n, a, rng) for a in parts])
        zero = rng.randrange(len(parts))
        draws.append([SchurElement.zero(n, a) if i == zero else _shared_letters(n, a, rng)
                      for i, a in enumerate(parts)])
        for fs in draws:
            got = transfer(parts, fs)
            want = transfer(parts, fs, transversal=canonical)
            assert got == want, (n, parts)
            assert [u for u, _ in got._coeffs] == [u for u, _ in want._coeffs]
            merges = _merges(parts, fs)
            assert all(merges.values()), (n, parts)
            most = max(most, *(len(m) for m in merges.values()), 0)
        assert transfer(parts, draws[-1]).is_zero()
    # some tuple of support words merges into its sorted letters in more
    # than one way, so each of its merges counts
    assert most >= 2


def test_operad_identity_axioms():
    rng = random.Random(13)
    one = SchurElement.scalar(3, 1)
    for q in (0, 1, 2):
        theta = _rand_element(3, q, rng)
        assert operad_compose(theta, [one] * (q + 1)) == theta
        assert operad_compose(one, [theta]) == theta


def test_operad_arity_mismatch():
    rng = random.Random(14)
    theta = _rand_element(2, 2, rng)  # arity 3
    with pytest.raises(InvalidArgument):
        operad_compose(theta, [SchurElement.scalar(2, 1)] * 2)


def test_operad_coherence_instance():
    rng = random.Random(15)
    theta = _rand_element(2, 1, rng)           # arity 2
    t1 = _rand_element(2, 1, rng)              # arity 2
    t2 = SchurElement.scalar(2, 2)             # arity 1
    inner1 = [_rand_element(2, 1, rng), SchurElement.scalar(2, 1)]
    inner2 = [_rand_element(2, 0, rng)]
    lhs = operad_compose(theta, [operad_compose(t1, inner1),
                                 operad_compose(t2, inner2)])
    rhs = operad_compose(operad_compose(theta, [t1, t2]), inner1 + inner2)
    assert lhs == rhs


def test_operad_result_degree_bookkeeping():
    rng = random.Random(16)
    theta = _rand_element(2, 2, rng)           # arity 3
    args = [_rand_element(2, 1, rng), SchurElement.scalar(2, 1),
            _rand_element(2, 2, rng)]          # arities 2, 1, 3
    out = operad_compose(theta, args)
    # result arity 2+1+3 = 6, so degree 5
    assert out.q == 5
