import random
from itertools import cycle, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from full_width_closure import full_width_lattices, leibniz_letter_table
from rational_linalg import rank
from schurlie import derivations
from schurlie.derivations import (Derivation, _block_rows, _blocks,
                                  _divided_powers, _merged_divisors,
                                  apply_derivation,
                                  commutator_derivation,
                                  conjugating_derivation, der_bracket,
                                  find_annihilating_schur, gamma_generators,
                                  generator_derivation, mtilde_generators,
                                  schur_act, schur_closure_rank)
from schurlie.errors import (DimensionMismatch, InternalInvariantError,
                             InvalidArgument, ResourceGuardExceeded)
from schurlie.freelie import (LieElement, embed, generator, lie_bracket,
                              lyndon_basis, lyndon_bracketing, lyndon_words,
                              normalize, witt_dimension, zero_lie)
from schurlie.linalg import IntegerLattice
from schurlie.schur import (SchurElement, apply_to_lie, basis,
                            basis_dimension_formula, letter_substitution,
                            orbit_keys, schur_is_equivariant)
from schurlie.words import (TensorElement, _placer_onto, _placers_onto,
                            multidegree, rearrangements, sorted_rep,
                            sorted_words, stabilizer_orbit_key, words_of)


def _random_lie(rng, n, p, terms=2):
    words = lyndon_words(n, p)
    coeffs = {}
    for _ in range(terms):
        w = rng.choice(words)
        coeffs[w] = coeffs.get(w, 0) + rng.randint(-3, 3)
    return LieElement(n, p, coeffs)


def _random_derivation(rng, n, p):
    return Derivation(n, p, tuple(_random_lie(rng, n, p) for _ in range(n)))


def derivation_to_vector(D):
    """Block k of the vector holds the Lyndon coordinates of the image of
    x_{k+1}."""
    words = lyndon_words(D.n, D.degree)
    vec = []
    for img in D.images:
        vec.extend(img.coeff(w) for w in words)
    return vec


def derivation_from_vector(n, degree, vec, words=None):
    """The inverse of derivation_to_vector, or, given words, of a row whose
    slot k holds the coordinates of the image of x_{k+1} at those words."""
    if words is None:
        words = lyndon_words(n, degree)
    W = len(words)
    return Derivation(n, degree, [
        LieElement(n, degree, {w: c for w, c in zip(words, vec[base:base + W]) if c})
        for base in range(0, n * W, W)])


def test_conjugating_derivation_images():
    d = conjugating_derivation(3, 1, 2)
    assert d.image(1) == normalize(3, (1, 2))
    assert d.image(2).is_zero()
    assert d.image(3).is_zero()
    assert conjugating_derivation(3, 2, 1).image(1).is_zero()
    assert d != conjugating_derivation(3, 2, 1)


def test_conjugating_derivation_errors():
    with pytest.raises(InvalidArgument):
        conjugating_derivation(3, 1, 1)
    with pytest.raises(InvalidArgument):
        conjugating_derivation(2, 1, 3)


def test_commutator_derivation_images():
    d = commutator_derivation(3, 3, 1, 2)
    assert d.image(3) == normalize(3, (1, 2))
    assert d.image(1).is_zero()
    assert apply_derivation(commutator_derivation(3, 1, 2, 3), generator(3, 2)).is_zero()


def test_commutator_derivation_errors():
    with pytest.raises(InvalidArgument):
        commutator_derivation(3, 1, 1, 2)
    with pytest.raises(InvalidArgument):
        commutator_derivation(3, 1, 3, 2)
    with pytest.raises(InvalidArgument):
        commutator_derivation(2, 1, 2, 3)


def test_generator_sets():
    assert len(mtilde_generators(3)) == 9
    assert len(mtilde_generators(2)) == 2
    gamma = gamma_generators(3)
    assert gamma == [conjugating_derivation(3, 1, 2),
                     conjugating_derivation(3, 2, 3),
                     conjugating_derivation(3, 3, 1)]


def test_generator_derivation_basics():
    w = normalize(3, (1, 2))
    assert generator_derivation(1, w) == conjugating_derivation(3, 1, 2)
    assert generator_derivation(2, zero_lie(3, 2)).is_zero()


def test_generator_derivations_span():
    # coordinate vectors over (index, basis monomial) have full rank
    for n, p in [(2, 3), (3, 2)]:
        vecs = []
        for i in range(1, n + 1):
            for tree in lyndon_basis(n, p):
                vecs.append(derivation_to_vector(
                    generator_derivation(i, normalize(n, tree))))
        assert rank(vecs) == n * witt_dimension(n, p)


def test_apply_derivation_single_step():
    # one Leibniz step on [x_i, x_k] with only x_i moving
    d = conjugating_derivation(3, 1, 2)
    assert apply_derivation(d, normalize(3, (1, 3))) == normalize(3, ((1, 2), 3))


def test_apply_derivation_on_generator():
    d = conjugating_derivation(3, 1, 2)
    assert apply_derivation(d, generator(3, 1)) == normalize(3, (1, 2))
    assert apply_derivation(d, generator(3, 3)).is_zero()
    for tree in (5, (1, 4)):
        with pytest.raises(InvalidArgument):
            apply_derivation(d, tree)


def test_apply_derivation_nested_with_alternating_term():
    # chi_12 on [[x1,x3],x1]: the Leibniz expansion keeps the cross bracket
    d = conjugating_derivation(3, 1, 2)
    value = apply_derivation(d, normalize(3, ((1, 3), 1)))
    expected = normalize(3, [(1, (((1, 2), 3), 1)), (1, ((1, 3), (1, 2)))])
    assert value == expected


def test_leibniz_rule_fuzz():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.choice([2, 3])
        D = _random_derivation(rng, n, 2)
        a = _random_lie(rng, n, rng.randint(1, 2))
        b = _random_lie(rng, n, rng.randint(1, 2))
        lhs = apply_derivation(D, lie_bracket(a, b))
        rhs = (lie_bracket(apply_derivation(D, a), b)
               + lie_bracket(a, apply_derivation(D, b)))
        assert lhs == rhs


def _leibniz_on_tree(D, tree):
    """Leibniz rule applied node by node down a bracket tree, each subtree
    normalized and every bracket taken in the free Lie algebra: the oracle
    for the tensor-algebra evaluation in apply_derivation."""
    if isinstance(tree, int):
        return D.image(tree)
    left, right = tree
    return (lie_bracket(_leibniz_on_tree(D, left), normalize(D.n, right))
            + lie_bracket(normalize(D.n, left), _leibniz_on_tree(D, right)))


def _leibniz_oracle(D, a):
    out = zero_lie(D.n, a.degree + D.degree - 1)
    for w, c in a.items():
        out = out + _leibniz_on_tree(D, lyndon_bracketing(w)).scale(c)
    return out


def _random_tree(rng, n, degree):
    """A bracket tree with random letters and a random shape, so most trees
    are not standard Lyndon bracketings, and some are zero."""
    if degree == 1:
        return rng.randint(1, n)
    split = rng.randint(1, degree - 1)
    return (_random_tree(rng, n, split), _random_tree(rng, n, degree - split))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_apply_derivation_and_bracket_match_tree_recursion(n):
    rng = random.Random(40 + n)
    non_lyndon = 0
    for _ in range(12):
        D = _random_derivation(rng, n, rng.randint(1, 4))
        E = _random_derivation(rng, n, rng.randint(1, 4))
        for degree in range(1, 6):
            tree = _random_tree(rng, n, degree)
            non_lyndon += tree not in lyndon_basis(n, degree)
            assert apply_derivation(D, tree) == _leibniz_on_tree(D, tree)
            a = _random_lie(rng, n, degree, terms=3)
            assert apply_derivation(D, a) == _leibniz_oracle(D, a)
        expected = Derivation(n, D.degree + E.degree - 1, tuple(
            _leibniz_oracle(D, E.image(k)) - _leibniz_oracle(E, D.image(k))
            for k in range(1, n + 1)))
        assert der_bracket(D, E) == expected
    assert non_lyndon >= 12


def test_der_bracket_degree_and_alternation():
    rng = random.Random(22)
    D = _random_derivation(rng, 3, 2)
    E = _random_derivation(rng, 3, 3)
    assert der_bracket(D, E).degree == 4
    assert der_bracket(D, D).is_zero()
    assert der_bracket(D, E) == -der_bracket(E, D)


def test_der_bracket_jacobi_fuzz():
    rng = random.Random(23)
    for _ in range(8):
        n = 2
        D, E, F = (_random_derivation(rng, n, 2) for _ in range(3))
        jac = (der_bracket(D, der_bracket(E, F))
               + der_bracket(E, der_bracket(F, D))
               + der_bracket(F, der_bracket(D, E)))
        assert jac.is_zero()


def test_commutation_identity_concrete():
    # i=1, j=2, u=[x2,x3]: bracketing against the u-loaded generator
    # derivation splits into the two expected generator derivations
    n = 3
    chi = conjugating_derivation(n, 1, 2)
    u = normalize(n, (2, 3))
    lhs = der_bracket(chi, generator_derivation(2, u))
    rhs = (-generator_derivation(1, lie_bracket(generator(n, 1), u))
           + generator_derivation(2, apply_derivation(chi, u)))
    assert lhs == rhs


def test_commutation_identity_exhaustive():
    n = 3
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            chi = conjugating_derivation(n, i, j)
            for k in range(1, 5):
                for tree in lyndon_basis(n, k):
                    u = normalize(n, tree)
                    lhs = der_bracket(chi, generator_derivation(j, u))
                    rhs = (-generator_derivation(i, lie_bracket(generator(n, i), u))
                           + generator_derivation(j, apply_derivation(chi, u)))
                    assert lhs == rhs


def _left_normed_derivation(n, i, js):
    d = conjugating_derivation(n, i, js[0])
    for j in js[1:]:
        d = der_bracket(d, conjugating_derivation(n, i, j))
    return d


def _left_normed_tree(letters):
    tree = letters[0]
    for a in letters[1:]:
        tree = (tree, a)
    return tree


def test_left_normed_evaluation_formula():
    # u = [chi_{i,j1},...,chi_{i,jr}] sends x_i to [x_i, substituted word]
    n = 3
    for i in range(1, 4):
        others = [j for j in range(1, 4) if j != i]
        for r in range(1, 5):
            for js in product(others, repeat=r):
                u = _left_normed_derivation(n, i, js)
                if r == 1:
                    expected = normalize(n, (i, js[0]))
                else:
                    expected = lie_bracket(generator(n, i),
                                           normalize(n, _left_normed_tree(js)))
                assert u.image(i) == expected
                for k in range(1, 4):
                    if k != i:
                        assert u.image(k).is_zero()


def _all_trees(letters):
    if len(letters) == 1:
        yield letters[0]
        return
    for split in range(1, len(letters)):
        for lt in _all_trees(letters[:split]):
            for rt in _all_trees(letters[split:]):
                yield (lt, rt)


def _eval_tree(tree, leafmap):
    if not isinstance(tree, tuple):
        return leafmap[tree]
    return der_bracket(_eval_tree(tree[0], leafmap),
                       _eval_tree(tree[1], leafmap))


def test_substitution_identity_exhaustive():
    # monomials in chi_{i,j} and chi_{i,j'} agree with the same monomials
    # after replacing chi_{i,j'} by -chi_{j,j'}
    n = 3
    for (i, j, jp) in permutations(range(1, 4), 3):
        table = {"A": conjugating_derivation(n, i, j),
                 "B": conjugating_derivation(n, i, jp)}
        table_hat = {"A": table["A"],
                     "B": conjugating_derivation(n, j, jp).scale(-1)}
        for m in (2, 3, 4):
            for word in product("AB", repeat=m):
                for tree in _all_trees(word):
                    assert _eval_tree(tree, table) == _eval_tree(tree, table_hat)


def test_schur_act_identity_and_mismatch():
    rng = random.Random(24)
    D = _random_derivation(rng, 2, 2)
    assert schur_act(SchurElement.identity(2, 2), D) == D
    with pytest.raises(DimensionMismatch):
        schur_act(SchurElement.identity(2, 3), D)


def test_schur_act_module_axioms():
    rng = random.Random(25)
    for n, q in [(2, 2), (3, 2), (2, 3)]:
        us = list(sorted_words(n, q))
        def rnd():
            data = {}
            for _ in range(2):
                u = rng.choice(us)
                key = rng.choice(orbit_keys(n, u))
                data.setdefault(u, {})[key] = rng.choice([-2, -1, 1, 2])
            return SchurElement(n, q, data)
        f, g = rnd(), rnd()
        D = _random_derivation(rng, n, q)
        E = _random_derivation(rng, n, q)
        assert schur_act(f, D + E) == schur_act(f, D) + schur_act(f, E)
        assert schur_act(f + g, D) == schur_act(f, D) + schur_act(g, D)
        assert schur_act(f.compose(g), D) == schur_act(f, schur_act(g, D))


def test_schur_act_acts_image_by_image():
    # the pair-wise action equals apply_to_lie on each generator image, and
    # its trusted result stores no zero coefficient
    rng = random.Random(26)
    for n, q in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        for _ in range(3):
            f = SchurElement(n, q, {u: {rng.choice(orbit_keys(n, u)): rng.randint(-2, 2)}
                                    for u in rng.sample(list(sorted_words(n, q)), 3)})
            D = _random_derivation(rng, n, q)
            acted = schur_act(f, D)
            assert acted == Derivation(n, q, [apply_to_lie(f, img) for img in D.images])
            assert all(acted._coeffs.values())
        assert schur_act(SchurElement.zero(n, q), D).is_zero()


def test_schur_act_relabeling_instance():
    # relabeling 1<->2 turns the [x1,v]-image derivation into the
    # [x2,u]-image one, with u the relabeled v
    n, p = 3, 3
    swap = (2, 1, 3)
    u = normalize(n, (1, 3))
    v = apply_to_lie(letter_substitution(n, 2, swap), u)
    assert v == normalize(n, (2, 3))
    D = generator_derivation(1, lie_bracket(generator(n, 1), v))
    result = schur_act(letter_substitution(n, p, swap), D)
    assert result == generator_derivation(
        1, lie_bracket(generator(n, 2), u))


def test_find_annihilating_schur_hand_instance():
    n = 3
    h = find_annihilating_schur(n, 1, 2, (2, 3))
    assert h.items() == [(((1, 2, 3), (1, 2, 3)), -1)]
    u = normalize(n, (2, 3))
    chi = conjugating_derivation(n, 1, 2)
    xi_u = lie_bracket(generator(n, 1), u)
    assert h.apply(embed(apply_derivation(chi, u))).is_zero()
    assert apply_to_lie(h, xi_u) == -xi_u
    bracket = der_bracket(chi, generator_derivation(2, u))
    assert schur_act(h, bracket) == generator_derivation(1, xi_u)


def test_find_annihilating_schur_all_small_monomials():
    n = 3
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            for k in (2, 3, 4):
                for tree in lyndon_basis(n, k):
                    h = find_annihilating_schur(n, i, j, tree)
                    u = normalize(n, tree)
                    chi = conjugating_derivation(n, i, j)
                    xi_u = lie_bracket(generator(n, i), u)
                    assert h.apply(embed(apply_derivation(chi, u))).is_zero()
                    assert apply_to_lie(h, xi_u) == -xi_u
                    bracket = der_bracket(chi, generator_derivation(j, u))
                    assert schur_act(h, bracket) == generator_derivation(i, xi_u)


def _full_fixing_system(n, i, tree):
    """The fixing condition over every orbit key of block_u and all n^q
    words: (rows, rhs, keys, words, block_u)."""
    fix = embed(lie_bracket(generator(n, i), normalize(n, tree)))
    block_u = sorted_rep(fix.support()[0])
    keys = orbit_keys(n, block_u)
    images = [SchurElement(n, fix.degree, {block_u: {key: 1}}).apply(fix)
              for key in keys]
    words = list(words_of(n, fix.degree))
    rows = [[img.coeff(w) for img in images] for w in words]
    rhs = [-fix.coeff(w) for w in words]
    return rows, rhs, keys, words, block_u


@pytest.mark.parametrize("n, max_k", [(3, 4), (2, 6)])
def test_find_annihilating_schur_solves_full_system(n, max_k):
    # differential check of the block solve against the full n^q-row system
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for k in range(2, max_k + 1):
                for tree in lyndon_basis(n, k):
                    rows, rhs, keys, words, block_u = _full_fixing_system(n, i, tree)
                    mdeg = multidegree(block_u, n)
                    block = [r for r, w in enumerate(words) if sorted_rep(w) == block_u]
                    for c, key in enumerate(keys):
                        if multidegree(key, n) != mdeg:
                            assert all(rows[r][c] == 0 for r in block)
                    h = find_annihilating_schur(n, i, j, tree)
                    assert {u for (u, _), _ in h.items()} <= {block_u}
                    x = [h.coeff((block_u, key)) for key in keys]
                    assert [sum(a * b for a, b in zip(row, x)) for row in rows] == rhs


@pytest.mark.parametrize("n, max_k", [(3, 4), (2, 7), (4, 3), (5, 3)])
def test_find_annihilating_schur_block_matrix(monkeypatch, cold_fixing_cache, n, max_k):
    # the stabilizer-key pass builds the same block system, cell for cell, as
    # applying {block_u: {key: 1}} to fix once per key, with the keys sorted;
    # the system depends on (i, tree) only, so only the first j solves it
    systems = []
    solved = set()
    solve_integer = derivations.solve_integer

    def recording_solve(rows, rhs):
        systems.append((rows, rhs))
        return solve_integer(rows, rhs)

    monkeypatch.setattr(derivations, "solve_integer", recording_solve)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for k in range(2, max_k + 1):
                for tree in lyndon_basis(n, k):
                    find_annihilating_schur(n, i, j, tree)
                    if (i, tree) in solved:
                        assert not systems
                        continue
                    solved.add((i, tree))
                    fix = embed(lie_bracket(generator(n, i), normalize(n, tree)))
                    block_u = sorted_rep(fix.support()[0])
                    words = rearrangements(block_u)
                    keys = sorted({stabilizer_orbit_key(block_u, w) for w in words})
                    images = [SchurElement(n, fix.degree, {block_u: {key: 1}}).apply(fix)
                              for key in keys]
                    rows = [[img.coeff(w) for img in images] for w in words]
                    rhs = [-fix.coeff(w) for w in words]
                    assert systems.pop() == (rows, rhs)


@pytest.mark.parametrize("n, max_k", [(2, 7), (3, 5), (4, 3)])
def test_find_annihilating_schur_against_weight_idempotent(n, max_k):
    # independent oracle: minus the weight idempotent of block_u is the
    # identity on fix's multidegree up to sign and zero on annihilate's, so
    # it meets both conditions and isolates f_{i,[x_i,u]}; whatever solution
    # the Smith solve picks must act on the bracket as it does
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            chi = conjugating_derivation(n, i, j)
            for k in range(2, max_k + 1):
                for tree in lyndon_basis(n, k):
                    u = normalize(n, tree)
                    xi_u = lie_bracket(generator(n, i), u)
                    block_u = sorted_rep(embed(xi_u).support()[0])
                    h0 = SchurElement(n, k + 1, {block_u: {block_u: -1}})
                    assert h0.apply(embed(apply_derivation(chi, u))).is_zero()
                    assert apply_to_lie(h0, xi_u) == -xi_u
                    bracket = der_bracket(chi, generator_derivation(j, u))
                    isolated = schur_act(h0, bracket)
                    assert isolated == generator_derivation(i, xi_u)
                    h = find_annihilating_schur(n, i, j, tree)
                    assert schur_act(h, bracket) == isolated


def test_find_annihilating_schur_fix_word_off_block_is_a_library_error(
        monkeypatch, cold_fixing_cache):
    # a fix word outside block_u's rearrangements signals a bug: the check
    # that the word has a row of the block system raises a library error,
    # not a KeyError
    monkeypatch.setattr(derivations, "sorted_rep", lambda w: (1,) * len(w))
    with pytest.raises(InternalInvariantError, match="is not a rearrangement"):
        find_annihilating_schur(3, 1, 2, (2, 3))
    # the error is not cached: unpatched, the same (n, i, u) solves
    monkeypatch.undo()
    assert find_annihilating_schur(3, 1, 2, (2, 3)).items() == [
        (((1, 2, 3), (1, 2, 3)), -1)]


def test_fixing_map_places_only_the_words_of_fix(cold_fixing_cache):
    # the block system is filled through the placer of each word of fix, so
    # a cold solve builds one placer per word of fix at most, and no map of
    # every rearrangement of the block: [x1,[x2,[x3,x4]]] has 8 words, and
    # its block (1,2,3,4) has 24 rearrangements
    _placer_onto.cache_clear()
    _placers_onto.cache_clear()
    derivations._fixing_map(4, 1, (2, (3, 4)))
    assert _placer_onto.cache_info().currsize <= 8
    assert _placers_onto.cache_info().currsize == 0


@pytest.mark.parametrize("n, max_k", [(3, 4), (4, 3)])
def test_find_annihilating_schur_cached_h_matches_a_cold_solve(cold_fixing_cache, n, max_k):
    # h depends on (n, i, u) only: every h a warm cache returns, for every j,
    # equals the h solved from a cleared cache
    instances = [(i, j, tree) for i, j in permutations(range(1, n + 1), 2)
                 for k in range(2, max_k + 1) for tree in lyndon_basis(n, k)]
    warm = [find_annihilating_schur(n, *inst) for inst in instances]
    for inst, h in zip(instances, warm):
        derivations._fixing_map.cache_clear()
        assert find_annihilating_schur(n, *inst) == h


def test_find_annihilating_schur_hit_runs_its_own_annihilation_check(
        monkeypatch, cold_fixing_cache):
    # h for (3, 1, [x2,x3]) is minus the idempotent of the block (1,2,3) and is
    # shared by j = 2 and j = 3; a wrong chi for j = 3, x2 -> [x2,x1], sends u
    # into that block, so h does not annihilate it, cache hit or not
    real = derivations.conjugating_derivation

    def chi(n, i, j):
        return real(n, 2, 1) if j == 3 else real(n, i, j)

    monkeypatch.setattr(derivations, "conjugating_derivation", chi)
    h = find_annihilating_schur(3, 1, 2, (2, 3))
    with pytest.raises(InternalInvariantError, match="annihilation condition violated"):
        find_annihilating_schur(3, 1, 3, (2, 3))
    assert find_annihilating_schur(3, 1, 2, (2, 3)) is h
    derivations._fixing_map.cache_clear()
    with pytest.raises(InternalInvariantError, match="annihilation condition violated"):
        find_annihilating_schur(3, 1, 3, (2, 3))
    assert find_annihilating_schur(3, 1, 2, (2, 3)) == h
    assert derivations._fixing_map.cache_info().misses == 1


def test_find_annihilating_schur_rejects_degree_one():
    with pytest.raises(InvalidArgument):
        find_annihilating_schur(3, 1, 2, 1)
    with pytest.raises(InvalidArgument):
        find_annihilating_schur(3, 1, 1, (2, 3))


def test_find_annihilating_schur_rejects_bad_indices_and_letters():
    with pytest.raises(InvalidArgument, match="outside 1..3"):
        find_annihilating_schur(3, 1, 4, (2, 3))
    with pytest.raises(InvalidArgument, match="letter above rank 3 in \\[x2,x4\\]"):
        find_annihilating_schur(3, 1, 2, (2, 4))
    with pytest.raises(InvalidArgument, match="vanishes"):
        find_annihilating_schur(3, 1, 2, (2, 2))


def test_closure_empty_generators():
    report = schur_closure_rank(2, [], 4)
    assert all(entry["reached_rank"] == 0 for entry in report)
    assert all(not entry["saturated"] for entry in report)


def test_closure_rank_two_generators():
    report = schur_closure_rank(2, mtilde_generators(2), 5)
    expected = {p: 2 * len(lyndon_basis(2, p)) for p in range(2, 6)}
    assert expected == {2: 2, 3: 4, 4: 6, 5: 12}
    for entry in report:
        assert entry["reached_rank"] == entry["full_rank"] == expected[entry["degree"]]
        assert entry["saturated"]
        assert all(d == 1 for d in entry["elementary_divisors"])


def test_closure_gamma_rank_three():
    report = schur_closure_rank(3, gamma_generators(3), 3)
    for entry in report:
        assert entry["saturated"], entry


def test_closure_rejects_bad_generators():
    with pytest.raises(InvalidArgument):
        schur_closure_rank(2, [Derivation(2, 3, [zero_lie(2, 3)] * 2)], 4)
    with pytest.raises(InvalidArgument):
        schur_closure_rank(3, [Derivation(2, 2, [zero_lie(2, 2)] * 2)], 3)


def test_closure_resource_guard_partial_report():
    with pytest.raises(ResourceGuardExceeded) as info:
        schur_closure_rank(3, mtilde_generators(3), 6)
    assert isinstance(info.value.partial, list)
    assert info.value.partial == schur_closure_rank(3, mtilde_generators(3), 4)


@pytest.mark.parametrize("n, p", [(3, 5), (3, 6), (4, 4), (5, 3)])
def test_closure_saturates_past_the_basis_guard(monkeypatch, n, p):
    # sizes the basis guard refuses, so no pin reaches them: the quadratic
    # generators must reach Z^dim at every degree (the generation theorem)
    monkeypatch.setattr(derivations, "CLOSURE_BASIS_GUARD",
                        basis_dimension_formula(n, p))
    report = schur_closure_rank(n, mtilde_generators(n), p)
    assert [e["degree"] for e in report] == list(range(2, p + 1))
    assert all(e["saturated"] for e in report)


@pytest.mark.parametrize("n, p1, p2", [(2, 2, 3), (2, 3, 4), (3, 2, 2), (3, 2, 3)])
def test_row_bracket_matches_der_bracket(n, p1, p2):
    # the closure brackets block Hermite rows through their embedded images;
    # the Derivation round trip is the oracle
    rng = random.Random(31 * n + p1 + p2)

    def hermite_rows(p):
        """(derivation, row images) for each Hermite row of the block
        lattices of three random derivations"""
        blocks = _blocks(n, p)
        lattices = {u: IntegerLattice(n * len(block)) for u, block in blocks.items()}
        for _ in range(3):
            for u, row in _block_rows(n, p, _random_derivation(rng, n, p)).items():
                lattices[u].add(row)
        return [(derivation_from_vector(n, p, row, tuple(blocks[u])),
                 derivations._embedded_images(
                     derivations._row_derivation(n, p, tuple(blocks[u]), row)))
                for u, lattice in lattices.items() for row in lattice.rows]

    p = p1 + p2 - 1
    rows2 = hermite_rows(p2)
    nonzero = 0
    for D, a in hermite_rows(p1):
        for E, b in rows2:
            expected = _block_rows(n, p, der_bracket(D, E))
            got = _block_rows(n, p, derivations._bracket(n, p, a, b))
            assert got == expected
            nonzero += bool(expected)
    assert nonzero


def _divided_power(n, p, a, b, r):
    """The Schur element of the r-th divided power of the derivation sending
    x_b to x_a, from its orbit data: on a sorted word u with at least r
    letters b, the sum over the ways to make r of them an a, which is the
    orbit sum of the key that makes the first r of them an a."""
    rows = {}
    for u in sorted_words(n, p):
        if u.count(b) >= r:
            k = u.index(b)
            made = u[:k] + (a,) * r + u[k + r:]
            rows[u] = {stabilizer_orbit_key(u, made): 1}
    return SchurElement(n, p, rows)


def test_action_matrices_are_the_nonzero_dense_entries():
    # apply_to_lie of E_i^(r) and F_i^(r), built from their orbit data, is
    # the dense oracle; the chain through the letter tables must give the
    # same nonzero images, block by block and slot by slot, for every r
    for n, p in [(2, 5), (3, 3), (3, 4), (2, 8), (4, 3)]:
        blocks = _blocks(n, p)
        for a, b in [(i, i + 1) for i in range(1, n)] + [(i + 1, i) for i in range(1, n)]:
            powers = [_divided_power(n, p, a, b, r) for r in range(1, p + 1)]
            assert all(schur_is_equivariant(f) for f in powers)
            for u, block in blocks.items():
                words = tuple(block)
                for c, w in enumerate(words):
                    row = [0] * (n * len(words))
                    for k in range(n):
                        row[k * len(words) + c] = k + 1  # slot k holds (k + 1) P_w
                    got = [(v, derivation_from_vector(n, p, image, tuple(blocks[v])))
                           for v, image in _divided_powers(n, p, u, row, a, b)]
                    expected = []
                    for f in powers:
                        image = apply_to_lie(f, LieElement(n, p, {w: 1}))
                        if image.is_zero():
                            break
                        [v] = {sorted_rep(l) for l, _ in image.items()}
                        expected.append((v, Derivation(
                            n, p, [image.scale(k) for k in range(1, n + 1)])))
                    assert got == expected
                    # once an image is zero, every later one is
                    assert all(apply_to_lie(f, LieElement(n, p, {w: 1})).is_zero()
                               for f in powers[len(expected):])


def test_divided_power_chain_raises_on_an_inexact_division(monkeypatch):
    # a table patched to an odd entry that keeps the row in its block: the
    # second image is the row itself, which cannot be halved; the chain must
    # raise, not truncate
    monkeypatch.setattr(derivations, "_letter_table",
                        lambda n, p, u, a, b: (u, ((0, 0, 1),)))
    u, = _blocks(2, 4).keys() - {(1, 1, 1, 2), (1, 1, 2, 2)}
    chain = _divided_powers(2, 4, u, [1, 0], 1, 2)
    assert next(chain) == (u, [1, 0])
    with pytest.raises(InternalInvariantError):
        next(chain)



@pytest.mark.parametrize("n, p", [(2, 3), (2, 5), (2, 7), (2, 9), (3, 3), (3, 4),
                                  (3, 5), (4, 3), (4, 4), (5, 3)])
def test_letter_tables_match_the_leibniz_oracle(n, p):
    # the back-substitution through each block's Lyndon triangle against one
    # Leibniz pass and one decomposition per column, entry order included
    tables = 0
    for u in _blocks(n, p):
        for a, b in permutations(range(1, n + 1), 2):
            table = derivations._letter_table(n, p, u, a, b)
            assert table == leibniz_letter_table(n, p, u, a, b)
            tables += table is not None
    assert tables


def _doubled(embed_monomial):
    return lambda tree: embed_monomial(tree).scale(2)


def _with_a_smaller_word(embed_monomial):
    # embed(P_11212) made to hold 11122, a smaller word of its block
    def patched(tree):
        t = embed_monomial(tree)
        if tree == lyndon_bracketing((1, 1, 2, 1, 2)):
            t = t + TensorElement(5, {(1, 1, 1, 2, 2): 1})
        return t
    return patched


@pytest.mark.parametrize("breaking", [_doubled, _with_a_smaller_word])
def test_letter_table_raises_on_a_broken_lyndon_triangle(monkeypatch, breaking):
    # a triangle whose diagonal is not 1, or with an entry above it, must
    # raise, not feed a wrong table to the chain
    monkeypatch.setattr(derivations, "embed_monomial",
                        breaking(derivations.embed_monomial))
    derivations._block_triangle.cache_clear()
    derivations._letter_table.cache_clear()
    with pytest.raises(InternalInvariantError):
        derivations._letter_table(2, 5, (1, 1, 2, 2, 2), 1, 2)

def _fixed_point_closure(n, generators, max_degree):
    """The closure as the definition reads: bracket every ordered pair of
    lower-degree basis derivations, then act by every element of the public
    basis through schur_act, round after round, until a round adds nothing.
    Returns (reached_rank, elementary_divisors) per degree."""
    out = []
    reached = {}
    for p in range(2, max_degree + 1):
        lattice = IntegerLattice(n * len(lyndon_words(n, p)))
        seeds = list(generators) if p == 2 else [
            der_bracket(a, b) for p1 in range(2, p)
            for a in reached[p1] for b in reached[p + 1 - p1]]
        for D in seeds:
            lattice.add(derivation_to_vector(D))
        grew = True
        while grew:
            grew = False
            for f in basis(n, p):
                for row in lattice.basis_rows():
                    image = schur_act(f, derivation_from_vector(n, p, row))
                    grew |= lattice.add(derivation_to_vector(image))
        out.append((lattice.rank(), lattice.elementary_divisors()))
        reached[p] = [derivation_from_vector(n, p, row) for row in lattice.basis_rows()]
    return out


def _chi_multiples(n):
    return [conjugating_derivation(n, 1, 2).scale(3),
            conjugating_derivation(n, 2, 1).scale(2)]


def _double_gamma(n):
    return [g.scale(2) for g in gamma_generators(n)]


def _double_chi(n):
    return [conjugating_derivation(n, 1, 2).scale(2)]


@pytest.mark.parametrize("n, seeds, max_degree", [
    (2, _chi_multiples, 5), (3, _chi_multiples, 3), (3, _double_gamma, 3),
    (3, _double_chi, 3)])
def test_closure_matches_fixed_point_oracle(n, seeds, max_degree):
    # seeds whose closure never reaches Z^dim, so the one-sweep engine cannot
    # stop early and must reach the same lattice as the round-by-round one
    gens = seeds(n)
    report = schur_closure_rank(n, gens, max_degree)
    assert not any(e["saturated"] for e in report)
    got = [(e["reached_rank"], e["elementary_divisors"]) for e in report]
    assert got == _fixed_point_closure(n, gens, max_degree)


def _mixed_mtilde(n):
    return [g.scale(k) for g, k in zip(mtilde_generators(n), cycle((2, 4, 6)))]


@pytest.mark.parametrize("n, seeds, max_degree", [
    (2, _chi_multiples, 6), (3, _chi_multiples, 4), (3, _double_gamma, 4),
    (3, _double_chi, 4), (2, _mixed_mtilde, 7), (3, _mixed_mtilde, 4)])
def test_block_lattices_match_full_width_oracle(monkeypatch, n, seeds, max_degree):
    # the single-lattice engine is the oracle: at every degree, the union of
    # the block bases, embedded at full width, has its lattice's Hermite rows
    recorded = []  # every block lattice, in the order the engine makes them

    class Recording(IntegerLattice):
        def __init__(self, dim):
            super().__init__(dim)
            recorded.append(self)

    monkeypatch.setattr(derivations, "IntegerLattice", Recording)
    gens = seeds(n)
    schur_closure_rank(n, gens, max_degree)
    oracle = full_width_lattices(n, [derivation_to_vector(D) for D in gens], max_degree)
    block_lattices = iter(recorded)
    for p, expected in zip(range(2, max_degree + 1), oracle):
        union = IntegerLattice(expected.dim)
        for block in _blocks(n, p).values():
            for row in next(block_lattices).rows:
                union.add(derivation_to_vector(
                    derivation_from_vector(n, p, row, tuple(block))))
        assert union.rows == expected.rows
    assert next(block_lattices, None) is None


def _pair_counts(report):
    """degree -> the number of brackets the closure makes when it draws
    every seed: r1 * r2 pairs of rows of degrees p1 < p2 with p1 + p2 =
    p + 1, and r (r - 1) / 2 when p1 = p2, r the reached ranks"""
    ranks = {e["degree"]: e["reached_rank"] for e in report}
    counts = {}
    for p in ranks:
        counts[p] = 0
        for p1 in range(2, (p + 3) // 2):
            r1, r2 = ranks[p1], ranks[p + 1 - p1]
            counts[p] += r1 * (r1 - 1) // 2 if 2 * p1 == p + 1 else r1 * r2
    return counts


@pytest.mark.parametrize("n, seeds, max_degree", [
    (2, mtilde_generators, 7), (3, mtilde_generators, 4),
    (2, _chi_multiples, 6), (3, _chi_multiples, 4), (3, _double_gamma, 4),
    (3, _double_chi, 4)])
def test_closure_stops_drawing_seeds_only_at_z_dim(monkeypatch, n, seeds, max_degree):
    # a degree stops bracketing once every block is Z^dim: the quadratic
    # generators saturate with fewer brackets than pairs, and seeds that
    # never saturate still bracket every pair
    made = []
    bracket = derivations._bracket

    def counting(n, degree, d_images, e_images):
        made.append(degree)
        return bracket(n, degree, d_images, e_images)

    monkeypatch.setattr(derivations, "_bracket", counting)
    report = schur_closure_rank(n, seeds(n), max_degree)
    full = _pair_counts(report)
    got = {p: made.count(p) for p in full}
    if seeds is mtilde_generators:
        assert all(e["saturated"] for e in report)
        assert all(got[p] <= full[p] for p in full)
        assert sum(got.values()) < sum(full.values())
    else:
        assert not any(e["saturated"] for e in report)
        assert got == full


@pytest.mark.parametrize("n, max_degree", [(3, 4), (2, 7)])
def test_closure_adds_no_row_twice_to_a_block_lattice(monkeypatch, n, max_degree):
    # a row already added to a block's lattice is passed over before add
    added = []  # per block lattice, the rows it received

    class Recording(IntegerLattice):
        def __init__(self, dim):
            super().__init__(dim)
            self.received = []
            added.append(self.received)

        def add(self, row):
            self.received.append(tuple(row))
            return super().add(row)

    monkeypatch.setattr(derivations, "IntegerLattice", Recording)
    report = schur_closure_rank(n, mtilde_generators(n), max_degree)
    assert all(e["saturated"] and e["reached_rank"] == e["full_rank"] for e in report)
    assert sum(map(len, added)) > len(added)
    assert all(len(set(rows)) == len(rows) for rows in added)

@pytest.mark.parametrize("n, seeds, max_degree", [
    (2, _mixed_mtilde, 7), (3, _mixed_mtilde, 4), (3, mtilde_generators, 5)])
def test_closure_is_independent_of_the_generator_order(monkeypatch, n, seeds, max_degree):
    # the order of the adds follows the order of the seeds; the report and
    # the Hermite rows of every block lattice must not
    monkeypatch.setattr(derivations, "CLOSURE_BASIS_GUARD",
                        max(derivations.CLOSURE_BASIS_GUARD,
                            basis_dimension_formula(n, max_degree)))
    recorded = []

    class Recording(IntegerLattice):
        def __init__(self, dim):
            super().__init__(dim)
            recorded.append(self)

    monkeypatch.setattr(derivations, "IntegerLattice", Recording)
    runs = []
    for gens in (seeds(n), seeds(n)[::-1]):
        recorded.clear()
        report = schur_closure_rank(n, gens, max_degree)
        runs.append((report, [lattice.rows for lattice in recorded]))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == max_degree - 1


def test_merged_divisors_take_the_smith_form_across_blocks():
    # no closure input seen merges divisors across blocks, so only a direct
    # test tells the Smith form of the direct sum from a concatenation
    assert _merged_divisors([[2], [3]]) == [1, 6]
    assert _merged_divisors([[2, 4], [6]]) == [2, 2, 12]
    assert _merged_divisors([[1, 2], [], [1, 1, 3]]) == [1, 1, 1, 1, 6]
    assert _merged_divisors([[], []]) == []


def test_vector_roundtrip():
    rng = random.Random(26)
    D = _random_derivation(rng, 3, 3)
    assert derivation_from_vector(3, 3, derivation_to_vector(D)) == D


@st.composite
def derivations_pairs(draw):
    n = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    return (_random_derivation(rng, n, 2), _random_derivation(rng, n, 2))


@settings(max_examples=25, deadline=None)
@given(derivations_pairs())
def test_der_bracket_antisymmetry_hypothesis(pair):
    D, E = pair
    assert der_bracket(D, E) == -der_bracket(E, D)
    # the arithmetic of the pairs is the arithmetic of the images
    n = D.n
    for k in range(1, n + 1):
        assert (D + E).image(k) == D.image(k) + E.image(k)
        assert (D - E).image(k) == D.image(k) - E.image(k)
        assert (-D).image(k) == -D.image(k)
        assert D.scale(3).image(k) == D.image(k).scale(3)
        assert (2 * D).image(k) == D.image(k).scale(2)
    assert (D - D).is_zero()
    rebuilt = Derivation(n, 2, D.images)
    assert rebuilt == D and hash(rebuilt) == hash(D)
    with pytest.raises(DimensionMismatch):
        D + _random_derivation(random.Random(n), 5 - n, 2)
    with pytest.raises(DimensionMismatch):
        D + _random_derivation(random.Random(n), n, 3)
    for i in (0, n + 1):
        with pytest.raises(InvalidArgument):
            D.image(i)
