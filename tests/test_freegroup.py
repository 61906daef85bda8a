import random
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from schurlie import freegroup
from schurlie.derivations import (Derivation, commutator_derivation,
                                  conjugating_derivation, der_bracket)
from schurlie.errors import (InternalInvariantError, InvalidArgument, NotInFiltration,
                             ResourceGuardExceeded)
from schurlie.freegroup import (MAGNUS_TRUNCATION_GUARD, AutPair, EndoOnFree,
                                MagnusSeries, classify_pair, commutator_auto, conjugating_auto,
                                johnson_image, magnus,
                                reduce_word, verify_mccool, word_commutator,
                                word_inv, word_mul)
from schurlie.freelie import decompose, generator, lie_bracket, zero_lie
from schurlie.words import TensorElement


def test_reduce_word():
    assert reduce_word([1, -1]) == ()
    assert reduce_word([1, 2, -2, -1, 3]) == (3,)
    assert reduce_word([1, 2, 3]) == (1, 2, 3)
    with pytest.raises(InvalidArgument):
        reduce_word([0])


def test_word_algebra():
    w = (1, 2, -1)
    assert word_mul(w, word_inv(w)) == ()
    assert word_inv((1, 2)) == (-2, -1)
    assert word_commutator((1,), (2,)) == (-1, -2, 1, 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=20),
       st.integers(min_value=0, max_value=5),
       st.randoms(use_true_random=False))
def test_free_reduction_confluent(seq, inserts, rng):
    # inserting cancelling pairs anywhere must not change the normal form
    base = reduce_word(seq)
    padded = list(seq)
    for _ in range(inserts):
        a = rng.choice([1, -1, 2, -2, 3, -3])
        pos = rng.randint(0, len(padded))
        padded[pos:pos] = [a, -a]
    assert reduce_word(padded) == base


def test_conjugating_auto_images():
    chi = conjugating_auto(3, 1, 2)
    assert chi.fwd.images[0] == (-2, 1, 2)
    assert chi.fwd.images[1] == (2,)
    assert chi.fwd.images[2] == (3,)
    assert (chi.fwd * chi.inv).is_identity()


def test_commutator_auto_images():
    theta = commutator_auto(3, 1, 2, 3)
    assert theta.fwd.images[0] == (1, -2, -3, 2, 3)
    assert theta.fwd.images[1] == (2,)
    assert (theta.fwd * theta.inv).is_identity()
    with pytest.raises(InvalidArgument):
        commutator_auto(3, 2, 2, 3)
    with pytest.raises(InvalidArgument):
        commutator_auto(3, 1, 3, 2)


def test_apply_endo_substitutes_and_reduces():
    chi = conjugating_auto(2, 1, 2).fwd
    assert chi.apply((1, 1)) == (-2, 1, 1, 2)
    assert chi.apply((1, -1)) == ()
    assert EndoOnFree(2, ((1,), (2,))).apply((1, 2)) == (1, 2)


def test_compose_endo():
    chi = conjugating_auto(2, 1, 2)
    assert (chi.fwd * chi.inv).is_identity()
    theta = conjugating_auto(2, 2, 1)
    lhs = (chi.fwd * theta.fwd).apply((1,))
    assert lhs == chi.fwd.apply(theta.fwd.apply((1,)))


def _apply_two_pass(images, w):
    """Substitute every letter, then freely reduce the whole word: the
    oracle for EndoOnFree's one-pass substitution."""
    out = []
    for a in w:
        out.extend(images[a - 1] if a > 0 else word_inv(images[-a - 1]))
    return reduce_word(out)


@st.composite
def endo_and_word(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    letters = [a for a in range(-n, n + 1) if a]
    images = [tuple(draw(st.lists(st.sampled_from(letters), max_size=5)))
              for _ in range(n)]
    return n, images, tuple(draw(st.lists(st.sampled_from(letters), max_size=12)))


@settings(max_examples=150, deadline=None)
@given(endo_and_word())
# x1 -> x2^-1 x1 cancels a whole x2 on its left, and (1, -1) a whole image
@example((2, [(-2, 1), (2,)], (2, 1, 1, -2, -1, 2)))
@example((2, [(-2, 1), (2,)], (1, -1, 2, -1)))
@example((3, [(-2, -3, 1), (3, 2), (3,)], (2, 1, -1, 2, 1)))
def test_apply_matches_two_pass_oracle(case):
    n, images, w = case
    endo = EndoOnFree(n, images)
    assert endo.apply(w) == _apply_two_pass(images, w)
    assert endo.apply(w) == _apply_two_pass(images, w)  # the cached inverses


def test_inverse_images_built_on_first_use():
    # apply builds the inverse of an image only when an inverse letter first
    # needs it, and each result is the letter-by-letter substitution, reduced
    rng = random.Random(31)
    for n in range(1, 5):
        letters = [a for a in range(-n, n + 1) if a]
        images = [reduce_word(rng.choices(letters, k=rng.randint(0, 5)))
                  for _ in range(n)]
        endo = EndoOnFree(n, images)
        needed = set()
        for _ in range(30):
            w = reduce_word(rng.choices(letters, k=rng.randint(1, 10)))
            needed.update(-a for a in w if a < 0)
            assert endo.apply(w) == _apply_two_pass(images, w)
            built = {k + 1 for k, inv in enumerate(endo._inverse_images or ())
                     if inv is not None}
            assert built == needed
        assert needed


def test_cached_inverse_images_stay_out_of_equality():
    fresh = EndoOnFree(3, [(-2, 1, 2), (2,), (3,)])
    used = EndoOnFree(3, [(-2, 1, 2), (2,), (3,)])
    before = hash(used)
    assert used.apply((-1, 3)) == (-2, -1, 2, 3)
    assert used == fresh and hash(used) == before == hash(fresh)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cached_conjugating_auto_equals_a_checked_pair(n):
    for i, j in permutations(range(1, n + 1), 2):
        fwd = [(k,) if k != i else (-j, i, j) for k in range(1, n + 1)]
        inv = [(k,) if k != i else (j, i, -j) for k in range(1, n + 1)]
        fresh = AutPair(EndoOnFree(n, fwd), EndoOnFree(n, inv))
        chi = conjugating_auto(n, i, j)
        assert chi.fwd == fresh.fwd and chi.inv == fresh.inv
        assert conjugating_auto(n, i, j) is chi


def test_verify_mccool_small_ranks():
    for n in (3, 4):
        result = verify_mccool(n)
        assert result["all_pass"]
    with pytest.raises(ResourceGuardExceeded):
        verify_mccool(6)


def test_mccool_family_two_needs_rank_four():
    result = verify_mccool(3)
    assert not any(inst["family"] == 2 for inst in result["instances"])
    result4 = verify_mccool(4)
    assert any(inst["family"] == 2 for inst in result4["instances"])


def test_magnus_frozen():
    s = magnus((1,), 2)
    assert s.coeff(()) == 1 and s.coeff((1,)) == 1 and s.coeff((1, 1)) == 0
    inv = magnus((-1,), 2)
    assert inv.coeff(()) == 1 and inv.coeff((1,)) == -1 and inv.coeff((1, 1)) == 1
    comm = magnus(word_commutator((1,), (2,)), 2)
    assert comm.coeff(()) == 1
    assert comm.coeff((1,)) == 0 and comm.coeff((2,)) == 0
    assert comm.coeff((1, 2)) == 1 and comm.coeff((2, 1)) == -1


def test_magnus_multiplicative_fuzz():
    rng = random.Random(31)
    for _ in range(25):
        u = reduce_word([rng.choice([1, -1, 2, -2, 3, -3])
                         for _ in range(rng.randint(0, 8))])
        v = reduce_word([rng.choice([1, -1, 2, -2, 3, -3])
                         for _ in range(rng.randint(0, 8))])
        d = rng.randint(1, 4)
        assert magnus(word_mul(u, v), d) == magnus(u, d) * magnus(v, d)
        assert magnus(word_mul(u, word_inv(u)), d) == MagnusSeries.one(d)



def _magnus_by_products(w, truncation):
    """The expansion as the left-to-right product of per-letter series: the
    oracle for magnus's layer recurrence."""
    out = MagnusSeries.one(truncation)
    for a in w:
        if a > 0:
            letter = MagnusSeries(truncation, {(): 1, (a,): 1})
        else:  # 1 - X + X^2 - ...
            letter = MagnusSeries(truncation, {(-a,) * k: (-1) ** k
                                               for k in range(truncation + 1)})
        out = out * letter
    return out


@st.composite
def reduced_words(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    word = []
    for _ in range(draw(st.integers(min_value=0, max_value=20))):
        word.append(draw(st.sampled_from(
            [a for a in range(-n, n + 1) if a and not (word and a == -word[-1])])))
    return tuple(word)


@settings(max_examples=80, deadline=None)
@given(reduced_words(), st.integers(min_value=1, max_value=MAGNUS_TRUNCATION_GUARD))
def test_magnus_matches_product_oracle(w, truncation):
    series = magnus(w, truncation)
    expected = _magnus_by_products(w, truncation)
    assert series == expected
    assert series.items() == expected.items()
    assert 0 not in series._coeffs.values()

def test_johnson_depth_one_frozen():
    n = 3
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            image = johnson_image(conjugating_auto(n, i, j), 1)
            assert image == conjugating_derivation(n, i, j)
    for (i, s, t) in [(1, 2, 3), (2, 1, 3), (3, 1, 2)]:
        image = johnson_image(commutator_auto(n, i, s, t), 1)
        assert image == commutator_derivation(n, i, s, t)


def test_johnson_depth_check():
    chi = conjugating_auto(3, 1, 2)
    with pytest.raises(NotInFiltration):
        johnson_image(chi, 2)  # moves already in degree 2
    with pytest.raises(ResourceGuardExceeded):
        johnson_image(chi, 9)


def test_johnson_image_reads_the_series_layers(monkeypatch):
    chi = conjugating_auto(3, 1, 2)
    with pytest.raises(NotInFiltration, match="x_1 moves in degree 2"):
        johnson_image(chi, 2)
    # a series that does not start at 1 is an internal fault, not bad input
    layers = freegroup._magnus_layers
    monkeypatch.setattr(freegroup, "_magnus_layers",
                        lambda w, t, base: [{0: 2}] + layers(w, t, base)[1:])
    with pytest.raises(InternalInvariantError):
        johnson_image(chi, 1)


@pytest.mark.parametrize("images", [[(), (2,), (3,)], [(2,), (1,), (3,)]])
def test_johnson_image_of_an_endomorphism_moving_in_degree_one(images):
    # x_1 -> () has an empty shell and an empty core; the letter swap has a
    # one-letter core other than x_1
    with pytest.raises(NotInFiltration, match=r"^x_1 moves in degree 1; "
                                              r"automorphism is not at depth 1$"):
        johnson_image(EndoOnFree(3, images), 1)


def test_johnson_bracket_compatibility_exhaustive():
    n = 3
    pairs = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    for a in pairs:
        for b in pairs:
            if a == b:
                continue
            alpha = conjugating_auto(n, *a)
            beta = conjugating_auto(n, *b)
            image = johnson_image(alpha.commutator(beta), 2)
            expected = der_bracket(conjugating_derivation(n, *a),
                                   conjugating_derivation(n, *b))
            assert image == expected


def test_autpair_products_keep_their_inverse():
    # products are built without the inverse check, so check it here
    n = 3
    chi = conjugating_auto(n, 1, 2)
    with pytest.raises(InvalidArgument):
        AutPair(chi.fwd, chi.fwd)  # chi is not an involution
    gens = [conjugating_auto(n, i, j)
            for i in range(1, 4) for j in range(1, 4) if i != j]
    rng = random.Random(5)
    level = gens
    for _ in range(2):  # nested commutators [[a, b], c] of depth 3
        level = [rng.choice(level).commutator(rng.choice(gens)) for _ in range(8)]
        for pair in level + [level[0].inverse(), level[0] * level[1] * gens[2]]:
            assert (pair.fwd * pair.inv).is_identity()
            assert (pair.inv * pair.fwd).is_identity()


def _left_normed_levels(a, b, depth):
    """Per depth m = 2..depth, the left-normed commutators of a and b of
    that depth, [a,b], then [[a,b],a], [[a,b],b], ...: the frontier of
    classify_pair, each with its two factors."""
    levels = {2: [(a.commutator(b), a, b)]}
    for m in range(3, depth + 1):
        levels[m] = [(c.commutator(g), c, g) for c, _, _ in levels[m - 1] for g in (a, b)]
    return levels


def _johnson_by_magnus(alpha, m):
    """johnson_image from the public magnus of each x_i^-1 alpha(x_i): its
    degrees 1..m vanish, else NotInFiltration names the lowest one, and its
    degree-(m+1) part decomposes."""
    n = alpha.n
    images = []
    for i in range(1, n + 1):
        series = magnus(word_mul((-i,), alpha.images[i - 1]), m + 1)
        moved = [len(u) for u, _ in series.items() if 0 < len(u) <= m]
        if moved:
            raise NotInFiltration(
                f"x_{i} moves in degree {min(moved)}; automorphism is not at depth {m}")
        top = {u: c for u, c in series.items() if len(u) == m + 1}
        images.append(decompose(n, TensorElement(m + 1, top)))
    return Derivation(n, m + 1, images)


@pytest.mark.parametrize("first, second", [((1, 2), (2, 1)), ((1, 2), (2, 3)),
                                           ((1, 2), (1, 3)), ((2, 4), (4, 1))])
def test_johnson_image_matches_magnus_oracle(first, second):
    n = 4
    a, b = conjugating_auto(n, *first), conjugating_auto(n, *second)
    unmoved = 0
    for m, level in _left_normed_levels(a, b, 4).items():
        for c, _, _ in level:
            image = johnson_image(c, m)
            assert image == _johnson_by_magnus(c.fwd, m)
            for i in range(1, n + 1):
                if c.fwd.images[i - 1] == (i,):
                    unmoved += 1
                    assert image.image(i) == zero_lie(n, m + 1)
    assert unmoved  # each pair here fixes a generator, so the skip is reached


def _johnson_outcome(johnson, alpha, m):
    """johnson(alpha, m), or the message of its NotInFiltration."""
    try:
        return johnson(alpha, m)
    except NotInFiltration as exc:
        return str(exc)


def _commutator_autos(n):
    return [commutator_auto(n, i, s, t)
            for i, s, t in permutations(range(1, n + 1), 3) if s < t]


@pytest.mark.parametrize("n", [3, 4])
def test_johnson_image_of_products_matches_magnus_oracle(n):
    # products of named automorphisms give images with nonempty shells and
    # cores of several letters, e.g. x_1 -> x_2^-1 x_1 [x_2, x_3] x_2
    autos = ([conjugating_auto(n, i, j) for i, j in permutations(range(1, n + 1), 2)]
             + _commutator_autos(n))
    split = 0
    for alpha, beta in product(autos, repeat=2):
        endo = (alpha * beta).fwd
        for v in endo.images:
            shell, core = freegroup._shell_split(v)
            split += bool(shell) and len(core) > 1
        for m in (1, 2):
            assert (_johnson_outcome(johnson_image, endo, m)
                    == _johnson_outcome(_johnson_by_magnus, endo, m))
    assert split


def test_johnson_image_of_commutator_autos_matches_magnus_oracle():
    for n in (3, 4):
        for theta in _commutator_autos(n):
            assert johnson_image(theta, 1) == _johnson_by_magnus(theta.fwd, 1)


@pytest.mark.parametrize("first, second", [((1, 2), (2, 3)), ((1, 2), (2, 1)),
                                           ((1, 2), (1, 3)), ((1, 3), (3, 2))])
def test_johnson_image_at_the_guard_matches_magnus_oracle(first, second):
    # the deepest left-normed commutators need truncation at the guard
    n = 3
    a, b = conjugating_auto(n, *first), conjugating_auto(n, *second)
    for m, level in _left_normed_levels(a, b, MAGNUS_TRUNCATION_GUARD - 1).items():
        for c, _, _ in level:
            assert johnson_image(c, m) == _johnson_by_magnus(c.fwd, m)


def test_commutator_inverse_is_the_reversed_commutator():
    n = 3
    for first, second in [((1, 2), (2, 1)), ((1, 2), (2, 3)), ((1, 3), (1, 2))]:
        a, b = conjugating_auto(n, *first), conjugating_auto(n, *second)
        for level in _left_normed_levels(a, b, 4).values():
            for c, x, y in level:
                assert c.inv == y.commutator(x).fwd
                assert (c.fwd * c.inv).is_identity()
                assert (c.inv * c.fwd).is_identity()


def test_johnson_additivity_depth_one():
    rng = random.Random(32)
    n = 3
    gens = [conjugating_auto(n, i, j)
            for i in range(1, 4) for j in range(1, 4) if i != j]
    for _ in range(15):
        alpha, beta = rng.choice(gens), rng.choice(gens)
        composites = johnson_image(alpha.fwd * beta.fwd, 1)
        assert composites == johnson_image(alpha, 1) + johnson_image(beta, 1)


def test_classify_pair_abelian_cases():
    result = classify_pair(4, (1, 2), (3, 4), 3)
    assert result["classification"] == "free-abelian"
    assert result["commutator_trivial"]
    result = classify_pair(3, (1, 3), (2, 3), 3)
    assert result["classification"] == "free-abelian"
    assert result["commutator_trivial"]


def test_classify_pair_free_cases_depth_three():
    for pair in [((1, 2), (2, 1)), ((1, 2), (1, 3)), ((1, 2), (2, 3))]:
        result = classify_pair(3, pair[0], pair[1], 3)
        assert result["classification"] == "free (finite-depth evidence)"
        words = {c["word"] for c in result["certificate"]}
        assert words == {"[a,b]", "[[a,b],a]", "[[a,b],b]"}
        assert result["all_nonzero"]
        assert result["all_match"]



@pytest.mark.parametrize("depth", [2, 3, 4])
def test_classify_pair_builds_only_certified_commutators(monkeypatch, depth):
    # one commutator per certified word: 2^(depth-1) - 1 of them, none for
    # the level past depth
    calls = []
    commutator = AutPair.commutator

    def counting(self, other):
        calls.append(1)
        return commutator(self, other)

    monkeypatch.setattr(AutPair, "commutator", counting)
    result = classify_pair(3, (1, 2), (2, 3), depth)
    assert len(result["certificate"]) == 2 ** (depth - 1) - 1
    assert len(calls) == 2 ** (depth - 1) - 1

@pytest.mark.parametrize("pair", [((1, 2), (2, 3)), ((1, 3), (2, 3))])
def test_classify_pair_refuses_depth_before_any_commutator(monkeypatch, pair):
    calls = []
    commutator = AutPair.commutator

    def counting(self, other):
        calls.append(1)
        return commutator(self, other)

    monkeypatch.setattr(AutPair, "commutator", counting)
    depth = MAGNUS_TRUNCATION_GUARD
    with pytest.raises(ResourceGuardExceeded, match=f"certificate depth {depth} "):
        classify_pair(3, *pair, depth)
    assert calls == []


def test_classify_pair_validation():
    with pytest.raises(InvalidArgument):
        classify_pair(3, (1, 2), (1, 2), 3)
    with pytest.raises(InvalidArgument):
        classify_pair(3, (1, 2), (2, 3), 1)


def test_johnson_image_of_theta_word():
    # x_i^{-1} alpha(x_i) for the commutator automorphism is exactly the
    # commutator word, whose expansion starts at the bracket
    theta = commutator_auto(3, 1, 2, 3).fwd
    w = word_mul((-1,), theta.images[0])
    assert w == word_commutator((2,), (3,))
    image = johnson_image(theta, 1)
    assert image.image(1) == lie_bracket(generator(3, 2), generator(3, 3))


def test_endo_validation():
    with pytest.raises(InvalidArgument):
        EndoOnFree(2, [(1,), (3,)])
    with pytest.raises(InvalidArgument):
        EndoOnFree(2, [(1,)])
    with pytest.raises(InvalidArgument):
        EndoOnFree(2, [(1, 0), (2,)])
    phi = conjugating_auto(2, 1, 2).fwd
    assert phi.apply((1, -2)) == phi((1, -2)) == (-2, 1)
    for bad in [(0,), (1, "2"), (3,), (-3,), (1.0,)]:
        with pytest.raises(InvalidArgument):
            phi.apply(bad)
        with pytest.raises(InvalidArgument):
            phi(bad)
