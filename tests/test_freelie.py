import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rational_linalg import rank
from schurlie.errors import InvalidArgument
from schurlie.freelie import (LEAF, GroupRingElement, LieElement,
                              bracketing_function, embed, embed_monomial,
                              generator, is_lyndon, lie_bracket,
                              lyndon_basis, lyndon_bracketing, lyndon_words,
                              monomial_from_shape, normalize, shape_of,
                              specht_wever, witt_dimension, zero_lie)
from schurlie.words import TensorElement, words_of

# frozen necklace counts
WITT = {2: [2, 1, 2, 3, 6, 9], 3: [3, 3, 8, 18, 48, 116]}


def test_lyndon_words_frozen():
    assert lyndon_words(2, 1) == ((1,), (2,))
    assert lyndon_words(2, 2) == ((1, 2),)
    assert lyndon_words(2, 3) == ((1, 1, 2), (1, 2, 2))
    assert lyndon_words(2, 4) == ((1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2))


def test_lyndon_basis_frozen():
    assert lyndon_basis(2, 1) == (1, 2)
    assert lyndon_basis(2, 2) == ((1, 2),)
    assert lyndon_basis(2, 3) == ((1, (1, 2)), ((1, 2), 2))


def test_witt_dimensions():
    for n, counts in WITT.items():
        for p, expected in enumerate(counts, start=1):
            assert len(lyndon_words(n, p)) == expected
            assert witt_dimension(n, p) == expected


def test_embed_degree_two():
    assert embed_monomial((1, 2)).items() == [((1, 2), 1), ((2, 1), -1)]


def test_embed_degree_three_frozen():
    # [[x_i, x_j], x_k] with letters 1,2,3
    expected = TensorElement(3, {(1, 2, 3): 1, (2, 1, 3): -1,
                                 (3, 1, 2): -1, (3, 2, 1): 1})
    assert embed_monomial(((1, 2), 3)) == expected


def test_embed_generator():
    assert embed(generator(3, 2)).items() == [((2,), 1)]


def test_triangularity_of_lyndon_embeddings():
    # the smallest expansion word is the Lyndon word itself, coefficient 1
    for n in (2, 3):
        for p in range(1, 6):
            for w in lyndon_words(n, p):
                items = embed_monomial(lyndon_bracketing(w)).items()
                assert items[0] == (w, 1)


def test_normalize_frozen():
    assert normalize(2, (1, 1)).is_zero()
    assert normalize(2, (2, 1)) == LieElement(2, 2, {(1, 2): -1})
    assert normalize(2, [(1, ((1, 2), 1)), (1, ((2, 1), 1))]).is_zero()


def test_normalize_roundtrip_on_basis():
    for n in (2, 3):
        for p in range(1, 7):
            for w in lyndon_words(n, p):
                elem = normalize(n, lyndon_bracketing(w))
                assert elem == LieElement(n, p, {w: 1})


def test_witt_dimension_matches_bruteforce_rank():
    # rank of the span of all bracketings of all words, n=2, p<=4
    def shapes(p):
        if p == 1:
            yield LEAF
            return
        for split in range(1, p):
            for left in shapes(split):
                for right in shapes(p - split):
                    yield (left, right)

    for p in range(1, 5):
        words = list(words_of(2, p))
        vectors = []
        for shape in shapes(p):
            for letters in product((1, 2), repeat=p):
                t = embed_monomial(monomial_from_shape(shape, letters))
                vectors.append([t.coeff(w) for w in words])
        assert rank(vectors) == witt_dimension(2, p)


def _random_lie(rng, n, p, terms=3):
    words = lyndon_words(n, p)
    coeffs = {}
    for _ in range(terms):
        w = rng.choice(words)
        coeffs[w] = coeffs.get(w, 0) + rng.randint(-4, 4)
    return LieElement(n, p, coeffs)


def test_bracket_frozen():
    a = generator(2, 1)
    b = generator(2, 2)
    assert lie_bracket(a, b) == LieElement(2, 2, {(1, 2): 1})
    assert lie_bracket(b, a) == LieElement(2, 2, {(1, 2): -1})


def test_bracket_alternation_and_jacobi():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 3])
        a = _random_lie(rng, n, rng.randint(1, 2))
        b = _random_lie(rng, n, rng.randint(1, 2))
        c = _random_lie(rng, n, rng.randint(1, 2))
        assert lie_bracket(a, a).is_zero()
        assert lie_bracket(a, b) == -lie_bracket(b, a)
        jac = (lie_bracket(a, lie_bracket(b, c))
               + lie_bracket(b, lie_bracket(c, a))
               + lie_bracket(c, lie_bracket(a, b)))
        assert jac.is_zero()


def test_bracket_bilinear():
    rng = random.Random(11)
    for _ in range(10):
        a = _random_lie(rng, 2, 2)
        b = _random_lie(rng, 2, 1)
        c = _random_lie(rng, 2, 1)
        assert lie_bracket(a, b + c) == lie_bracket(a, b) + lie_bracket(a, c)


def test_embed_decompose_roundtrip_random():
    rng = random.Random(13)
    from schurlie.freelie import decompose
    for _ in range(30):
        n = rng.choice([2, 3])
        p = rng.randint(1, 5)
        elem = _random_lie(rng, n, p)
        assert decompose(n, embed(elem)) == elem


def test_specht_wever_frozen():
    assert specht_wever((2,), 3) == generator(3, 2)
    assert specht_wever((1, 2), 2) == LieElement(2, 2, {(1, 2): 1})
    # ad(x1)ad(x2)(x3) = [x1,[x2,x3]]
    assert specht_wever((1, 2, 3), 3) == normalize(3, (1, (2, 3)))


def test_specht_wever_rejects_empty():
    with pytest.raises(InvalidArgument):
        specht_wever((), 2)


def test_specht_wever_relation_spot():
    for n, p in [(2, 3), (3, 3), (2, 4)]:
        for w in words_of(n, p):
            image = specht_wever(w, n)
            assert specht_wever(embed(image), n) == image.scale(p)


def test_bracketing_function_frozen():
    left = bracketing_function(((LEAF, LEAF), LEAF))
    assert left == GroupRingElement(3, {(1, 2, 3): 1, (2, 1, 3): -1,
                                        (2, 3, 1): -1, (3, 2, 1): 1})
    assert str(left) == "1 - (1 2) - (1 2 3) + (1 3)"
    right = bracketing_function((LEAF, (LEAF, LEAF)))
    assert str(right) == "1 - (2 3) - (1 3 2) + (1 3)"
    assert bracketing_function(LEAF) == GroupRingElement(1, {(1,): 1})


def test_bracketing_function_defining_property_all_words():
    def shapes(p):
        if p == 1:
            yield LEAF
            return
        for split in range(1, p):
            for left in shapes(split):
                for right in shapes(p - split):
                    yield (left, right)

    for n in (2, 3):
        for q in range(1, 5):
            for shape in shapes(q):
                ring = bracketing_function(shape)
                for w in words_of(n, q):
                    tree = monomial_from_shape(shape, w)
                    assert embed_monomial(tree) == ring.apply(w)
                    assert shape_of(tree) == shape


def test_element_validation():
    with pytest.raises(InvalidArgument):
        LieElement(2, 2, {(2, 1): 1})  # not a Lyndon word
    with pytest.raises(InvalidArgument):
        LieElement(2, 2, {(1, 3): 1})  # letter above rank
    with pytest.raises(InvalidArgument):
        normalize(2, (1, 3))
    with pytest.raises(InvalidArgument):
        GroupRingElement(2, {(1, 1): 1})  # not a permutation


def test_is_lyndon():
    assert is_lyndon((1, 1, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 2, 1, 2))
    assert not is_lyndon(())


@st.composite
def lie_elements(draw):
    n = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(min_value=1, max_value=3))
    words = lyndon_words(n, p)
    coeffs = draw(st.dictionaries(st.sampled_from(words),
                                  st.integers(min_value=-5, max_value=5),
                                  max_size=4))
    return LieElement(n, p, coeffs)


@settings(max_examples=40, deadline=None)
@given(lie_elements())
def test_embed_injective_hypothesis(elem):
    from schurlie.freelie import decompose
    assert decompose(elem.n, embed(elem)) == elem
    if elem.is_zero():
        assert embed(elem).is_zero()


def test_zero_lie():
    z = zero_lie(3, 4)
    assert z.is_zero()
    assert str(z) == "0"


def test_decompose_rejects_non_lie_tensors():
    from schurlie.errors import InternalInvariantError
    from schurlie.freelie import decompose
    # a bare word is never a Lie element in degree >= 2
    with pytest.raises(InternalInvariantError):
        decompose(2, TensorElement.from_word((2, 1)))
    with pytest.raises(InternalInvariantError):
        decompose(2, TensorElement.from_word((1, 2)))
    # perturbing an embedded element by one word breaks the decomposition
    with pytest.raises(InternalInvariantError):
        decompose(2, embed(normalize(2, (1, 2))) + TensorElement.from_word((2, 1)))
