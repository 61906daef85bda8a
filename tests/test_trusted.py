"""Arithmetic builds its results without re-validating them; each result must
equal the same coefficients passed through the validating public constructor,
and must store no zero coefficient."""

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from schurlie.errors import DimensionMismatch, InvalidArgument
from schurlie.freegroup import MagnusSeries
from schurlie.freelie import GroupRingElement, LieElement, lyndon_words
from schurlie.schur import SchurElement, orbit_keys
from schurlie.words import (TensorElement, act, perm_compose, sorted_words,
                            tensor_product, words_of)


def all_perms(q):
    """All of Sigma_q in one-line notation, lexicographic order."""
    return permutations(range(1, q + 1))


COEFFS = st.integers(min_value=-3, max_value=3)  # zero included on purpose


def _combine(*terms):
    """sum of k * d over (k, d) on plain dicts, zeros kept."""
    out = {}
    for k, d in terms:
        for w, c in d.items():
            out[w] = out.get(w, 0) + k * c
    return out


def _no_zero(pairs):
    return all(c for _, c in pairs)


@st.composite
def tensor_dicts(draw, n, q):
    return draw(st.dictionaries(st.sampled_from(list(words_of(n, q))), COEFFS, max_size=6))


@st.composite
def tensor_cases(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=0, max_value=3))
    p = draw(st.integers(min_value=0, max_value=2))
    return (q, p, draw(tensor_dicts(n, q)), draw(tensor_dicts(n, q)),
            draw(tensor_dicts(n, p)), draw(COEFFS),
            tuple(draw(st.permutations(range(1, q + 1)))))


@settings(max_examples=80, deadline=None)
@given(tensor_cases())
def test_tensor_arithmetic_matches_validated(case):
    q, p, da, db, dc, k, sigma = case
    a, b, c = TensorElement(q, da), TensorElement(q, db), TensorElement(p, dc)
    product = {}
    for w1, c1 in da.items():
        for w2, c2 in dc.items():
            product[w1 + w2] = product.get(w1 + w2, 0) + c1 * c2
    for got, want in [
            (a + b, TensorElement(q, _combine((1, da), (1, db)))),
            (a - b, TensorElement(q, _combine((1, da), (-1, db)))),
            (-a, TensorElement(q, _combine((-1, da)))),
            (a.scale(k), TensorElement(q, _combine((k, da)))),
            (a.act(sigma), TensorElement(q, {act(w, sigma): c for w, c in da.items()})),
            (tensor_product(a, c), TensorElement(q + p, product))]:
        assert got == want
        assert _no_zero(got.items())


@st.composite
def lie_cases(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    p = draw(st.integers(min_value=1, max_value=4))
    words = st.sampled_from(lyndon_words(n, p))
    da = draw(st.dictionaries(words, COEFFS, max_size=5))
    db = draw(st.dictionaries(words, COEFFS, max_size=5))
    return n, p, da, db, draw(COEFFS)


@settings(max_examples=60, deadline=None)
@given(lie_cases())
def test_lie_arithmetic_matches_validated(case):
    n, p, da, db, k = case
    a, b = LieElement(n, p, da), LieElement(n, p, db)
    for got, raw in [(a + b, _combine((1, da), (1, db))),
                     (a - b, _combine((1, da), (-1, db))),
                     (a.scale(k), _combine((k, da)))]:
        assert got == LieElement(n, p, raw)
        assert _no_zero(got.items())


@st.composite
def group_ring_cases(draw):
    q = draw(st.integers(min_value=0, max_value=3))
    perms = st.sampled_from(list(all_perms(q)))
    da = draw(st.dictionaries(perms, COEFFS, max_size=4))
    db = draw(st.dictionaries(perms, COEFFS, max_size=4))
    word = tuple(draw(st.lists(st.integers(1, 2), min_size=q, max_size=q)))
    return q, da, db, draw(COEFFS), word


@settings(max_examples=60, deadline=None)
@given(group_ring_cases())
def test_group_ring_arithmetic_matches_validated(case):
    q, da, db, k, word = case
    a, b = GroupRingElement(q, da), GroupRingElement(q, db)
    for got, raw in [(a + b, _combine((1, da), (1, db))),
                     (a - b, _combine((1, da), (-1, db))),
                     (-a, _combine((-1, da))),
                     (a.scale(k), _combine((k, da)))]:
        assert got == GroupRingElement(q, raw)
        assert _no_zero(got.items())
    assert (a + b).apply(word) == a.apply(word) + b.apply(word)
    assert a.scale(k).apply(word) == a.apply(word).scale(k)
    # sigma then tau acts as their composite, tau after sigma
    for sigma in da:
        for tau in db:
            assert (GroupRingElement(q, {tau: 1}).apply(GroupRingElement(q, {sigma: 1}).apply(word))
                    == GroupRingElement(q, {perm_compose(tau, sigma): 1}).apply(word))


@st.composite
def magnus_cases(draw):
    truncation = draw(st.integers(min_value=1, max_value=3))
    # words up to one letter past the truncation, which the constructor drops
    words = st.lists(st.integers(1, 2), max_size=truncation + 1).map(tuple)
    da = draw(st.dictionaries(words, COEFFS, max_size=6))
    db = draw(st.dictionaries(words, COEFFS, max_size=6))
    return truncation, da, db, draw(COEFFS)


@settings(max_examples=60, deadline=None)
@given(magnus_cases())
def test_magnus_arithmetic_matches_validated(case):
    truncation, da, db, k = case
    a, b = MagnusSeries(truncation, da), MagnusSeries(truncation, db)
    product = {}
    for w1, c1 in da.items():
        for w2, c2 in db.items():
            product[w1 + w2] = product.get(w1 + w2, 0) + c1 * c2
    for got, raw in [(a + b, _combine((1, da), (1, db))),
                     (a - b, _combine((1, da), (-1, db))),
                     (-a, _combine((-1, da))),
                     (a.scale(k), _combine((k, da))),
                     (a * b, product)]:
        assert got == MagnusSeries(truncation, raw)
        assert _no_zero(got.items())
        assert all(len(w) <= truncation for w, _ in got.items())


# one (make, header, other header, coefficients, bad keys) per subclass of
# the shared core; each bad key is refused even with coefficient 0
COMBINATIONS = {
    "tensor": (TensorElement, (2,), (3,), {(1, 2): 1, (2, 1): -2},
               [((0, 1), InvalidArgument), ((1,), DimensionMismatch)]),
    "lie": (LieElement, (2, 2), (3, 2), {(1, 2): 3},
            [((2, 1), InvalidArgument), ((1, 3), InvalidArgument),
             ((1, 1, 2), DimensionMismatch)]),
    "group ring": (GroupRingElement, (2,), (3,), {(1, 2): 1, (2, 1): -1},
                   [((1, 1), InvalidArgument), ((1,), DimensionMismatch)]),
    "magnus": (MagnusSeries, (2,), (3,), {(): 1, (1, 2): -1},
               [((0,), InvalidArgument), ((1, 0, 1), InvalidArgument)]),
}


@pytest.mark.parametrize("name", COMBINATIONS)
def test_sparse_combination_contract(name):
    make, header, other_header, coeffs, bad_keys = COMBINATIONS[name]
    a = make(*header, coeffs)
    other = make(*other_header)
    for op in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(DimensionMismatch):
            op(a, other)
    # (1, 2) is a key of every class at its first header
    one_key = make(*header, {(1, 2): 1})
    for other_name, (other_make, first_header, _, _, _) in COMBINATIONS.items():
        if other_name != name:
            stranger = other_make(*first_header, {(1, 2): 1})
            assert one_key != stranger
            with pytest.raises(DimensionMismatch):
                one_key + stranger
    same = make(*header, dict(reversed(list(coeffs.items()))))
    assert same == a and hash(same) == hash(a)
    assert a - a == make(*header, {k: 0 for k in coeffs}) and len(a - a) == 0
    for result in (a + a, a - a, -a, a.scale(2), 2 * a, a.scale(0)):
        assert _no_zero(result.items())
        assert type(result) is type(a) and result._header() == a._header()
    for key, error in bad_keys:
        with pytest.raises(error):
            make(*header, {key: 0})
    if make is MagnusSeries:
        assert make(*header, {(1, 2, 1): 5}).is_zero()  # past the truncation


@st.composite
def schur_data(draw, n, q):
    data = {}
    for u in draw(st.lists(st.sampled_from(list(sorted_words(n, q))), max_size=3)):
        row = data.setdefault(u, {})
        for key in draw(st.lists(st.sampled_from(orbit_keys(n, u)), max_size=3)):
            row[key] = draw(COEFFS)
    return data


@st.composite
def schur_cases(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    q = draw(st.integers(min_value=0, max_value=3))
    return n, q, draw(schur_data(n, q)), draw(schur_data(n, q)), draw(COEFFS)


def _schur_combine(*terms):
    out = {}
    for k, data in terms:
        for u, row in data.items():
            target = out.setdefault(u, {})
            for key, c in row.items():
                target[key] = target.get(key, 0) + k * c
    return out


@settings(max_examples=60, deadline=None)
@given(schur_cases())
def test_schur_arithmetic_matches_validated(case):
    n, q, da, db, k = case
    f, g = SchurElement(n, q, da), SchurElement(n, q, db)
    composite = f.compose(g)
    for got, raw in [(f + g, _schur_combine((1, da), (1, db))),
                     (f - g, _schur_combine((1, da), (-1, db))),
                     (f.scale(k), _schur_combine((k, da))),
                     (composite, composite.data)]:
        assert got == SchurElement(n, q, raw)
        assert all(row and _no_zero(row.items()) for row in got.data.values())
    for w in words_of(n, q):
        assert composite.apply_word(w) == f.apply(g.apply_word(w))
