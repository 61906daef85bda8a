"""Arithmetic builds its results without re-validating them; each result must
equal the same coefficients passed through the validating public constructor,
and must store no zero coefficient."""

from hypothesis import given, settings, strategies as st

from schurlie.freelie import LieElement, lyndon_words
from schurlie.schur import SchurElement, orbit_keys
from schurlie.words import TensorElement, act, sorted_words, tensor_product, words_of

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
