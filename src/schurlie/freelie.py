"""Free Lie algebra on x_1..x_n over the integers, in the Lyndon-word basis.

A Lie monomial is a binary bracket tree: a leaf is a generator index (int),
an internal node is the pair ``(left, right)``.  Homogeneous elements of
degree p are sparse integer coordinate vectors over the Lyndon words of
length p, each word standing for its standard (Chen-Fox-Lyndon) bracketing.

Coordinates are read off by embedding into the tensor algebra and repeatedly
peeling the lexicographically smallest word: for an embedded Lie element that
word is Lyndon and its standard bracketing re-expands with leading
coefficient 1, so subtraction terminates.  A tensor that is not a Lie element
either exposes a non-Lyndon leading word or leaves a nonzero remainder, and
the decomposition raises.
"""

from functools import lru_cache
from itertools import product

from .errors import (DimensionMismatch, InvalidArgument, InternalInvariantError,
                     ResourceGuardExceeded)
from .words import (SparseCombination, TensorElement, _linear_combination, check_perm,
                    check_word, format_perm, format_terms, perm_inverse, tensor_product)

LEAF = None  # leaf marker inside bracket shapes
SHAPE_LEAF_GUARD = 16  # a q-leaf shape expands to 2^(q-1) terms


# ---------------------------------------------------------------------------
# Lyndon words

def is_lyndon(w):
    """True when w is strictly smaller than all of its proper rotations."""
    if not w:
        return False
    return all(w < w[k:] + w[:k] for k in range(1, len(w)))


@lru_cache(maxsize=None)
def lyndon_words(n, p):
    """Lyndon words of length p over 1..n, lexicographically ordered.

    >>> lyndon_words(2, 3)
    ((1, 1, 2), (1, 2, 2))
    """
    if n < 1 or p < 1:
        raise InvalidArgument(f"need rank >= 1 and degree >= 1, got n={n}, p={p}")
    return tuple(w for w in product(range(1, n + 1), repeat=p) if is_lyndon(w))


def standard_factorization(w):
    """Split a Lyndon word of length >= 2 as u.v with v the longest proper
    Lyndon suffix; both halves are again Lyndon."""
    for k in range(1, len(w)):
        if is_lyndon(w[k:]):
            return w[:k], w[k:]
    raise InvalidArgument(f"{w!r} has no Lyndon proper suffix; not a Lyndon word?")


@lru_cache(maxsize=None)
def lyndon_bracketing(w):
    """The standard bracket tree of a Lyndon word."""
    if len(w) == 1:
        return w[0]
    left, right = standard_factorization(w)
    return (lyndon_bracketing(left), lyndon_bracketing(right))


@lru_cache(maxsize=None)
def lyndon_basis(n, p):
    """Standard bracketings of the degree-p Lyndon words, in word order."""
    return tuple(lyndon_bracketing(w) for w in lyndon_words(n, p))


def _mobius(m):
    result = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def witt_dimension(n, p):
    """Necklace count (1/p) sum_{d|p} mu(d) n^{p/d}, the rank of the
    degree-p component."""
    total = sum(_mobius(d) * n ** (p // d) for d in range(1, p + 1) if p % d == 0)
    return total // p


# ---------------------------------------------------------------------------
# monomial trees

def is_monomial(tree):
    if isinstance(tree, int):
        return tree >= 1
    return (isinstance(tree, tuple) and len(tree) == 2
            and is_monomial(tree[0]) and is_monomial(tree[1]))


def monomial_degree(tree):
    if isinstance(tree, int):
        return 1
    return monomial_degree(tree[0]) + monomial_degree(tree[1])


def monomial_letters(tree):
    """Leaves of a bracket tree, left to right."""
    if isinstance(tree, int):
        return (tree,)
    return monomial_letters(tree[0]) + monomial_letters(tree[1])


def monomial_str(tree):
    if isinstance(tree, int):
        return f"x{tree}"
    return f"[{monomial_str(tree[0])},{monomial_str(tree[1])}]"


@lru_cache(maxsize=None)
def embed_monomial(tree):
    """Full bracket expansion of a monomial in the tensor algebra."""
    if isinstance(tree, int):
        return TensorElement.from_word((tree,))
    left = embed_monomial(tree[0])
    right = embed_monomial(tree[1])
    return tensor_product(left, right) - tensor_product(right, left)


# ---------------------------------------------------------------------------
# elements

class LieElement(SparseCombination):
    """Sparse integer coordinates over the degree-p Lyndon basis, rank n."""

    __slots__ = ("n", "degree")

    def __init__(self, n, degree, coeffs=None):
        self.n = n
        self.degree = degree
        self._coeffs = self._checked(coeffs, self._check_key)

    def _check_key(self, w):
        w = check_word(w)
        if len(w) != self.degree:
            raise DimensionMismatch(f"basis word {w!r} in a degree-{self.degree} element")
        if max(w) > self.n:
            raise InvalidArgument(f"letter above rank {self.n} in {w!r}")
        if not is_lyndon(w):
            raise InvalidArgument(f"{w!r} is not a Lyndon word")
        return w

    @classmethod
    def _trusted(cls, n, degree, coeffs):
        """Wrap coeffs as is: Lyndon words of length degree over 1..n, no
        zero values."""
        self = cls.__new__(cls)
        self.n = n
        self.degree = degree
        self._coeffs = coeffs
        return self

    def _header(self):
        return (self.n, self.degree)

    def __str__(self):
        return format_terms(self.items(),
                            lambda w: monomial_str(lyndon_bracketing(w)))

    __repr__ = __str__


def generator(n, i):
    if not 1 <= i <= n:
        raise InvalidArgument(f"generator index {i} outside 1..{n}")
    return LieElement(n, 1, {(i,): 1})


def zero_lie(n, degree):
    return LieElement(n, degree)


def embed(x):
    """Embedding into the tensor algebra; accepts a monomial tree or element."""
    if isinstance(x, LieElement):
        return _linear_combination(
            x.degree, ((c, embed_monomial(lyndon_bracketing(w)))
                       for w, c in x._coeffs.items()))
    if not is_monomial(x):
        raise InvalidArgument(f"not a Lie monomial tree: {x!r}")
    return embed_monomial(x)


def decompose(n, t):
    """Lyndon coordinates of a tensor known to be a Lie element.

    Raises InternalInvariantError when t is not in the image of the
    embedding, which callers treat as an implementation bug, and
    InvalidArgument when a coordinate word has a letter above rank n.
    """
    rem = dict(t._coeffs)
    coords = {}
    while rem:
        w = min(rem)
        if not is_lyndon(w):
            raise InternalInvariantError(
                f"leading word {w!r} is not Lyndon; tensor is not a Lie element")
        if max(w) > n:
            raise InvalidArgument(f"letter above rank {n} in {w!r}")
        c = rem[w]
        coords[w] = c
        for v, cv in embed_monomial(lyndon_bracketing(w))._coeffs.items():
            newc = rem.get(v, 0) - c * cv
            if newc:
                rem[v] = newc
            else:
                rem.pop(v, None)
    return LieElement._trusted(n, t.degree, coords)


def normalize(n, terms):
    """Lyndon coordinates of a monomial or of a list of (coeff, monomial)."""
    if is_monomial(terms):
        terms = [(1, terms)]
    terms = list(terms)
    if not terms:
        raise InvalidArgument("normalize of an empty term list has no degree")
    degree = monomial_degree(terms[0][1])
    if any(monomial_degree(tree) != degree for _, tree in terms):
        raise DimensionMismatch("mixed degrees in a homogeneous sum")
    return decompose(n, _linear_combination(
        degree, ((c, embed_monomial(tree)) for c, tree in terms)))


def lie_bracket(a, b):
    """Bracket of two homogeneous elements, normalized; degree adds."""
    if a.n != b.n:
        raise DimensionMismatch(f"bracket across ranks {a.n} and {b.n}")
    ea, eb = embed(a), embed(b)
    return decompose(a.n, tensor_product(ea, eb) - tensor_product(eb, ea))


# ---------------------------------------------------------------------------
# the left-normed bracketing map (Specht-Wever)

@lru_cache(maxsize=None)
def _specht_wever_word(n, w):
    tree = w[-1]
    for letter in reversed(w[:-1]):
        tree = (letter, tree)
    return normalize(n, tree)


def specht_wever(x, n):
    """ad(x_{i1})...ad(x_{i_{p-1}})(x_{ip}), extended linearly to tensors.

    Defined on positive degree only; the empty word is rejected.
    """
    if isinstance(x, TensorElement):
        if x.degree < 1:
            raise InvalidArgument("the bracketing map needs degree >= 1")
        out = LieElement(n, x.degree)
        for w, c in x.items():
            out = out + _specht_wever_word(n, w).scale(c)
        return out
    w = check_word(x)
    if not w:
        raise InvalidArgument("the bracketing map is undefined on the empty word")
    return _specht_wever_word(n, w)


# ---------------------------------------------------------------------------
# bracket shapes and the group-ring expansion of a shape

def is_shape(shape):
    if shape is LEAF:
        return True
    return (isinstance(shape, tuple) and len(shape) == 2
            and is_shape(shape[0]) and is_shape(shape[1]))


def shape_leaf_count(shape):
    if shape is LEAF:
        return 1
    return shape_leaf_count(shape[0]) + shape_leaf_count(shape[1])


def shape_of(tree):
    if isinstance(tree, int):
        return LEAF
    return (shape_of(tree[0]), shape_of(tree[1]))


def monomial_from_shape(shape, letters):
    """Attach letters (left to right) to the leaves of a shape."""
    letters = list(letters)
    if len(letters) != shape_leaf_count(shape):
        raise DimensionMismatch(
            f"{len(letters)} letters for a {shape_leaf_count(shape)}-leaf shape")
    it = iter(letters)

    def build(s):
        if s is LEAF:
            return next(it)
        return (build(s[0]), build(s[1]))

    return build(shape)


class GroupRingElement(SparseCombination):
    """Sparse integer combination of degree-q permutations."""

    __slots__ = ("degree",)

    def __init__(self, degree, coeffs=None):
        self.degree = degree
        self._coeffs = self._checked(coeffs, self._check_key)

    def _check_key(self, p):
        if len(p) != self.degree:
            raise DimensionMismatch(
                f"permutation {p!r} in a degree-{self.degree} group-ring element")
        return check_perm(tuple(p))

    @classmethod
    def _trusted(cls, degree, coeffs):
        """Wrap coeffs as is: permutations of size degree, no zero values."""
        self = cls.__new__(cls)
        self.degree = degree
        self._coeffs = coeffs
        return self

    def _header(self):
        return (self.degree,)

    def apply(self, t):
        """Linear action on a word or tensor through the place permutation."""
        if not isinstance(t, TensorElement):
            t = TensorElement.from_word(t)
        return _linear_combination(t.degree,
                                   ((c, t.act(p)) for p, c in self._coeffs.items()))

    def __str__(self):
        return format_terms(self.items(), format_perm)

    __repr__ = __str__


@lru_cache(maxsize=None)
def bracketing_function(shape):
    """The group-ring element carrying a bracket shape's tensor expansion.

    Computed on the all-distinct word (1, ..., q); each expansion word is then
    itself the one-line form of the inverse acting permutation.  The defining
    identity embed(shape with letters w) == result.apply(w) holds for every
    letter choice, not only the distinct one (see the test suite).

    >>> print(bracketing_function(((LEAF, LEAF), LEAF)))
    1 - (1 2) - (1 2 3) + (1 3)
    """
    if not is_shape(shape):
        raise InvalidArgument(f"not a bracket shape: {shape!r}")
    q = shape_leaf_count(shape)
    if q > SHAPE_LEAF_GUARD:
        raise ResourceGuardExceeded(
            f"bracket shape with {q} leaves, above {SHAPE_LEAF_GUARD}")
    tree = monomial_from_shape(shape, range(1, q + 1))
    coeffs = {}
    for w, c in embed_monomial(tree).items():
        sigma = perm_inverse(w)  # act((1..q), sigma) == w
        coeffs[sigma] = coeffs.get(sigma, 0) + c
    return GroupRingElement(q, coeffs)
