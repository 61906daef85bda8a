"""The cross-degree product on equivariant endomorphisms, and the operad
built from it.

For an ordered composition (a_1, ..., a_k) of d, the product of elements
f_i of degrees a_i is the sum, over a left transversal L of the Young
subgroup in the full symmetric group, of sigma . (f_1 x ... x f_k) . sigma^{-1}
with the f_i acting blockwise.  The result does not depend on the choice of
transversal; the canonical one here consists of the minimal-length (shuffle)
representatives, and a randomized transversal is available for
well-definedness tests.  A transversal given by the caller is checked to be
one.

transfer evaluates the sum only on the sorted words u that hold the letters
of one support word per factor.  Each sigma has two cached placers
(words._placer): one reads u . sigma^{-1} straight off u, the other places a
concatenated image word by sigma; the canonical transversal's pairs are
collected once per composition and cached.

With the canonical transversal (the default) the loop runs over the tuples
of the factors' support words, not over the transversal: a shuffle maps
each block increasingly, so at a sorted u every block of u . sigma^{-1} is
sorted, and the blocks' product is nonzero only where each is a support word
of its factor.  Each tuple's product of columns f_i(u_i) is formed once and
placed by the shuffles that merge the blocks into their sorted letters u,
the sigma whose read of u is the tuple's concatenation; the products of
the other sigma, all zero, are never formed.  A transversal given by the
caller is summed sigma by sigma at each u instead, with each block word's
image computed once per call and each distinct u . sigma^{-1}'s product of
images once per u: this is the path that applies each factor to unsorted
blocks, where its equivariance is used, so comparing the two checks both.
Either way the placed terms go into one coefficient dict per u.
"""

from functools import lru_cache
from itertools import product
from math import factorial, prod

from .errors import DimensionMismatch, InvalidArgument
from .schur import SchurElement, _orbit, orbit_data_of_column
from .words import (SparseCombination, TensorElement, _placer, act,
                    check_perm, perm_compose, perm_inverse, perm_sorting_onto,
                    rearrangements)


def check_composition(parts):
    parts = tuple(parts)
    if not parts or any((not isinstance(a, int)) or a < 1 for a in parts):
        raise InvalidArgument(f"composition parts must be positive integers: {parts!r}")
    return parts


def multinomial(parts):
    return factorial(sum(parts)) // prod(factorial(a) for a in parts)


def _marker(parts):
    """The sorted word with parts[i] copies of the letter i + 1: the letter at
    a position names the block that holds it."""
    return sum(((i + 1,) * a for i, a in enumerate(parts)), ())


def young_subgroup(parts):
    """The block-preserving subgroup of Sigma_d, as one-line tuples: the
    stabilizer of the marker word, which is the orbit of the identity under
    it, each block's permutations taken lexicographically in product order.

    >>> young_subgroup((2, 1))
    [(1, 2, 3), (2, 1, 3)]
    """
    parts = check_composition(parts)
    return list(_orbit(_marker(parts), tuple(range(1, sum(parts) + 1))))


def coset_transversal(parts):
    """Minimal-length left coset representatives of the Young subgroup.

    The Young subgroup is the stabilizer of the marker word, so each left
    coset is labelled by one rearrangement of it (coset_id).  The shortest
    representative of a label sorts the marker onto it keeping equal letters
    in order, so it maps each block onto its image set increasingly.
    """
    return list(_canonical_transversal(check_composition(parts)))


@lru_cache(maxsize=None)
def _canonical_transversal(parts):
    """coset_transversal of checked parts, as a tuple."""
    marker = _marker(parts)
    return tuple(perm_sorting_onto(marker, label) for label in rearrangements(marker))


def coset_id(sigma, parts):
    """The left coset of sigma: the marker word moved by sigma, which holds at
    each position the block that sigma sends there."""
    return act(_marker(parts), sigma)


def is_left_transversal(perms, parts):
    ids = {coset_id(sigma, parts) for sigma in perms}
    return len(perms) == len(ids) == multinomial(parts)


def random_transversal(parts, rng):
    """A transversal with a random member of each coset; for invariance tests."""
    young = young_subgroup(parts)
    return [perm_compose(sigma, rng.choice(young)) for sigma in coset_transversal(parts)]


def transversal_by_product(parts):
    """Transversal built recursively through the chain of Young subgroups:
    representatives for (a_1+...+a_{k-1}, a_k) composed with representatives
    for (a_1, ..., a_{k-1}) embedded in the first block."""
    parts = check_composition(parts)
    if len(parts) == 1:
        return [tuple(range(1, parts[0] + 1))]
    d = sum(parts)
    inner = transversal_by_product(parts[:-1])
    outer = coset_transversal((d - parts[-1], parts[-1]))
    tail = tuple(range(d - parts[-1] + 1, d + 1))
    return [perm_compose(tau, sigma + tail) for tau in outer for sigma in inner]


def transfer(parts, fs, transversal=None):
    """The transversal-summed blockwise product, an element of degree sum(parts)."""
    parts = check_composition(parts)
    if len(fs) != len(parts):
        raise InvalidArgument(f"{len(fs)} factors for a {len(parts)}-part composition")
    for f, a in zip(fs, parts):
        if f.q != a:
            raise DimensionMismatch(f"degree-{f.q} factor on a part of size {a}")
    ranks = {f.n for f in fs}
    if len(ranks) != 1:
        raise DimensionMismatch(f"factors of different ranks {sorted(ranks)}")
    n = ranks.pop()
    d = sum(parts)
    # each factor's support words, in the order of its pairs
    supports = [list(dict.fromkeys(u for u, _ in f._coeffs)) for f in fs]
    if transversal is None:
        columns = _merged_columns(fs, supports, _canonical_moves(parts))
    else:
        transversal = [tuple(sigma) for sigma in transversal]
        for sigma in transversal:
            if len(check_perm(sigma)) != d:
                raise DimensionMismatch(f"permutation {sigma!r} in a degree-{d} transversal")
        if not is_left_transversal(transversal, parts):
            raise InvalidArgument(f"not a left transversal of the Young subgroup of {parts}")
        columns = _summed_columns(parts, fs, supports, _moves(transversal))
    pairs = {}
    for u in sorted(columns):
        column = TensorElement._trusted(d, {w: c for w, c in columns[u].items() if c})
        for key, c in orbit_data_of_column(u, column).items():
            pairs[u, key] = c
    return SchurElement._trusted(n, d, pairs)


def _merged_columns(fs, supports, moves):
    """The canonical sum's columns, sorted word -> {word: coefficient}: for
    each tuple of support words (u_1, ..., u_k), with concatenation v and
    sorted letters u, the product of the columns f_i(u_i), placed by the
    sigma that read v off u (the shuffles that merge the blocks into u)."""
    columns = {}
    for us in product(*supports):
        terms = [((), 1)]
        for f, block in zip(fs, us):
            image = f.column(block)._coeffs.items()
            terms = [(w1 + w2, c1 * c2) for w1, c1 in terms for w2, c2 in image]
        v = sum(us, ())
        u = tuple(sorted(v))
        coeffs = columns.setdefault(u, {})
        for read, place in moves:
            if read(u) == v:
                for w, c in terms:
                    w = place(w)
                    coeffs[w] = coeffs.get(w, 0) + c
    return columns


def _summed_columns(parts, fs, supports, moves):
    """The sum over a given transversal's columns, sorted word ->
    {word: coefficient}, summed sigma by sigma at each sorted u that holds
    the letters of one support word per factor."""
    splits = []
    start = 0
    for a in parts:
        splits.append((start, start + a))
        start += a
    # per factor, its image of each block word met so far, as (word, coeff) pairs
    images = [{} for _ in fs]
    # a column can be nonzero only at the sorted letters of one support word
    # per factor, whatever the transversal
    support = {tuple(sorted(sum(us, ()))) for us in product(*supports)}
    columns = {}
    for u in sorted(support):
        coeffs = columns[u] = {}
        products = {}  # u . sigma^{-1} -> the product of its blocks' images
        for read, place in moves:
            v = read(u)
            terms = products.get(v)
            if terms is None:
                terms = [((), 1)]
                for (lo, hi), f, image_of in zip(splits, fs, images):
                    block = v[lo:hi]
                    image = image_of.get(block)
                    if image is None:
                        image = image_of[block] = list(f.apply_word(block)._coeffs.items())
                    terms = [(w1 + w2, c1 * c2) for w1, c1 in terms for w2, c2 in image]
                    if not terms:
                        break
                products[v] = terms
            for w, c in terms:
                w = place(w)
                coeffs[w] = coeffs.get(w, 0) + c
    return columns


@lru_cache(maxsize=None)
def _canonical_moves(parts):
    """_moves of the canonical transversal of checked parts."""
    return _moves(_canonical_transversal(parts))


def _moves(transversal):
    """Per sigma, the placers of sigma^{-1} (read u) and of sigma (place w)."""
    return tuple((_placer(perm_inverse(sigma)), _placer(sigma)) for sigma in transversal)


def star(f, g):
    """Binary cross-degree product; degree-0 factors act as scalars."""
    if f.n != g.n:
        raise DimensionMismatch(f"factors of ranks {f.n} and {g.n}")
    if f.q == 0:
        return g.scale(f.scalar_value)
    if g.q == 0:
        return f.scale(g.scalar_value)
    return transfer((f.q, g.q), [f, g])


class GradedSchurElement(SparseCombination):
    """A finitely supported sum of elements across degrees, rank n: the
    (sorted word, orbit key) pairs of its components, at any length."""

    __slots__ = ("n",)

    def __init__(self, n, components=None):
        self.n = n
        self._coeffs = {}
        for q, f in (components or {}).items():
            if f.n != n:
                raise DimensionMismatch(f"rank-{f.n} component in a rank-{n} element")
            if f.q != q:
                raise DimensionMismatch(f"degree-{f.q} component stored at degree {q}")
            self._coeffs.update(f._coeffs)

    @classmethod
    def _trusted(cls, n, pairs):
        """Wrap pairs as is: the pairs of rank-n elements, no zero values."""
        self = cls.__new__(cls)
        self.n = n
        self._coeffs = pairs
        return self

    def _header(self):
        return (self.n,)

    @classmethod
    def of(cls, *fs):
        if not fs:
            raise InvalidArgument("need at least one component")
        out = cls(fs[0].n)
        for f in fs:
            out = out + cls(f.n, {f.q: f})
        return out

    @classmethod
    def scalar(cls, n, value):
        return cls(n, {0: SchurElement.scalar(n, value)})

    def component(self, q):
        return SchurElement._trusted(
            self.n, q, {pair: c for pair, c in self._coeffs.items() if len(pair[0]) == q})

    def degrees(self):
        return sorted({len(u) for u, _ in self._coeffs})

    def __repr__(self):
        return f"GradedSchurElement(n={self.n}, degrees={self.degrees()})"


def boxtimes(F, G):
    """Bilinear extension of star across degrees: the degree-d component of
    the product is the sum of products of components with degrees adding to d."""
    if isinstance(F, SchurElement):
        F = GradedSchurElement.of(F)
    if isinstance(G, SchurElement):
        G = GradedSchurElement.of(G)
    if F.n != G.n:
        raise DimensionMismatch(f"factors of ranks {F.n} and {G.n}")
    out = GradedSchurElement(F.n)
    for p in F.degrees():
        for q in G.degrees():
            out = out + GradedSchurElement(F.n, {p + q: star(F.component(p), G.component(q))})
    return out


def operad_compose(theta, thetas):
    """Operadic composition: theta of arity m (degree m-1) applied to the
    m-tuple of operations theta_i of arities k_i (degrees k_i - 1), realized
    as the iterated cross-degree product; the result has arity sum(k_i)."""
    m = len(thetas)
    if theta.q != m - 1:
        raise InvalidArgument(
            f"degree-{theta.q} operation has arity {theta.q + 1}, got {m} arguments")
    result = theta
    for t in thetas:
        result = star(result, t)
    return result
