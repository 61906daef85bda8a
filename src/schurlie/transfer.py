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
of one support word per factor, in one loop over the transversal: the blocks
of u . sigma^{-1} are read straight off u, each factor's image of a block
word is computed once per call, and the concatenated terms are placed by
sigma into one coefficient dict.
"""

from itertools import product
from math import factorial, prod

from .errors import DimensionMismatch, InvalidArgument
from .schur import SchurElement, orbit_data_of_column
from .words import (SparseCombination, TensorElement, _place, act, check_perm,
                    perm_compose, perm_sorting_onto, rearrangements,
                    young_subgroup_of)


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
    stabilizer of the marker word."""
    return young_subgroup_of(_marker(check_composition(parts)))


def coset_transversal(parts):
    """Minimal-length left coset representatives of the Young subgroup.

    The Young subgroup is the stabilizer of the marker word, so each left
    coset is labelled by one rearrangement of it (coset_id).  The shortest
    representative of a label sorts the marker onto it keeping equal letters
    in order, so it maps each block onto its image set increasingly.
    """
    marker = _marker(check_composition(parts))
    return [perm_sorting_onto(marker, label) for label in rearrangements(marker)]


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
    if transversal is None:
        transversal = coset_transversal(parts)
    else:
        transversal = [tuple(sigma) for sigma in transversal]
        for sigma in transversal:
            if len(check_perm(sigma)) != d:
                raise DimensionMismatch(f"permutation {sigma!r} in a degree-{d} transversal")
        if not is_left_transversal(transversal, parts):
            raise InvalidArgument(f"not a left transversal of the Young subgroup of {parts}")
    splits = []
    start = 0
    for a in parts:
        splits.append((start, start + a))
        start += a
    # per factor, its image of each block word met so far, as (word, coeff) pairs
    images = [{} for _ in fs]

    # a column can be nonzero only at the sorted letters of one support word
    # per factor, whatever the transversal
    support = {tuple(sorted(sum(us, ())))
               for us in product(*({u for u, _ in f._coeffs} for f in fs))}
    pairs = {}
    for u in sorted(support):
        coeffs = {}
        for sigma in transversal:
            v = tuple([u[s - 1] for s in sigma])  # u . sigma^{-1}
            terms = [((), 1)]
            for (lo, hi), f, image_of in zip(splits, fs, images):
                block = v[lo:hi]
                image = image_of.get(block)
                if image is None:
                    image = image_of[block] = list(f.apply_word(block)._coeffs.items())
                terms = [(w1 + w2, c1 * c2) for w1, c1 in terms for w2, c2 in image]
                if not terms:
                    break
            for w, c in terms:
                w = _place(w, sigma)
                coeffs[w] = coeffs.get(w, 0) + c
        column = TensorElement._trusted(d, {w: c for w, c in coeffs.items() if c})
        for key, c in orbit_data_of_column(u, column).items():
            pairs[u, key] = c
    return SchurElement._trusted(n, d, pairs)


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
