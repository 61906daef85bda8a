"""Free-group words, basis-conjugating automorphisms, the McCool relations,
truncated Magnus expansion, and the Johnson correspondence with derivations.

Conventions, fixed here and relied on throughout:

  * a group word is a freely reduced tuple of signed generator indices,
    -i standing for the inverse of x_i;
  * the group commutator is [a, b] = a^{-1} b^{-1} a b, whose Magnus
    expansion starts 1 + (A B - B A) in degree 2;
  * endomorphisms compose as functions, (alpha * beta)(x) = alpha(beta(x));
    the three-term McCool relation holds as written under this order, and
    verify_mccool also records the opposite-order outcome (the relation set
    is closed under word reversal, so both orders in fact pass);
  * magnus expands a word letter by letter into one coefficient dict per
    word length (its layers), and returns them merged as a MagnusSeries.

Together these make the depth-m Johnson image a Lie morphism on the nose:
the image of a group commutator is the derivation bracket of the images.
"""

from itertools import permutations

from .errors import (DimensionMismatch, InvalidArgument, InternalInvariantError,
                     NotInFiltration, ResourceGuardExceeded)
from .derivations import (Derivation, _check_pair_indices, _check_triple_indices,
                          conjugating_derivation, der_bracket)
from .freelie import decompose
from .words import SparseCombination, TensorElement, check_word

MAGNUS_TRUNCATION_GUARD = 6  # series size grows like n^degree
MCCOOL_RANK_GUARD = 5  # the relation families have O(n^4) instances


# ---------------------------------------------------------------------------
# words

def reduce_word(seq):
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    seq = list(seq)
    for a in seq:
        if not isinstance(a, int) or a == 0:
            raise InvalidArgument(f"group-word letters are nonzero integers: {a!r}")
    return _reduce(seq)


def _reduce(seq):
    """reduce_word for letters already known to be nonzero integers."""
    out = []
    for a in seq:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def word_mul(*ws):
    total = []
    for w in ws:
        total.extend(w)
    return reduce_word(total)


def word_inv(w):
    return tuple(-a for a in reversed(w))


def word_commutator(a, b):
    """[a, b] = a^{-1} b^{-1} a b."""
    return word_mul(word_inv(a), word_inv(b), a, b)


# ---------------------------------------------------------------------------
# endomorphisms of the free group

class EndoOnFree:
    """An endomorphism given by generator images (invertibility unchecked)."""

    __slots__ = ("n", "images")

    def __init__(self, n, images):
        images = tuple(reduce_word(w) for w in images)
        if len(images) != n:
            raise InvalidArgument(f"{len(images)} images for rank {n}")
        for w in images:
            if any(abs(a) > n for a in w):
                raise InvalidArgument(f"letter outside rank {n} in {w!r}")
        self.n = n
        self.images = images

    @classmethod
    def _trusted(cls, n, images):
        """Wrap images as is: n reduced words with nonzero letters in -n..n."""
        self = cls.__new__(cls)
        self.n = n
        self.images = images
        return self

    def apply(self, w):
        for a in w:
            if not isinstance(a, int) or not 0 < abs(a) <= self.n:
                raise InvalidArgument(
                    f"group-word letters are nonzero integers in -{self.n}..{self.n}: {a!r}")
        return self._apply(w)

    __call__ = apply

    def _apply(self, w):
        """apply for letters already known to be nonzero integers in -n..n."""
        out = []
        for a in w:
            img = self.images[a - 1] if a > 0 else word_inv(self.images[-a - 1])
            out.extend(img)
        return _reduce(out)

    def compose(self, other):
        """self after other: (self * other)(x) = self(other(x))."""
        if self.n != other.n:
            raise DimensionMismatch(f"composing ranks {self.n} and {other.n}")
        return EndoOnFree._trusted(self.n, tuple(self._apply(w) for w in other.images))

    def __mul__(self, other):
        return self.compose(other)

    def __eq__(self, other):
        return (isinstance(other, EndoOnFree) and self.n == other.n
                and self.images == other.images)

    def __hash__(self):
        return hash((self.n, self.images))

    def is_identity(self):
        return self.images == tuple((i,) for i in range(1, self.n + 1))

    def __repr__(self):
        return f"EndoOnFree(n={self.n}, images={self.images})"


class AutPair:
    """An automorphism carried together with its inverse, so that group
    commutators of generated elements stay computable in closed form."""

    __slots__ = ("fwd", "inv")

    def __init__(self, fwd, inv):
        if not (fwd * inv).is_identity() or not (inv * fwd).is_identity():
            raise InvalidArgument("claimed inverse is not an inverse")
        self.fwd = fwd
        self.inv = inv

    @classmethod
    def _trusted(cls, fwd, inv):
        """Pair fwd with inv as is: inv is known to be fwd's inverse."""
        self = cls.__new__(cls)
        self.fwd = fwd
        self.inv = inv
        return self

    def inverse(self):
        return AutPair._trusted(self.inv, self.fwd)

    def __mul__(self, other):
        return AutPair._trusted(self.fwd * other.fwd, other.inv * self.inv)

    def commutator(self, other):
        """[a, b] = a^{-1} b^{-1} a b as an AutPair."""
        fwd = self.inv * other.inv * self.fwd * other.fwd
        inv = other.inv * self.inv * other.fwd * self.fwd
        return AutPair._trusted(fwd, inv)


def conjugating_auto(n, i, j):
    """x_i maps to x_j^{-1} x_i x_j, every other generator is fixed."""
    _check_pair_indices(n, i, j)
    images = [(k,) for k in range(1, n + 1)]
    images[i - 1] = (-j, i, j)
    return AutPair(EndoOnFree(n, images),
                   EndoOnFree(n, [(k,) if k != i else (j, i, -j)
                                  for k in range(1, n + 1)]))


def commutator_auto(n, i, s, t):
    """x_i maps to x_i [x_s, x_t], every other generator is fixed."""
    _check_triple_indices(n, i, s, t)
    comm = word_commutator((s,), (t,))
    images = [(k,) for k in range(1, n + 1)]
    images[i - 1] = word_mul((i,), comm)
    inv_images = [(k,) if k != i else word_mul((i,), word_inv(comm))
                  for k in range(1, n + 1)]
    return AutPair(EndoOnFree(n, images), EndoOnFree(n, inv_images))


# ---------------------------------------------------------------------------
# the McCool presentation

def verify_mccool(n):
    """Check every instance of the four relation families at rank n.

    Also records the composition-order cross check, the three-term family
    under the opposite order.  It passes there too: the relation set is
    closed under word reversal.
    """
    if n > MCCOOL_RANK_GUARD:
        raise ResourceGuardExceeded(
            f"relation check guarded at rank {MCCOOL_RANK_GUARD}")
    chi = {(i, j): conjugating_auto(n, i, j)
           for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    instances = []

    def record(family, indices, holds):
        instances.append({"family": family, "indices": indices, "holds": holds})

    idx = range(1, n + 1)
    for i, j, k in permutations(idx, 3):
        lhs = chi[i, j].fwd * chi[k, j].fwd * chi[i, k].fwd
        rhs = chi[i, k].fwd * chi[i, j].fwd * chi[k, j].fwd
        record(1, (i, j, k), lhs == rhs)
    for k, j, s, t in permutations(idx, 4):
        comm = chi[k, j].commutator(chi[s, t])
        record(2, (k, j, s, t), comm.fwd.is_identity())
    for k, s, j in permutations(idx, 3):
        comm = chi[k, j].commutator(chi[s, j])
        record(3, (k, j, s), comm.fwd.is_identity())
    for i, j, k in permutations(idx, 3):
        lhs = chi[i, k].commutator(chi[i, j])
        rhs = chi[i, k].commutator(chi[k, j].inverse())
        record(4, (i, j, k), lhs.fwd == rhs.fwd)

    opposite_holds = True
    for i, j, k in permutations(idx, 3):
        # opposite convention: apply the left factor first
        lhs = chi[i, k].fwd * chi[k, j].fwd * chi[i, j].fwd
        rhs = chi[k, j].fwd * chi[i, j].fwd * chi[i, k].fwd
        if lhs != rhs:
            opposite_holds = False
    return {
        "n": n,
        "instances": instances,
        "all_pass": all(inst["holds"] for inst in instances),
        "opposite_order_family1_all_pass": opposite_holds,
    }


# ---------------------------------------------------------------------------
# Magnus expansion

class MagnusSeries(SparseCombination):
    """Integer noncommutative series truncated above a fixed degree; the
    constructor drops the words past the truncation."""

    __slots__ = ("truncation",)

    def __init__(self, truncation, coeffs=None):
        if truncation < 1:
            raise InvalidArgument("truncation degree must be >= 1")
        self.truncation = truncation
        self._coeffs = self._checked(coeffs, self._check_key)

    def _check_key(self, w):
        w = check_word(w)
        return w if len(w) <= self.truncation else None

    @classmethod
    def _trusted(cls, truncation, coeffs):
        """Wrap coeffs as is: checked words of length at most truncation, no
        zero values."""
        self = cls.__new__(cls)
        self.truncation = truncation
        self._coeffs = coeffs
        return self

    def _header(self):
        return (self.truncation,)

    @classmethod
    def one(cls, truncation):
        return cls(truncation, {(): 1})

    def items(self):
        return sorted(self._coeffs.items(), key=lambda wc: (len(wc[0]), wc[0]))

    def __mul__(self, other):
        truncation = self._same_header(other)[0]
        coeffs = {}
        for w1, c1 in self._coeffs.items():
            for w2, c2 in other._coeffs.items():
                if len(w1) + len(w2) > truncation:
                    continue
                w = w1 + w2
                coeffs[w] = coeffs.get(w, 0) + c1 * c2
        return MagnusSeries._trusted(truncation, {w: c for w, c in coeffs.items() if c})

    def __repr__(self):
        return f"MagnusSeries(trunc={self.truncation}, terms={len(self._coeffs)})"


def magnus(w, truncation):
    """Multiplicative expansion x_i -> 1 + X_i of a group word, freely
    reduced first.

    The word is read one letter at a time into layers[d], the length-d part
    of the series so far, updated in place:

      * x_a multiplies by 1 + X_a: layers[d] += layers[d-1] X_a, for d from
        truncation down to 1, so each layer reads the old layer below it;
      * x_a^{-1} multiplies by (1 + X_a)^{-1}: the product y of s with it
        solves y (1 + X_a) = s, so y_d = s_d - y_{d-1} X_a, for d from 1 up,
        so each layer reads the updated layer below it.

    Entries that become 0 are deleted.
    """
    if truncation < 1:
        raise InvalidArgument("truncation degree must be >= 1")
    layers = _magnus_layers(reduce_word(w), truncation)
    return MagnusSeries._trusted(
        truncation, {u: c for layer in layers for u, c in layer.items()})


def _magnus_layers(w, truncation):
    """The layers of magnus(w, truncation) for a reduced word w and
    truncation >= 1: one dict per length 0..truncation."""
    layers = [{(): 1}] + [{} for _ in range(truncation)]
    for a in w:
        if a > 0:
            degrees, letter, sign = range(truncation, 0, -1), (a,), 1
        else:
            degrees, letter, sign = range(1, truncation + 1), (-a,), -1
        for d in degrees:
            layer = layers[d]
            for u, c in layers[d - 1].items():
                key = u + letter
                total = layer.get(key, 0) + sign * c
                if total:
                    layer[key] = total
                else:
                    del layer[key]
    return layers


# ---------------------------------------------------------------------------
# the Johnson correspondence

def johnson_image(alpha, m):
    """The degree-(m+1) derivation attached to an automorphism at depth m.

    Requires x_i^{-1} alpha(x_i) to expand with no terms in degrees 1..m
    (otherwise alpha is not deep enough and NotInFiltration is raised); the
    degree-(m+1) homogeneous parts are then Lie elements and assemble into
    the generator images of the result.
    """
    if isinstance(alpha, AutPair):
        alpha = alpha.fwd
    if m < 1:
        raise InvalidArgument("filtration depth must be >= 1")
    if m + 1 > MAGNUS_TRUNCATION_GUARD:
        raise ResourceGuardExceeded(
            f"Magnus truncation {m + 1} above guard {MAGNUS_TRUNCATION_GUARD}")
    n = alpha.n
    images = []
    for i in range(1, n + 1):
        layers = _magnus_layers(word_mul((-i,), alpha.images[i - 1]), m + 1)
        if layers[0] != {(): 1}:
            raise InternalInvariantError("group-element series must start at 1")
        d = next((d for d in range(1, m + 1) if layers[d]), None)
        if d is not None:
            raise NotInFiltration(
                f"x_{i} moves in degree {d}; automorphism is not at depth {m}")
        images.append(decompose(n, TensorElement._trusted(m + 1, layers[m + 1])))
    return Derivation(n, m + 1, images)


# ---------------------------------------------------------------------------
# pair classification

def _expected_abelian(i, j, i2, j2):
    return not ({i, j} & {i2, j2}) or (j == j2 and i != i2)


def classify_pair(n, first, second, depth):
    """Classify the group generated by two distinct conjugating automorphisms.

    The index pattern decides between "free-abelian" (verified by computing
    the commutator exactly) and "free (finite-depth evidence)", in which case
    the certificate lists all left-normed iterated commutators through the
    requested depth together with their Johnson images, each required to be
    nonzero and to match the corresponding iterated derivation bracket.
    """
    i, j = first
    i2, j2 = second
    _check_pair_indices(n, i, j)
    _check_pair_indices(n, i2, j2)
    if (i, j) == (i2, j2):
        raise InvalidArgument("the two automorphisms must be distinct")
    if depth < 2:
        raise InvalidArgument("certificate depth must be >= 2")
    a = conjugating_auto(n, i, j)
    b = conjugating_auto(n, i2, j2)
    if _expected_abelian(i, j, i2, j2):
        comm = a.commutator(b).fwd
        return {
            "classification": "free-abelian",
            "pair": [list(first), list(second)],
            "commutator_trivial": comm.is_identity(),
        }

    da = conjugating_derivation(n, i, j)
    db = conjugating_derivation(n, i2, j2)
    certificate = []
    frontier = [("[a,b]", a.commutator(b), der_bracket(da, db))]
    for m in range(2, depth + 1):
        next_frontier = []
        for label, pair, expected in frontier:
            image = johnson_image(pair, m)
            certificate.append({
                "word": label,
                "depth": m,
                "degree": m + 1,
                "degree_doubled": 2 * (m + 1),
                "nonzero": not image.is_zero(),
                "matches_derivation_bracket": image == expected,
            })
            if m == depth:
                continue  # no deeper level is certified
            for tag, gen_pair, gen_der in (("a", a, da), ("b", b, db)):
                next_frontier.append((f"[{label},{tag}]",
                                      pair.commutator(gen_pair),
                                      der_bracket(expected, gen_der)))
        frontier = next_frontier
    return {
        "classification": "free (finite-depth evidence)",
        "pair": [list(first), list(second)],
        "depth": depth,
        "certificate": certificate,
        "all_nonzero": all(c["nonzero"] for c in certificate),
        "all_match": all(c["matches_derivation_bracket"] for c in certificate),
    }
