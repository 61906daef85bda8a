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
    word length (its layers), keyed by integer codes: a word u of length d
    over 1..n is the base-n number with digits u_k - 1, and the layer index
    gives d back.  Only the layers that are read are decoded into tuples:
    all of them for magnus;
  * johnson_image never expands the doubled word x_i^{-1} alpha(x_i).  It
    splits alpha(x_i) = h^{-1} c h at its conjugation shell h, expands h to
    degree m and the core c to degree m+1 in codes of one base, and decodes
    only the degree-(m+1) layer of C B - B A, with A, B, C the series of
    x_i, h and c (see johnson_image);
  * an endomorphism substitutes and reduces in one pass, building the
    inverse of a generator's image when an inverse letter first needs it,
    and a commutator of AutPairs composes its inverse only when .inv is
    first read; the named conjugating automorphisms are built, and their
    inverse checked, once per (n, i, j).

Together these make the depth-m Johnson image a Lie morphism on the nose:
the image of a group commutator is the derivation bracket of the images.
"""

from functools import lru_cache
from itertools import permutations

from .errors import (DimensionMismatch, InvalidArgument, InternalInvariantError,
                     NotInFiltration, ResourceGuardExceeded)
from .derivations import (Derivation, _check_pair_indices, _check_triple_indices,
                          conjugating_derivation, der_bracket)
from .freelie import decompose, zero_lie
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
    """An endomorphism given by generator images (invertibility unchecked).

    The inverse of each image is built when an inverse letter first needs
    it and kept in a slot that == and hash do not read."""

    __slots__ = ("n", "images", "_inverse_images")

    def __init__(self, n, images):
        images = tuple(reduce_word(w) for w in images)
        if len(images) != n:
            raise InvalidArgument(f"{len(images)} images for rank {n}")
        for w in images:
            if any(abs(a) > n for a in w):
                raise InvalidArgument(f"letter outside rank {n} in {w!r}")
        self.n = n
        self.images = images
        self._inverse_images = None

    @classmethod
    def _trusted(cls, n, images):
        """Wrap images as is: n reduced words with nonzero letters in -n..n."""
        self = cls.__new__(cls)
        self.n = n
        self.images = images
        self._inverse_images = None
        return self

    def apply(self, w):
        for a in w:
            if not isinstance(a, int) or not 0 < abs(a) <= self.n:
                raise InvalidArgument(
                    f"group-word letters are nonzero integers in -{self.n}..{self.n}: {a!r}")
        return self._apply(w)

    __call__ = apply

    def _apply(self, w):
        """apply for letters already known to be nonzero integers in -n..n.

        Substitutes and reduces in one pass.  The images and the output so
        far are reduced words, so letters cancel only where an image meets
        the tail of the output: pop while the tail inverts the image's next
        letter, then append the rest of the image."""
        images = self.images
        inverses = self._inverse_images
        if inverses is None:
            inverses = self._inverse_images = [None] * self.n
        out = []
        for a in w:
            if a > 0:
                img = images[a - 1]
            else:
                img = inverses[-a - 1]
                if img is None:
                    img = inverses[-a - 1] = word_inv(images[-a - 1])
            k = 0
            while out and k < len(img) and out[-1] == -img[k]:
                out.pop()
                k += 1
            out.extend(img[k:])
        return tuple(out)

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
    commutators of generated elements stay computable in closed form.

    The constructor checks fwd * inv = inv * fwd = id; conjugating_auto is
    cached, so each named generator is checked once per process.  Products
    and commutators of checked pairs skip the check.  A commutator [a, b]
    composes its inverse [b, a] only when .inv is first read: the last
    level of a classify_pair certificate never reads it."""

    __slots__ = ("fwd", "_inv", "_factors")

    def __init__(self, fwd, inv):
        if not (fwd * inv).is_identity() or not (inv * fwd).is_identity():
            raise InvalidArgument("claimed inverse is not an inverse")
        self.fwd = fwd
        self._inv = inv

    @classmethod
    def _trusted(cls, fwd, inv):
        """Pair fwd with inv as is: inv is known to be fwd's inverse."""
        self = cls.__new__(cls)
        self.fwd = fwd
        self._inv = inv
        return self

    @property
    def inv(self):
        inv = self._inv
        if inv is None:  # a commutator [a, b]: its inverse is [b, a]
            a, b = self._factors
            inv = self._inv = b.inv * a.inv * b.fwd * a.fwd
            del self._factors
        return inv

    def inverse(self):
        return AutPair._trusted(self.inv, self.fwd)

    def __mul__(self, other):
        return AutPair._trusted(self.fwd * other.fwd, other.inv * self.inv)

    def commutator(self, other):
        """[a, b] = a^{-1} b^{-1} a b as an AutPair."""
        pair = AutPair._trusted(self.inv * other.inv * self.fwd * other.fwd, None)
        pair._factors = (self, other)
        return pair


@lru_cache(maxsize=None)
def conjugating_auto(n, i, j):
    """x_i maps to x_j^{-1} x_i x_j, every other generator is fixed; built
    and checked once per (n, i, j)."""
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
    idx = range(1, n + 1)
    chi = {(i, j): conjugating_auto(n, i, j) for i, j in permutations(idx, 2)}
    instances = []

    def record(family, indices, holds):
        instances.append({"family": family, "indices": indices, "holds": holds})

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
    reduced first."""
    if truncation < 1:
        raise InvalidArgument("truncation degree must be >= 1")
    w = reduce_word(w)
    base = max(map(abs, w), default=1)
    layers = _magnus_layers(w, truncation, base)
    return MagnusSeries._trusted(
        truncation, {u: c for d, layer in enumerate(layers)
                     for u, c in _decoded(layer, d, base).items()})


def _magnus_layers(w, truncation, base):
    """The layers of magnus(w, truncation) for a reduced word w over
    1..base and truncation >= 1: one dict per length d = 0..truncation,
    from the code of a length-d word to its coefficient.  A word u is coded
    as the number in base `base` with digits u_k - 1, so appending the
    letter a to a code c gives c * base + a - 1.

    The word is read one letter at a time, and the layers are updated in
    place:

      * x_a multiplies by 1 + X_a: layers[d] += layers[d-1] X_a, for d from
        truncation down to 1, so each layer reads the old layer below it;
      * x_a^{-1} multiplies by (1 + X_a)^{-1}: the product y of s with it
        solves y (1 + X_a) = s, so y_d = s_d - y_{d-1} X_a, for d from 1 up,
        so each layer reads the updated layer below it.

    Entries that become 0 are deleted.
    """
    layers = [{0: 1}] + [{} for _ in range(truncation)]
    for a in w:
        if a > 0:
            degrees, digit, sign = range(truncation, 0, -1), a - 1, 1
        else:
            degrees, digit, sign = range(1, truncation + 1), -a - 1, -1
        for d in degrees:
            layer = layers[d]
            for u, c in layers[d - 1].items():
                key = u * base + digit
                total = layer.get(key, 0) + sign * c
                if total:
                    layer[key] = total
                else:
                    del layer[key]
    return layers


def _decoded(layer, d, base):
    """A layer of _magnus_layers keyed by words (tuples) of length d."""
    out = {}
    for code, c in layer.items():
        word = []
        for _ in range(d):
            code, digit = divmod(code, base)
            word.append(digit + 1)
        out[tuple(reversed(word))] = c
    return out


# ---------------------------------------------------------------------------
# the Johnson correspondence

def _shell_split(v):
    """Split a reduced word v as h^{-1} c h with the shell h as long as
    possible: v[k] = -v[-1-k] for each k < len(h).  The core c is empty
    only when v is: the two middle letters of a reduced word never cancel,
    and no letter is its own inverse.

    >>> _shell_split((-2, 1, 2))
    ((2,), (1,))
    >>> _shell_split((3, -2, 1, 2, -3))
    ((2, -3), (1,))
    >>> _shell_split((1, -2, -3, 2, 3))
    ((), (1, -2, -3, 2, 3))
    >>> _shell_split(())
    ((), ())
    """
    k = 0
    while 2 * k < len(v) and v[k] == -v[-1 - k]:
        k += 1
    return v[len(v) - k:], v[k:len(v) - k]


def johnson_image(alpha, m):
    """The degree-(m+1) derivation attached to an automorphism at depth m.

    Requires x_i^{-1} alpha(x_i) to expand with no terms in degrees 1..m
    (otherwise alpha is not deep enough and NotInFiltration is raised); the
    degree-(m+1) homogeneous parts are then Lie elements and assemble into
    the generator images of the result.  A generator that alpha fixes
    gets the zero image without an expansion.

    The expansion is read off the conjugation shell of v = alpha(x_i),
    v = h^{-1} c h (_shell_split), not off the doubled word x_i^{-1} v.
    With A, B, C the Magnus series of x_i, h and c,

        M(x_i^{-1} v) - 1 = A^{-1} B^{-1} C B - 1 = A^{-1} B^{-1} (C B - B A),

    and A^{-1} B^{-1} is 1 plus terms of positive degree, so D = C B - B A
    has the same lowest nonzero degree as M(x_i^{-1} v) - 1 and the same
    homogeneous part there.  Since A = 1 + X_i and C_0 = B_0 = 1, the two
    B_d terms of D_d cancel:

        D_d = sum_{j=1..d} C_j B_{d-j} - B_{d-1} X_i,

    so h is expanded to degree m and c to degree m+1.  For a
    basis-conjugating image c = x_i, and D_d = [X_i, B_{d-1}].
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
        v = alpha.images[i - 1]
        if v == (i,):
            images.append(zero_lie(n, m + 1))
            continue
        h, c = _shell_split(v)
        B = _magnus_layers(h, m, n)
        C = _magnus_layers(c, m + 1, n)
        if B[0] != {0: 1} or C[0] != {0: 1}:
            raise InternalInvariantError("group-element series must start at 1")
        for d in range(1, m + 2):  # D_d, keyed by codes
            D = {}
            for j in range(1, d + 1):
                shift = n ** (d - j)
                for cu, cc in C[j].items():
                    cu *= shift
                    for bu, bc in B[d - j].items():
                        key = cu + bu
                        D[key] = D.get(key, 0) + cc * bc
            for bu, bc in B[d - 1].items():
                key = bu * n + i - 1
                D[key] = D.get(key, 0) - bc
            D = {u: coeff for u, coeff in D.items() if coeff}
            if D and d <= m:
                raise NotInFiltration(
                    f"x_{i} moves in degree {d}; automorphism is not at depth {m}")
        top = _decoded(D, m + 1, n)
        images.append(decompose(n, TensorElement._trusted(m + 1, top)))
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
    if depth + 1 > MAGNUS_TRUNCATION_GUARD:
        raise ResourceGuardExceeded(
            f"certificate depth {depth} needs Magnus truncation {depth + 1}, "
            f"above guard {MAGNUS_TRUNCATION_GUARD}")
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
