"""Words, place permutations, and the symmetric-group action on tensor powers.

A basis tensor x_{i1} (x) ... (x) x_{iq} of the q-th tensor power of the free
module on x_1..x_n is stored as the tuple ``(i1, ..., iq)`` of letters
(1-based).  A permutation sigma of {1..q} is stored in one-line notation as
the tuple of images ``(sigma(1), ..., sigma(q))``.

Action convention, fixed once and used everywhere: position t of ``w . sigma``
holds letter ``sigma^{-1}(t)`` of ``w``.  Two consecutive actions compose as

    act(act(w, s), t) == act(w, perm_compose(t, s))

where ``perm_compose(t, s)`` is ordinary function composition, s applied
first.  It lives in ``_placer(sigma)``, one itemgetter cached per sigma, and
every layer moves word positions through it.  All values here are immutable
tuples or carry only private state.

Tensors, Lie elements, group-ring elements, Magnus series, equivariant
endomorphisms, their graded sums and derivations share one arithmetic core,
``SparseCombination``.  A subclass returns its header slots
from ``_header()`` and wraps checked keys with ``_trusted(*header, coeffs)``.
Validation happens once, at the input boundary: the public constructors check
every key they are given, even one with coefficient 0.  Arithmetic builds its
results through ``_trusted``, whose callers guarantee checked keys and no zero
coefficients.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, product
from operator import itemgetter

from .errors import DimensionMismatch, InvalidArgument, ParseError

Word = tuple
Perm = tuple


# ---------------------------------------------------------------------------
# reading and writing

def read_int(text, what, column=None):
    """int(text) for a string read from outside the program.

    Where int() refuses the string, as it also does for a digit string longer
    than Python's integer-string limit, raises ParseError at column when one
    is given and InvalidArgument otherwise, naming what was read.
    """
    try:
        return int(text)
    except ValueError:
        pass
    shown = repr(text) if len(text) <= 40 else f"a string of {len(text)} characters"
    message = f"{what} must be an integer, got {shown}"
    if column is None:
        raise InvalidArgument(message)
    raise ParseError(message, column)


def format_terms(terms, label):
    """The signed sum 'a - 2*b' of (key, coefficient) pairs, each key written
    by label; '0' when there are no terms."""
    text = " ".join(("- " if c < 0 else "+ ") + (f"{abs(c)}*" if abs(c) != 1 else "")
                    + label(key) for key, c in terms)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


# ---------------------------------------------------------------------------
# permutations

def is_perm(p):
    return sorted(p) == list(range(1, len(p) + 1))


def check_perm(p):
    if not is_perm(p):
        raise InvalidArgument(f"not a permutation in one-line notation: {p!r}")
    return p


def perm_inverse(p):
    inv = [0] * len(p)
    for t, image in enumerate(p, 1):
        inv[image - 1] = t
    return tuple(inv)


def perm_compose(p, q):
    """Function composition: (p . q)(t) = p(q(t)), q applied first."""
    if len(p) != len(q):
        raise DimensionMismatch(f"cannot compose permutations of sizes {len(p)} and {len(q)}")
    return tuple(p[q[t] - 1] for t in range(len(p)))


def perm_cycles(p):
    """Disjoint cycles of length >= 2, each starting at its least element."""
    seen = [False] * len(p)
    cycles = []
    for start in range(1, len(p) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        t = p[start - 1]
        while t != start:
            cyc.append(t)
            seen[t - 1] = True
            t = p[t - 1]
        if len(cyc) > 1:
            cycles.append(tuple(cyc))
    return cycles


def perm_from_cycles(cycles, q):
    images = list(range(1, q + 1))
    for cyc in cycles:
        if len(set(cyc)) != len(cyc):
            raise InvalidArgument(f"repeated entry in cycle {cyc}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 1 <= a <= q:
                raise InvalidArgument(f"cycle entry {a} outside 1..{q}")
            images[a - 1] = b
    return check_perm(tuple(images))


def format_perm(p):
    """Cycle notation, '1' for the identity: '(1 2 3)(4 5)'."""
    cycles = perm_cycles(p)
    if not cycles:
        return "1"
    return "".join("(" + " ".join(str(a) for a in cyc) + ")" for cyc in cycles)


# ---------------------------------------------------------------------------
# words and the place-permutation action

def check_word(w):
    if any((not isinstance(a, int)) or a < 1 for a in w):
        raise InvalidArgument(f"word letters must be positive integers: {w!r}")
    return tuple(w)


def act(w, sigma):
    """Place-permutation action: position sigma(t) of the result is w[t].

    >>> act((1, 2), (2, 1))
    (2, 1)
    """
    if len(w) != len(sigma):
        raise DimensionMismatch(f"word of length {len(w)} under permutation of size {len(sigma)}")
    return _placer(tuple(sigma))(w)


@lru_cache(maxsize=None)
def _placer(sigma):
    """w -> act(w, sigma) as one itemgetter, without the length check.  Below
    length 2, where an itemgetter would raise or return a letter, it is tuple.

    >>> _placer(perm_from_cycles([(1, 2, 3)], 3))((1, 2, 3))
    (3, 1, 2)
    >>> _placer((1,))((4,))
    (4,)
    """
    if len(sigma) < 2:
        return tuple
    return itemgetter(*[t - 1 for t in perm_inverse(sigma)])


def rearrangements(w):
    """The distinct rearrangements of w's letters, lexicographic.

    Next-permutation steps from sorted(w), so the cost follows the number of
    distinct rearrangements, not q!.

    >>> rearrangements((2, 1, 1))
    [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    """
    w = sorted(w)
    out = [tuple(w)]
    while True:
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1:] = reversed(w[i + 1:])
        out.append(tuple(w))


def orbit(w):
    """The full Sigma_q-orbit of w: all rearrangements of its letters."""
    return set(rearrangements(w))


def sorted_rep(w):
    """The unique weakly increasing member of orbit(w)."""
    return tuple(sorted(w))


def perm_sorting_onto(u, w):
    """The sigma with act(u, sigma) == w for u == sorted(w) that keeps equal
    letters in order: the stable argsort of w, 1-based.

    >>> perm_sorting_onto((1, 1, 2), (2, 1, 1))
    (2, 3, 1)
    """
    if list(u) != sorted(w):
        raise InvalidArgument(f"{u!r} is not the sorted rearrangement of {w!r}")
    return tuple([t + 1 for t in sorted(range(len(w)), key=w.__getitem__)])


def stabilizer_orbit_key(u, w):
    """Canonical form of w under the stabilizer of the weakly increasing u.

    The stabilizer permutes the positions of each run of equal letters of u,
    so its orbit on w rearranges the letters of w within each run.  Sorted,
    the letter pairs (u[t], w[t]) list for each letter of u the sorted
    letters of w at its positions: their second halves are the key, and
    their first halves equal u exactly when u is weakly increasing.

    >>> stabilizer_orbit_key((1, 1, 2), (3, 1, 2))
    (1, 3, 2)
    """
    if len(u) != len(w):
        raise DimensionMismatch(f"words of lengths {len(u)} and {len(w)}")
    pairs = sorted(zip(u, w))
    if tuple(a for a, _ in pairs) != tuple(u):
        raise InvalidArgument(f"stabilizer key needs a weakly increasing word, got {u!r}")
    return tuple(b for _, b in pairs)


def multidegree(w, n):
    """Occurrence counts of each letter 1..n in w."""
    counts = [0] * n
    for letter in w:
        if not 1 <= letter <= n:
            raise InvalidArgument(f"letter {letter} outside 1..{n}")
        counts[letter - 1] += 1
    return tuple(counts)


def words_of(n, q):
    """All n^q basis words of degree q, lexicographic."""
    return product(range(1, n + 1), repeat=q)


def sorted_words(n, q):
    """The weakly increasing words of degree q over 1..n."""
    return combinations_with_replacement(range(1, n + 1), q)


# ---------------------------------------------------------------------------
# sparse integer combinations

class SparseCombination:
    """Sparse integer linear combination of basis keys, no zero coefficient
    stored; instances behave as immutable values.  Combinations are equal when
    type, header and coefficients are, and arithmetic refuses operands whose
    type or header differ."""

    __slots__ = ("_coeffs",)

    @staticmethod
    def _checked(coeffs, check):
        """coeffs in one pass: each key through check, which raises on a bad
        key and returns None for one to drop, then zero coefficients dropped."""
        clean = {}
        if coeffs:
            for key, c in coeffs.items():
                key = check(key)
                if c and key is not None:
                    clean[key] = c
        return clean

    def _same_header(self, other):
        """The shared header of self and other; DimensionMismatch when their
        types or headers differ."""
        header = self._header()
        if type(other) is not type(self) or other._header() != header:
            raise DimensionMismatch(
                f"cannot combine {type(self).__name__}{header} "
                f"with {type(other).__name__}{other._header()}")
        return header

    def coeff(self, key):
        return self._coeffs.get(tuple(key), 0)

    def items(self):
        return sorted(self._coeffs.items())

    def is_zero(self):
        return not self._coeffs

    def __len__(self):
        return len(self._coeffs)

    def __eq__(self, other):
        return (type(other) is type(self) and self._header() == other._header()
                and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((*self._header(), frozenset(self._coeffs.items())))

    def __add__(self, other):
        header = self._same_header(other)
        coeffs = dict(self._coeffs)
        for key, c in other._coeffs.items():
            total = coeffs.get(key, 0) + c
            if total:
                coeffs[key] = total
            else:
                del coeffs[key]
        return self._trusted(*header, coeffs)

    def __neg__(self):
        return self._trusted(*self._header(), {key: -c for key, c in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        if not k:
            return self._trusted(*self._header(), {})
        return self._trusted(*self._header(),
                             {key: k * c for key, c in self._coeffs.items()})

    __rmul__ = scale


class TensorElement(SparseCombination):
    """Sparse integer linear combination of degree-q basis words."""

    __slots__ = ("degree",)

    def __init__(self, degree, coeffs=None):
        self.degree = degree
        self._coeffs = self._checked(coeffs, self._check_key)

    def _check_key(self, w):
        if len(w) != self.degree:
            raise DimensionMismatch(
                f"word {w!r} of length {len(w)} in a degree-{self.degree} tensor")
        return check_word(w)

    @classmethod
    def _trusted(cls, degree, coeffs):
        """Wrap coeffs as is: checked words of length degree, no zero values."""
        self = cls.__new__(cls)
        self.degree = degree
        self._coeffs = coeffs
        return self

    def _header(self):
        return (self.degree,)

    @classmethod
    def from_word(cls, w, coeff=1):
        return cls(len(w), {tuple(w): coeff})

    def support(self):
        return sorted(self._coeffs)

    def act(self, sigma):
        """The linear extension of the place-permutation action; the size of
        sigma is checked once per tensor, not once per word."""
        if len(sigma) != self.degree:
            raise DimensionMismatch(
                f"degree-{self.degree} tensor under permutation of size {len(sigma)}")
        place = _placer(tuple(sigma))
        return TensorElement._trusted(
            self.degree, {place(w): c for w, c in self._coeffs.items()})

    def __repr__(self):
        return f"TensorElement({self.degree}, {dict(self.items())!r})"


def tensor_product(s, t):
    """Concatenation product of two sparse tensors."""
    coeffs = {}
    for w1, c1 in s._coeffs.items():
        for w2, c2 in t._coeffs.items():
            w = w1 + w2
            coeffs[w] = coeffs.get(w, 0) + c1 * c2
    return TensorElement._trusted(s.degree + t.degree,
                                  {w: c for w, c in coeffs.items() if c})


def _linear_combination(degree, terms):
    """The sum of k * t over the (k, t) pairs of terms, all tensors of the
    given degree, accumulated in one dict."""
    coeffs = {}
    for k, t in terms:
        for w, c in t._coeffs.items():
            coeffs[w] = coeffs.get(w, 0) + k * c
    return TensorElement._trusted(degree, {w: c for w, c in coeffs.items() if c})
