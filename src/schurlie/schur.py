"""Equivariant endomorphisms of tensor powers, in orbit-coefficient form.

An equivariant endomorphism f is determined by its values on the weakly
increasing words u, and f(u) must be constant on the orbits of the stabilizer
of u.  We therefore store one integer coefficient per pair (sorted word u,
stabilizer-orbit key of u; see words.stabilizer_orbit_key), as a
words.SparseCombination; f extends to every word w = u.sigma by
f(w) = f(u).sigma, independently of the chosen sigma.

An element keeps one copy of its pairs and caches every column it builds;
the column at u scans the pairs for those of u, a short pass on the sparse
elements columns are built for.  The stabilizer orbit of each pair (u, key),
from the runs of equal letters of u, is enumerated once per process (_orbit,
cached): a column sets each word of each key's orbit to that key's
coefficient, with no sum, as the orbits of distinct keys are disjoint;
orbit_data_of_column reads one key per orbit and walks that orbit to check
that the column holds it whole, with one value; and transfer.young_subgroup
is the orbit of the identity under a marker word.

A word w = u.sigma, u = sorted(w) and sigma the stable argsort of w, takes
f(w) = f(u).sigma through the placer words._placer_onto(w), cached per word,
so no word is argsorted twice in a process.  apply_word and apply read it
word by word: a single word does not build the placers of its whole orbit,
which are q! for q distinct letters.  column_map visits every rearrangement
of a sorted word u, and reads their placers from words._placers_onto(u), one
map per u.  No tensor is built per word: apply adds c * f(u).sigma for each
word of its input into one dict, and column_map places each column of the
support onto each of its rearrangements in one pass over that column's map.

Word-by-word column maps are built only for equivariance checks, over the
support of an element; the brute-force dimension oracle alone scans all n^q
words.  The check itself builds no tensor: each adjacent transposition acts
through its placer (words._placer, one tuple of them per degree), which
swaps two positions of a word, and the column at the swapped word is
compared term by term with the swapped pairs of the word's own column.
"""

import math
from functools import lru_cache
from itertools import groupby, product

from .errors import (DimensionMismatch, InvalidArgument, InternalInvariantError,
                     ResourceGuardExceeded)
from .freelie import LieElement, decompose, embed
from .words import (SparseCombination, TensorElement, _placer, _placer_onto,
                    _placers_onto, check_word, perm_from_cycles, read_int,
                    rearrangements, sorted_rep, sorted_words,
                    stabilizer_orbit_key, words_of)

EQUIVARIANCE_GUARD = 8  # largest degree the equivariance checks accept
EQUIVARIANCE_PAIR_GUARD = 10_000_000  # (word, word) pairs swept, about 3 us each
SCHUR_BASIS_GUARD = 100_000  # largest basis built, about 2 s of output


def orbit_sum(u, key):
    """Sum of the stabilizer orbit of key under the stabilizer of sorted u."""
    return TensorElement._trusted(len(u), dict.fromkeys(_orbit(tuple(u), tuple(key)), 1))


def _equal_letter_runs(u):
    """(start, stop) slice bounds of the maximal runs of equal letters in u."""
    runs = []
    start = 0
    for _, run in groupby(u):
        stop = start + sum(1 for _ in run)
        runs.append((start, stop))
        start = stop
    return runs


@lru_cache(maxsize=None)
def _orbit(u, key):
    """The words of the stabilizer orbit of key under sorted u, each once: the
    rearrangements of key inside each run of equal letters of u, the runs'
    rearrangements taken lexicographically in product order.

    >>> _orbit((1, 1, 2), (1, 2, 3))
    ((1, 2, 3), (2, 1, 3))
    >>> _orbit((1, 2), (2, 1))
    ((2, 1),)
    """
    runs = [rearrangements(key[i:j]) for i, j in _equal_letter_runs(u)]
    return tuple(sum(pieces, ()) for pieces in product(*runs))


@lru_cache(maxsize=None)
def orbit_keys(n, u):
    """All stabilizer-orbit keys for the sorted word u, lexicographic: one
    weakly increasing word over 1..n per run of equal letters of u."""
    runs = (sorted_words(n, j - i) for i, j in _equal_letter_runs(u))
    return tuple(sum(pieces, ()) for pieces in product(*runs))


class SchurElement(SparseCombination):
    """An equivariant endomorphism of the degree-q tensor power, rank n: one
    coefficient per pair (sorted word u, orbit key of u)."""

    __slots__ = ("n", "q", "_columns")

    def __init__(self, n, q, rows):
        """rows maps sorted words u to {orbit key: coefficient}; each u is
        checked once, even when its row is empty."""
        self.n = n
        self.q = q
        pairs = {}
        for u, row in rows.items():
            u = check_word(u)
            if len(u) != q:
                raise InvalidArgument(f"sorted word {u!r} has length {len(u)}, expected {q}")
            if u != sorted_rep(u):
                raise InvalidArgument(f"sorted word {u!r} is not weakly increasing")
            if u and not 1 <= max(u) <= n:
                raise InvalidArgument(f"letter above rank {n} in {u!r}")
            for key, c in row.items():
                pairs[u, key] = c
        self._coeffs = self._checked(pairs, self._check_key)
        self._columns = {}

    def _check_key(self, pair):
        """Check the key of a pair (u, key); the constructor checked u."""
        u, key = pair
        if len(key) != self.q:
            raise InvalidArgument(
                f"orbit key {key!r} of sorted word {u!r} has length {len(key)}, expected {self.q}")
        key = check_word(key)
        if key and max(key) > self.n:
            raise InvalidArgument(f"letter above rank {self.n} in key {key!r}")
        if stabilizer_orbit_key(u, key) != key:
            raise InvalidArgument(f"{key!r} is not the canonical orbit key for {u!r}")
        return u, key

    @classmethod
    def _trusted(cls, n, q, pairs):
        """Wrap pairs as is: (u, key) -> nonzero value, u a weakly increasing
        word of length q over 1..n and key a canonical orbit key of u."""
        self = cls.__new__(cls)
        self.n = n
        self.q = q
        self._coeffs = pairs
        self._columns = {}
        return self

    def _header(self):
        return (self.n, self.q)

    @classmethod
    def zero(cls, n, q):
        return cls(n, q, {})

    @classmethod
    def identity(cls, n, q):
        return cls(n, q, {u: {u: 1} for u in sorted_words(n, q)})

    @classmethod
    def scalar(cls, n, value):
        """Degree-0 element: multiplication by value on the ground ring."""
        return cls(n, 0, {(): {(): value}}) if value else cls(n, 0, {})

    @property
    def scalar_value(self):
        if self.q != 0:
            raise InvalidArgument("scalar_value is defined in degree 0 only")
        return self._coeffs.get(((), ()), 0)

    # -- action on tensors ---------------------------------------------------

    def column(self, u):
        """f(u) for weakly increasing u, cached."""
        u = tuple(u)
        col = self._columns.get(u)
        if col is None:
            # orbits of distinct keys are disjoint and no stored value is 0
            coeffs = {}
            for (v, key), c in self._coeffs.items():
                if v == u:
                    for w in _orbit(u, key):
                        coeffs[w] = c
            col = self._columns[u] = TensorElement._trusted(self.q, coeffs)
        return col

    def apply_word(self, w):
        """f on a single basis word, via f(u.sigma) = f(u).sigma, where u is
        sorted(w) and sigma the stable argsort of w, read off as its placer
        words._placer_onto(w) only when f(u) is nonzero and u != w."""
        w = tuple(w)
        if len(w) != self.q:
            raise DimensionMismatch(f"word of length {len(w)} under a degree-{self.q} map")
        u = tuple(sorted(w))
        col = self.column(u)
        if u == w or col.is_zero():
            return col
        return col._placed(_placer_onto(w))

    def apply(self, t):
        """Linear action on a tensor of matching degree: each word w of t,
        u = sorted(w), adds its coefficient times f(u) placed onto w
        (words._placer_onto) into one dict, with no tensor per word."""
        if t.degree != self.q:
            raise DimensionMismatch(
                f"degree-{t.degree} tensor under a degree-{self.q} map")
        coeffs = {}
        for w, k in t._coeffs.items():
            col = self.column(sorted(w))._coeffs
            if col:
                place = _placer_onto(w)
                for v, c in col.items():
                    x = place(v)
                    coeffs[x] = coeffs.get(x, 0) + k * c
        return TensorElement._trusted(self.q, {x: c for x, c in coeffs.items() if c})

    def column_map(self):
        """Column map over the basis words with a nonzero image (word ->
        image tensor): the rearrangements w of the sorted words u of the
        pairs, f(u) placed onto each w, one pass over _placers_onto(u) per u."""
        out = {}
        for u in {u for u, _ in self._coeffs}:
            col = self.column(u)
            for w, place in _placers_onto(u).items():
                out[w] = col if w == u else col._placed(place)
        return out

    def compose(self, other):
        """Endomorphism composition self after other, back in orbit form."""
        n, q = self._same_header(other)
        pairs = {}
        for u in sorted_words(n, q):
            for key, c in orbit_data_of_column(u, self.apply(other.column(u))).items():
                pairs[u, key] = c
        return SchurElement._trusted(n, q, pairs)

    # -- serialization --------------------------------------------------------

    def to_json_dict(self):
        entries = [{"u": ".".join(map(str, u)), "key": ".".join(map(str, key)),
                    "coeff": str(c)} for (u, key), c in self.items()]
        return {"n": self.n, "q": self.q, "entries": entries}

    @classmethod
    def from_json_dict(cls, payload):
        """Read to_json_dict's format back; a malformed field raises
        InvalidArgument.  A coefficient is an int or a decimal string."""
        if not isinstance(payload, dict):
            raise InvalidArgument("an element is a JSON object")
        n, q, entries = payload.get("n"), payload.get("q"), payload.get("entries")
        for name, value, low in (("n", n, 1), ("q", q, 0)):
            if type(value) is not int or value < low:
                raise InvalidArgument(f"{name} must be an integer >= {low}, got {value!r}")
        if not isinstance(entries, list):
            raise InvalidArgument(f"entries must be a list, got {entries!r}")
        data = {}
        for entry in entries:
            if not isinstance(entry, dict):
                raise InvalidArgument(f"an entry is a JSON object, got {entry!r}")
            u, key = _json_word(entry.get("u")), _json_word(entry.get("key"))
            row = data.setdefault(u, {})
            if key in row:
                raise InvalidArgument(f"repeated entry for u {u!r}, key {key!r}")
            row[key] = _json_int(entry.get("coeff"), "coeff")
        return cls(n, q, data)

    def __repr__(self):
        return f"SchurElement(n={self.n}, q={self.q}, entries={len(self)})"


def _json_word(text):
    """A dot-separated word such as "1.2.2"; the empty string is ()."""
    if not isinstance(text, str):
        raise InvalidArgument(f"a word is a string, got {text!r}")
    if not text:
        return ()
    return tuple(_json_int(a, f"a letter of {text!r}") for a in text.split("."))


def _json_int(value, what):
    if type(value) is int:
        return value
    if isinstance(value, str):
        return read_int(value, what)
    raise InvalidArgument(f"{what} must be an integer or a decimal string, got {value!r}")


def orbit_data_of_column(u, col):
    """Read orbit coefficients off a tensor that must be stabilizer-invariant.

    The key of a word w is stabilizer_orbit_key(u, w): w with its letters
    sorted inside each run of two or more equal letters of u (_long_runs,
    cached per u).  It is computed once per orbit, at the first word of the
    orbit met: the orbit's words (_orbit, cached) are then walked once, and
    each must be in the column with the same value.  When u has no such run,
    every orbit is one word and the row is the column itself."""
    coeffs = col._coeffs
    runs = _long_runs(u)
    if not runs:
        return dict(coeffs)
    row = {}
    seen = set()
    for w, c in coeffs.items():
        if w in seen:
            continue
        key = list(w)
        for run in runs:
            key[run] = sorted(key[run])
        key = tuple(key)
        orbit = _orbit(u, key)
        for x in orbit:
            value = coeffs.get(x)
            if value is None:
                raise InternalInvariantError(
                    f"column at {u!r} misses part of the orbit of {key!r}")
            if value != c:
                raise InternalInvariantError(
                    f"column at {u!r} is not constant on stabilizer orbits")
        seen.update(orbit)
        row[key] = c
    return row


@lru_cache(maxsize=None)
def _long_runs(u):
    """The slices of the runs of two or more equal letters of sorted u."""
    return tuple(slice(i, j) for i, j in _equal_letter_runs(u) if j - i > 1)


def basis(n, q):
    """One element per (sorted word, orbit key): a basis of the equivariant
    endomorphisms; its size is the sum of orbit counts over sorted words."""
    size = basis_dimension_formula(n, q)
    if size > SCHUR_BASIS_GUARD:
        raise ResourceGuardExceeded(
            f"basis of degree {q}, rank {n} has {size} elements, above {SCHUR_BASIS_GUARD}")
    out = []
    for u in sorted_words(n, q):
        for key in orbit_keys(n, u):
            out.append(SchurElement._trusted(n, q, {(u, key): 1}))
    return tuple(out)


def basis_dimension_formula(n, q):
    """Multiset count C(n^2 + q - 1, q), cross-checked against the oracle."""
    return math.comb(n * n + q - 1, q)


def is_equivariant(colmap, n, q):
    """Whether a column map (word -> tensor, missing = zero) commutes with
    every place permutation.

    Checks the q - 1 adjacent transpositions s_i = (i i+1) only: the
    permutations that commute with the map form a subgroup, and the s_i
    generate Sigma_q.  Only words in the support are visited.  For such a
    word w, M(w.s_i) = M(w).s_i is nonzero, so w.s_i is in the support too;
    as s_i is an involution, a word outside the support is never sent into
    it, and there both sides vanish.

    The swap of s_i is its placer (words._placer), the cached map
    w -> w.s_i, which exchanges positions i and i+1 of a word; the q - 1
    swaps of a degree are one cached tuple (_adjacent_swaps).  The pairs of
    M(w.s_i) are compared, term by term in one dict comparison, with the
    pairs of M(w) read through the swap.  The swap is a bijection on words,
    so equal dicts mean equal tensors of degree q, and a missing or zero
    M(w.s_i) fails.

    >>> swap = {(a, b): TensorElement.from_word((b, a)) for a in (1, 2) for b in (1, 2)}
    >>> is_equivariant(swap, 2, 2)
    True
    >>> is_equivariant({(1, 2): TensorElement.from_word((1, 2))}, 2, 2)
    False
    """
    if q > EQUIVARIANCE_GUARD:
        raise ResourceGuardExceeded(f"equivariance check limited to degree {EQUIVARIANCE_GUARD}")
    support = []
    for w, col in colmap.items():
        if len(w) != q or col.degree != q:
            raise DimensionMismatch(
                f"word {w!r} with a degree-{col.degree} column in a degree-{q} map")
        if col._coeffs:
            support.append((w, col._coeffs))
    for swap in _adjacent_swaps(q):
        for w, coeffs in support:
            image = colmap.get(swap(w))
            if image is None or image._coeffs != {swap(v): c for v, c in coeffs.items()}:
                return False
    return True


@lru_cache(maxsize=None)
def _adjacent_swaps(q):
    """The placers of the adjacent transpositions s_1..s_{q-1} of degree q."""
    return tuple(_placer(perm_from_cycles([(i, i + 1)], q)) for i in range(1, q))


def check_equivariance_sweep(n, max_degree):
    """Refuse a sweep of every basis element of degrees 0..max_degree through
    is_equivariant above its degree guard, or when its (word, word) pairs
    number more than EQUIVARIANCE_PAIR_GUARD: at degree q the basis elements'
    rearranged words and their images' orbit words pair up n^q by n^q.  The
    degree is checked first, with is_equivariant's message."""
    if max_degree > EQUIVARIANCE_GUARD:
        raise ResourceGuardExceeded(f"equivariance check limited to degree {EQUIVARIANCE_GUARD}")
    pairs = sum(n ** (2 * q) for q in range(max_degree + 1))
    if pairs > EQUIVARIANCE_PAIR_GUARD:
        raise ResourceGuardExceeded(
            f"equivariance check up to degree {max_degree} at rank {n} sweeps {pairs} "
            f"word pairs, above {EQUIVARIANCE_PAIR_GUARD}")


def schur_is_equivariant(f):
    return is_equivariant(f.column_map(), f.n, f.q)


def apply_to_lie(f, a):
    """Action on a Lie element; the image is again a Lie element, and a
    failing decomposition signals a bug rather than bad input."""
    if not isinstance(a, LieElement):
        raise InvalidArgument("apply_to_lie expects a LieElement")
    if a.degree != f.q:
        raise DimensionMismatch(f"degree-{a.degree} element under a degree-{f.q} map")
    if a.n != f.n:
        raise DimensionMismatch(f"rank-{a.n} element under a rank-{f.n} map")
    return decompose(f.n, f.apply(embed(a)))


def letter_substitution(n, t, sigma_n):
    """The equivariant relabeling map sending each letter l to sigma_n(l),
    applied position by position on degree-t words."""
    if len(sigma_n) != n:
        raise InvalidArgument(f"alphabet permutation of size {len(sigma_n)} for rank {n}")
    data = {}
    for u in sorted_words(n, t):
        w = tuple(sigma_n[letter - 1] for letter in u)
        data[u] = {stabilizer_orbit_key(u, w): 1}
    return SchurElement(n, t, data)


# ---------------------------------------------------------------------------
# brute-force oracle

def equivariant_basis_bruteforce(n, q):
    """Dimension oracle: solve the commutation constraints directly.

    The conditions M(w.sigma) = M(w).sigma over all sigma say exactly that
    matrix entries agree along the diagonal permutation action on (row, col)
    pairs, a linear system whose equations each identify two coordinates.
    Its solution space is spanned by the indicator maps of the pair classes,
    found by union-find; returned as column maps, ordered by least member.
    The union-find runs over the q - 1 adjacent transpositions s_i = (i i+1)
    only: they generate Sigma_q, and the orbits of a group action are the
    classes of the relation that its generators' moves span.
    """
    if q > EQUIVARIANCE_GUARD or n ** (2 * q) > 4_000_000:
        raise ResourceGuardExceeded(f"brute-force oracle refused for n={n}, q={q}")
    words = list(words_of(n, q))
    index = {w: i for i, w in enumerate(words)}
    N = len(words)
    parent = list(range(N * N))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for swap in _adjacent_swaps(q):
        moved = [index[swap(w)] for w in words]
        for r in range(N):
            mr = moved[r] * N
            rN = r * N
            for c in range(N):
                union(rN + c, mr + moved[c])

    classes = {}
    for coord in range(N * N):
        classes.setdefault(find(coord), []).append(coord)

    maps = []
    for root in sorted(classes):
        cols = {}
        for coord in classes[root]:
            r, c = divmod(coord, N)
            cols.setdefault(words[c], {})[words[r]] = 1
        maps.append({w: TensorElement(q, col) for w, col in cols.items()})
    return maps


def decompose_in_basis(colmap, n, q):
    """Express an equivariant column map in basis(n, q) by reading the
    coefficients off the sorted columns; returns the SchurElement, or None
    when the map is not in the span (reconstruction mismatch)."""
    data = {}
    for u in sorted_words(n, q):
        col = colmap.get(u)
        if col is None or col.is_zero():
            continue
        try:
            row = orbit_data_of_column(u, col)
        except InternalInvariantError:
            return None
        data[u] = row
    candidate = SchurElement(n, q, data)
    zero = TensorElement(q)
    # any other word maps to zero under both
    checked = {w for w, col in colmap.items() if not col.is_zero()}
    checked.update(w for u in data for w in rearrangements(u))
    for w in checked:
        if candidate.apply_word(w) != colmap.get(w, zero):
            return None
    return candidate
