"""Derivations of the free Lie algebra, their bracket, the action of
equivariant endomorphisms on them, and the span-closure rank engine.

A degree-p derivation is determined by the n-tuple of images of the
generators, each a degree-p element; the Leibniz rule extends it to all
degrees.  It is stored as one coefficient per pair (k, w): the coordinate of
the image of x_k at the Lyndon word w.  The bracket of derivations of
degrees p and p' has degree p + p' - 1 in this natural count (generator in,
degree-p element out).

Derivations are evaluated in the tensor algebra.  The free Lie algebra L(V)
sits inside T(V) = U(L(V)), and a derivation of L(V) extends uniquely to a
derivation of T(V) (Reutenauer, Free Lie Algebras, 1993, ch. 1).  So if
embed(a) = sum c_w w, then D(a) is the decomposition of

    sum c_w sum_i w[:i] . embed(D(x_{w_i})) . w[i+1:],

one embedding, one Leibniz pass over the words and one decomposition.

The closure engine computes, degree by degree, the integer lattice spanned by
everything reachable from a set of degree-2 generators through derivation
brackets of lower degrees and through the degree-matched action of the
integral Schur algebra, reporting rank and elementary divisors against the
expected n * (number of Lyndon words).  It keeps one lattice per multidegree
block, the Lyndon words with the same sorted letters u; slot k of a block row
holds the Lyndon coordinates of the image of x_{k+1} at the block's words.
Once a degree is done, each Hermite row of each block is embedded into the
tensor algebra once, and a bracket of two rows is the Leibniz pass on those
images, one decomposition per image, split into block rows.  By
bilinearity, any Z-basis of a degree brackets to the same span, so a later
degree brackets these rows, pair by pair, as it draws its seeds.

The seeds of a degree, the generators at degree 2 and then the brackets of
lower degrees, are made one at a time, and the block rows of each seed go
through a first-in first-out worklist as soon as it is made: a row that
grows its block's lattice queues its images under every divided power
E_i^(r) and F_i^(r) whose block's lattice is not Z^dim yet.  Once every
block is Z^dim, no further seed is made; a degree that never gets there
makes every seed.

This reaches the module that the seeds generate.  The integral Schur algebra
S_Z(n, p), spanned by basis(n, p), is the image of Kostant's Z-form of
U(gl_n) on the degree-p integer tensors T_Z, and it is generated by the
weight idempotents 1_lambda, the block projections, and the divided powers
E_i^(r), F_i^(r) (Green, Polynomial Representations of GL_n, LNM 830, 1980;
Doty and Giaquinto, "Presenting Schur algebras", IMRN 2002).  E_i acts on
L_p as the derivation sending x_{i+1} to x_i and F_i as the one sending x_i
to x_{i+1}; each moves a block to the block with one letter changed.  As
E E^(r-1) = r E^(r), E^(r) v is E (E^(r-1) v) / r, exact on integer rows:
E^(r) maps T_Z into itself, and L_Z is a pure sublattice of T_Z (its Lyndon
basis is unitriangular).  Every row that grew a lattice, a spanning set of
it, has all its images queued, so an empty worklist leaves a Z-span closed
under generators of the algebra: a submodule, which is why a row that its
lattice already holds needs no images, and a row already added to its
lattice is passed over before the lattice sees it.  A lattice grows in
echelon form and reads its rows in Hermite normal form, which is unique to
the span, so every order of seeds and worklist ends with the same rows in
every block, and a saturated degree with the unit vectors: stopping there
changes nothing that a later degree reads.

The table of E_i or F_i on a block is read off coefficients at Lyndon
words, with no Leibniz pass and no decomposition.  embed(P_l), P_l the
standard bracketing of a Lyndon word l, is l plus larger words (Reutenauer,
Free Lie Algebras, 1993, Thm 5.1).  So the coefficients of a Lie element at
the Lyndon words of a block are its Lyndon coordinates times the block's
unitriangular integer matrix, and the coordinates follow from those
coefficients alone by back-substitution in increasing word order.  The
derivation sending x_b to x_a takes a word to the sum of its copies with
one b made an a, so its image of embed(P_w) has at a word l the sum of
embed(P_w) at the copies of l with one a made a b.
"""

from collections import deque
from functools import lru_cache
from itertools import combinations, count, permutations

from .errors import (DimensionMismatch, InvalidArgument, InternalInvariantError,
                     NoSolutionFound, ResourceGuardExceeded)
from .freelie import (LieElement, decompose, embed, embed_monomial,
                      is_monomial, lyndon_bracketing, lyndon_words,
                      monomial_degree, monomial_letters, monomial_str,
                      normalize, zero_lie)
from .linalg import IntegerLattice, smith_normal_form, solve_integer
from .schur import SchurElement, basis_dimension_formula
from .words import (SparseCombination, TensorElement, _placer_onto,
                    rearrangements, sorted_rep, stabilizer_orbit_key)

# the closure's refusal bound on the endomorphism basis size of a degree; it
# counts nothing the engine builds, and stands in for a bound on real cost
CLOSURE_BASIS_GUARD = 600


class Derivation(SparseCombination):
    """A homogeneous derivation of rank n and degree p: one coefficient per
    pair (k, w), the coordinate of the image of x_k at the Lyndon word w."""

    __slots__ = ("n", "degree")

    def __init__(self, n, degree, images):
        """From the n generator images, LieElements of rank n and this degree."""
        images = tuple(images)
        if len(images) != n:
            raise InvalidArgument(f"{len(images)} generator images for rank {n}")
        if degree < 1:
            raise InvalidArgument(f"derivation degree must be >= 1, got {degree}")
        for img in images:
            if img.n != n or img.degree != degree:
                raise DimensionMismatch(
                    f"image of rank {img.n}, degree {img.degree} in a rank-{n}, "
                    f"degree-{degree} derivation")
        self.n = n
        self.degree = degree
        self._coeffs = {(k, w): c for k, img in enumerate(images, 1)
                        for w, c in img._coeffs.items()}

    @classmethod
    def _trusted(cls, n, degree, pairs):
        """Wrap pairs as is: (k, w) -> nonzero value, k in 1..n and w a
        Lyndon word of length degree over 1..n."""
        self = cls.__new__(cls)
        self.n = n
        self.degree = degree
        self._coeffs = pairs
        return self

    def _header(self):
        return (self.n, self.degree)

    def image(self, i):
        if not 1 <= i <= self.n:
            raise InvalidArgument(f"generator index {i} outside 1..{self.n}")
        return LieElement._trusted(
            self.n, self.degree, {w: c for (k, w), c in self._coeffs.items() if k == i})

    @property
    def images(self):
        return tuple(self.image(k) for k in range(1, self.n + 1))

    def __repr__(self):
        return ("Derivation(n=%d, degree=%d, [%s])"
                % (self.n, self.degree, ", ".join(str(a) for a in self.images)))


def generator_derivation(i, w):
    """The derivation sending x_i to w and every other generator to zero."""
    n = w.n
    if not 1 <= i <= n:
        raise InvalidArgument(f"generator index {i} outside 1..{n}")
    zero = zero_lie(n, w.degree)
    return Derivation(n, w.degree, [w if k == i else zero for k in range(1, n + 1)])


def _check_pair_indices(n, i, j):
    """The index rule of the conjugating derivation and automorphism."""
    if i == j:
        raise InvalidArgument("need distinct indices")
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidArgument(f"indices ({i},{j}) outside 1..{n}")


def _check_triple_indices(n, i, s, t):
    """The index rule of the commutator derivation and automorphism."""
    if i in (s, t) or not s < t:
        raise InvalidArgument(f"need i not in {{s,t}} and s < t, got ({i},{s},{t})")
    if not (1 <= i <= n and 1 <= s and t <= n):
        raise InvalidArgument(f"indices ({i},{s},{t}) outside 1..{n}")


@lru_cache(maxsize=None)
def conjugating_derivation(n, i, j):
    """x_i maps to [x_i, x_j], all other generators to zero (degree 2);
    built once per (n, i, j)."""
    _check_pair_indices(n, i, j)
    return generator_derivation(i, normalize(n, (i, j)))


def commutator_derivation(n, i, s, t):
    """x_i maps to [x_s, x_t], all other generators to zero (degree 2)."""
    _check_triple_indices(n, i, s, t)
    return generator_derivation(i, normalize(n, (s, t)))


def mtilde_generators(n):
    """All quadratic generators: every conjugating derivation, plus every
    commutator derivation (the latter exist only for rank >= 3)."""
    idx = range(1, n + 1)
    gens = [conjugating_derivation(n, i, j) for i, j in permutations(idx, 2)]
    gens += [commutator_derivation(n, i, s, t)
             for i in idx for s, t in combinations(idx, 2) if i not in (s, t)]
    return gens


def gamma_generators(n):
    """One conjugating derivation per generator index: x_i pairs with its
    cyclic successor."""
    if n < 2:
        raise InvalidArgument("need rank >= 2")
    return [conjugating_derivation(n, i, i % n + 1) for i in range(1, n + 1)]


def apply_derivation(D, a):
    """Leibniz extension of D; accepts a monomial tree or a LieElement.

    The result is homogeneous of degree deg(a) + deg(D) - 1.  It is computed
    in the tensor algebra, see the module docstring.
    """
    if isinstance(a, LieElement):
        if a.n != D.n:
            raise DimensionMismatch(f"rank-{a.n} element under a rank-{D.n} derivation")
    else:
        if not is_monomial(a):
            raise InvalidArgument(f"not a Lie monomial tree: {a!r}")
        if max(monomial_letters(a)) > D.n:
            raise InvalidArgument(f"letter above rank {D.n} in {monomial_str(a)}")
    t = embed(a)
    coeffs = {}
    _leibniz(coeffs, _embedded_images(D), t._coeffs, 1)
    return decompose(D.n, _tensor(t.degree + D.degree - 1, coeffs))


def _embedded_images(D):
    """D's generator images in the tensor algebra, as word -> coefficient,
    read off its pairs: one embedded Lyndon bracketing per pair."""
    images = [{} for _ in range(D.n)]
    for (k, w), c in D._coeffs.items():
        image = images[k - 1]
        for x, e in embed_monomial(lyndon_bracketing(w))._coeffs.items():
            image[x] = image.get(x, 0) + c * e
    return tuple({x: c for x, c in image.items() if c} for image in images)


def _leibniz(coeffs, images, terms, sign):
    """Add sign times D(sum of c * w over terms) into coeffs, where D is the
    derivation of the tensor algebra sending x_i to images[i - 1]; terms and
    images map words to coefficients."""
    for w, c in terms.items():
        c *= sign
        for i, letter in enumerate(w):
            image = images[letter - 1]
            if image:
                head, tail = w[:i], w[i + 1:]
                for v, cv in image.items():
                    word = head + v + tail
                    coeffs[word] = coeffs.get(word, 0) + c * cv


def _tensor(degree, coeffs):
    return TensorElement._trusted(degree, {w: c for w, c in coeffs.items() if c})


def der_bracket(D, E):
    """[D, E] = D E - E D, of degree deg(D) + deg(E) - 1.

    Each generator image D(E(x_k)) - E(D(x_k)) is formed in the tensor
    algebra and decomposed once."""
    if D.n != E.n:
        raise DimensionMismatch(f"bracket across ranks {D.n} and {E.n}")
    return _bracket(D.n, D.degree + E.degree - 1,
                    _embedded_images(D), _embedded_images(E))


def _bracket(n, degree, d_images, e_images):
    """[D, E] from the embedded generator images of D and E."""
    pairs = {}
    for k in range(n):
        coeffs = {}
        _leibniz(coeffs, d_images, e_images[k], 1)
        _leibniz(coeffs, e_images, d_images[k], -1)
        for w, c in decompose(n, _tensor(degree, coeffs))._coeffs.items():
            pairs[k + 1, w] = c
    return Derivation._trusted(n, degree, pairs)


def schur_act(f, D):
    """The degree-matched module action: post-compose every generator image,
    each embedded from D's pairs, acted on and decomposed once."""
    if f.q != D.degree:
        raise DimensionMismatch(f"degree-{f.q} endomorphism on a degree-{D.degree} derivation")
    if f.n != D.n:
        raise DimensionMismatch(f"rank-{f.n} endomorphism on a rank-{D.n} derivation")
    pairs = {}
    for k, image in enumerate(_embedded_images(D), 1):
        if image:
            acted = decompose(D.n, f.apply(TensorElement._trusted(D.degree, image)))
            for w, c in acted._coeffs.items():
                pairs[k, w] = c
    return Derivation._trusted(D.n, D.degree, pairs)


# ---------------------------------------------------------------------------
# the annihilate-and-fix solver

def find_annihilating_schur(n, i, j, u):
    """A degree-(k+1) equivariant h, for a degree-k monomial u (k >= 2), with

        h(conjugating_derivation(n,i,j) applied to u) = 0
        h([x_i, u]) = -[x_i, u]

    so that acting by h on the bracket of the conjugating derivation with the
    u-image generator derivation isolates the [x_i, u]-image one exactly.

    Both sides are built in the tensor algebra from t_u = embed(u).  The two
    conditions live in different multidegree blocks (they differ by one
    occurrence of x_j versus x_i), so h is taken to vanish outside the sorted
    word block_u of fix = [x_i, u] and the annihilation holds for free.
    So h is the solution of the fixing condition alone, which depends on
    (n, i, u) and not on j: _fixing_map solves and checks it once per
    (n, i, u) in a process, and j enters only the annihilation check, which
    every call runs on its own chi_ij.

    A solution always exists: minus the weight idempotent, {block_u:
    {block_u: -1}}, is -1 on the words of block_u's multidegree and 0 on all
    others (Green, LNM 830, 1980).  So NoSolutionFound, like a failed check
    on the h the solve returns, signals a bug.
    """
    chi = conjugating_derivation(n, i, j)
    if not is_monomial(u):
        raise InvalidArgument(f"not a Lie monomial tree: {u!r}")
    k = monomial_degree(u)
    if k < 2:
        raise InvalidArgument(f"need a monomial of degree >= 2, got degree {k}")
    if max(monomial_letters(u)) > n:
        raise InvalidArgument(f"letter above rank {n} in {monomial_str(u)}")
    h = _fixing_map(n, i, u)
    coeffs = {}
    _leibniz(coeffs, _embedded_images(chi), embed_monomial(u)._coeffs, 1)
    annihilate = _tensor(k + 1, coeffs)
    if not h.apply(annihilate).is_zero():
        raise InternalInvariantError("annihilation condition violated")
    return h


@lru_cache(maxsize=None)
def _fixing_map(n, i, u):
    """The h of find_annihilating_schur: the solution of h(fix) = -fix, fix
    = [x_i, u], supported on fix's sorted word block_u; solved and checked
    once per (n, i, u).

    The fixing condition is a linear system over the orbit keys of block_u,
    and it is block-diagonal by multidegree.  The column of a key is the map
    {block_u: {key: 1}} applied to fix; that image is orbit_sum(block_u, key)
    moved by place permutations, so it lives on the words of key's
    multidegree.  The right-hand side -fix lives on the rearrangements of
    block_u, so every other block has right-hand side 0 and is solved by zero
    coefficients.  Only block_u's own block is built: its rows are the
    distinct rearrangements v of block_u, its columns the keys
    stabilizer_orbit_key(block_u, v) they reach, sorted, and one integer
    solve over that block does the rest.  That layout, with the column of
    each v, depends on block_u alone, so it is built once per block and
    shared by every (i, u) whose fix lies there.  The cells are read off
    one pass over the pairs (x, v), x a word of fix: with sigma the
    permutation that places block_u onto x, read as x's own placer
    words._placer_onto(x), the coefficient of x goes to row v.sigma and
    column key of v.  This is exact: {block_u: {key: 1}}
    sends x = block_u.sigma to orbit_sum(block_u, key) moved by sigma, so
    the words v.sigma of that image are those with v in key's stabilizer
    orbit, that is, with key of v equal to key.
    """
    fix = embed_monomial((i, u))
    if fix.is_zero():
        raise InvalidArgument("the bracket [x_i, u] vanishes; nothing to fix")
    block_u = sorted_rep(next(iter(fix._coeffs)))
    keys, cells = _solve_layout(block_u)
    rows = {v: [0] * len(keys) for v, _ in cells}
    for x, c in fix._coeffs.items():
        if x not in rows:
            raise InternalInvariantError(
                f"fix word {x!r} is not a rearrangement of {block_u!r}")
        place = _placer_onto(x)
        for v, col in cells:
            rows[place(v)][col] += c
    solution = solve_integer(list(rows.values()), [-fix.coeff(w) for w in rows])
    if solution is None:
        raise NoSolutionFound(
            f"no integer equivariant map fixes the block of {block_u!r}")
    h = SchurElement._trusted(n, fix.degree,
                              {(block_u, key): c for key, c in zip(keys, solution) if c})
    if h.apply(fix) != -fix:
        raise InternalInvariantError("fixing condition violated")
    return h


@lru_cache(maxsize=None)
def _solve_layout(block_u):
    """The block system's layout for the sorted word block_u: its columns,
    the stabilizer orbit keys of the rearrangements of block_u, sorted; and
    the cells (v, column of v's key), one per rearrangement v, in
    rearrangements(block_u) order, which is the order of the rows."""
    key_of = {v: stabilizer_orbit_key(block_u, v) for v in rearrangements(block_u)}
    keys = sorted(set(key_of.values()))
    col_of = {key: c for c, key in enumerate(keys)}
    return keys, [(v, col_of[key]) for v, key in key_of.items()]


# ---------------------------------------------------------------------------
# the closure rank engine

@lru_cache(maxsize=None)
def _blocks(n, p):
    """Sorted letters u, increasing -> {Lyndon word with u's letters: its
    position in u's block}.  Slot k of a block row, of width len(block),
    holds the Lyndon coordinates of the image of x_{k+1} at those words."""
    blocks = {}
    for w in lyndon_words(n, p):
        block = blocks.setdefault(sorted_rep(w), {})
        block[w] = len(block)
    return dict(sorted(blocks.items()))


def _block_rows(n, p, D):
    """Sorted letters -> block row of a degree-p derivation D, read off its
    pairs; blocks where it vanishes are left out."""
    blocks = _blocks(n, p)
    rows = {}
    for (k, w), c in D._coeffs.items():
        u = sorted_rep(w)
        block = blocks[u]
        row = rows.setdefault(u, [0] * (n * len(block)))
        row[(k - 1) * len(block) + block[w]] = c
    return rows


def _row_derivation(n, p, words, row):
    """The derivation of a block row: slot k of the row holds the Lyndon
    coordinates of the image of x_{k+1} at words, in their order."""
    W = len(words)
    return Derivation._trusted(n, p, {(k + 1, w): c for k in range(n)
                                      for w, c in zip(words, row[k * W:]) if c})


@lru_cache(maxsize=None)
def _block_triangle(n, p, u):
    """Per Lyndon word l of block u, in increasing order, the (position,
    value) pairs of the smaller block words l' with embed(P_l')[l] = value
    nonzero, P_l' the standard bracketing of l'.  Raises unless embed(P_l)[l]
    is 1 and no larger block word l' has embed(P_l')[l] nonzero: the Lyndon
    matrix of the block is unitriangular (module docstring).

    >>> _block_triangle(2, 4, (1, 1, 2, 2))
    ((),)
    >>> _block_triangle(2, 5, (1, 1, 1, 2, 2))
    ((), ((0, -2),))
    """
    words = tuple(_blocks(n, p)[u])
    embedded = [embed_monomial(lyndon_bracketing(w))._coeffs for w in words]
    triangle = []
    for i, l in enumerate(words):
        column = [image.get(l, 0) for image in embedded]
        if column[i] != 1 or any(column[i + 1:]):
            raise InternalInvariantError(
                f"the Lyndon matrix of block {u} is not unitriangular at {l}")
        triangle.append(tuple((j, x) for j, x in enumerate(column[:i]) if x))
    return tuple(triangle)


@lru_cache(maxsize=None)
def _letter_table(n, p, u, a, b):
    """The derivation sending x_b to x_a on block u: the block v it writes,
    u with one b made an a, and its nonzero (row, col, value) entries,
    sorted by column and then row; col is a position in u's block, row one
    in v's.  None when u holds no b or v holds no Lyndon word.  The image of
    embed(P_w), w the column's word, has at a word l of v the sum of
    embed(P_w) at l with one a made a b; its Lyndon coordinates follow by
    back-substitution through v's triangle."""
    if b not in u:
        return None
    k = u.index(b)
    v = sorted_rep(u[:k] + (a,) + u[k + 1:])
    blocks = _blocks(n, p)
    if v not in blocks:
        return None
    copies = [[l[:t] + (b,) + l[t + 1:] for t, x in enumerate(l) if x == a]
              for l in blocks[v]]
    triangle = _block_triangle(n, p, v)
    entries = []
    for col, w in enumerate(blocks[u]):
        embedded = embed_monomial(lyndon_bracketing(w))._coeffs
        coords = []
        for words, pairs in zip(copies, triangle):
            coords.append(sum(embedded.get(x, 0) for x in words)
                          - sum(m * coords[j] for j, m in pairs))
        entries.extend((row, col, c) for row, c in enumerate(coords) if c)
    return v, tuple(entries)


def _divided_powers(n, p, u, row, a, b):
    """(block, row) for r = 1, 2, ...: the images of a block row of block u
    under the divided powers of the derivation sending x_b to x_a, each the
    one before it acted on by the derivation and divided by r, until an
    image is zero or no table exists.  A remainder raises: the division is
    exact (module docstring)."""
    for r in count(1):
        table = _letter_table(n, p, u, a, b)
        if table is None:
            return
        u, entries = table
        image = _act_on_row(entries, n, len(_blocks(n, p)[u]), row)
        if not any(image):
            return
        if any(x % r for x in image):
            raise InternalInvariantError(
                f"divided power {r} of x{b} -> x{a} is not integral on block {u}")
        row = [x // r for x in image]
        yield u, row


def _act_on_row(entries, n, width, row):
    """A block row's image under an entry list, in a block of the given width."""
    out = [0] * (n * width)
    for s, t in zip(range(0, len(row), len(row) // n), range(0, len(out), width)):
        for r, c, x in entries:
            y = row[s + c]
            if y:
                out[t + r] += x * y
    return out


def _merged_divisors(per_block):
    """The elementary divisors of a direct sum from its summands': the ones,
    then the Smith form of the diagonal of the rest (2, 4, 6 give 2, 2, 12)."""
    divisors = [d for block in per_block for d in block]
    rest = [d for d in divisors if d > 1]
    diagonal = [[d * (i == j) for j in range(len(rest))] for i, d in enumerate(rest)]
    return ([1] * (len(divisors) - len(rest))
            + smith_normal_form(diagonal, len(rest), len(rest)))


def _seeds(n, p, generators, reached):
    """The seeds of degree p, one at a time: the generators at p = 2, else
    the brackets of the embedded rows of degrees p1 <= p2 with p1 + p2 = p + 1,
    each unordered pair of distinct rows once when p1 = p2."""
    if p == 2:
        yield from generators
    for p1 in range(2, (p + 3) // 2):
        p2 = p + 1 - p1  # p2 >= p1, and both are below p
        for a_idx, a in enumerate(reached[p1]):
            start = a_idx + 1 if p1 == p2 else 0
            for b in reached[p2][start:]:
                yield _bracket(n, p, a, b)


def schur_closure_rank(n, generators, max_degree):
    """Degree-by-degree reachability report for the closure of degree-2
    generators under derivation brackets and the endomorphism action.

    Each degree keeps one lattice per multidegree block and makes its seeds
    one at a time, the generators (degree 2) or the brackets of lower
    degrees.  A worklist takes each seed's block rows into the lattices, with
    the images under E_i^(r), F_i^(r) of every row that grows one, until it
    is empty; no further seed is made once every block is Z^dim (module
    docstring).

    Returns one dict per degree 2..max_degree with the reached rank over the
    rationals, the full rank n * witt_dimension(n, p), and the elementary
    divisors of the reached integer lattice (all 1 means the reached span is
    saturated).  Raises ResourceGuardExceeded, carrying the partial report,
    when the endomorphism basis at some degree is unreasonably large.

    >>> [e["saturated"] for e in schur_closure_rank(2, gamma_generators(2), 4)]
    [True, True, True]
    """
    for D in generators:
        if D.n != n:
            raise InvalidArgument(f"rank-{D.n} generator in a rank-{n} closure")
        if D.degree != 2:
            raise InvalidArgument("closure generators must have degree 2")
    letter_pairs = [(a, b) for i in range(1, n) for a, b in ((i, i + 1), (i + 1, i))]
    report = []
    reached = {}  # degree -> the embedded images of its block lattices' rows
    for p in range(2, max_degree + 1):
        if basis_dimension_formula(n, p) > CLOSURE_BASIS_GUARD:
            raise ResourceGuardExceeded(
                f"endomorphism basis at degree {p} exceeds {CLOSURE_BASIS_GUARD} elements",
                partial=report)
        blocks = _blocks(n, p)
        lattices = {u: IntegerLattice(n * len(block)) for u, block in blocks.items()}
        open_blocks = set(lattices)  # the blocks whose lattice is not Z^dim yet
        pushed = {u: set() for u in lattices}  # the rows added to each lattice
        worklist = deque()
        for D in _seeds(n, p, generators, reached):
            worklist.extend(_block_rows(n, p, D).items())
            while worklist:
                u, row = worklist.popleft()
                key = tuple(row)
                if u not in open_blocks or key in pushed[u]:
                    continue  # a repeat's images are queued already
                pushed[u].add(key)
                if not lattices[u].add(row):
                    continue  # held already, so its images are queued already
                if lattices[u].full_unimodular():
                    open_blocks.discard(u)
                for a, b in letter_pairs:
                    worklist.extend(image for image in _divided_powers(n, p, u, row, a, b)
                                    if image[0] in open_blocks)
            if not open_blocks:
                break
        rank = sum(lattice.rank() for lattice in lattices.values())
        dim = n * len(lyndon_words(n, p))
        divisors = _merged_divisors(
            [lattice.elementary_divisors() for lattice in lattices.values()])
        entry = {
            "degree": p,
            "degree_doubled": 2 * p,
            "reached_rank": rank,
            "full_rank": dim,
            "elementary_divisors": divisors,
            "saturated": rank == dim and all(d == 1 for d in divisors),
        }
        report.append(entry)
        if p < max_degree:  # nothing brackets the top degree
            reached[p] = [_embedded_images(_row_derivation(n, p, blocks[u], row))
                          for u, lattice in lattices.items() for row in lattice.rows]
    return report
