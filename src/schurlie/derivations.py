"""Derivations of the free Lie algebra, their bracket, the action of
equivariant endomorphisms on them, and the span-closure rank engine.

A degree-p derivation is determined by the n-tuple of images of the
generators, each a degree-p element; the Leibniz rule extends it to all
degrees.  The bracket of derivations of degrees p and p' has degree
p + p' - 1 in this natural count (generator in, degree-p element out).

Derivations are evaluated in the tensor algebra.  The free Lie algebra L(V)
sits inside T(V) = U(L(V)), and a derivation of L(V) extends uniquely to a
derivation of T(V) (Reutenauer, Free Lie Algebras, 1993, ch. 1).  So if
embed(a) = sum c_w w, then D(a) is the decomposition of

    sum c_w sum_i w[:i] . embed(D(x_{w_i})) . w[i+1:],

one embedding, one Leibniz pass over the words and one decomposition.

The closure engine computes, degree by degree, the integer lattice spanned by
everything reachable from a set of degree-2 generators through derivation
brackets of lower degrees and through the degree-matched action of the
equivariant-endomorphism basis, reporting rank and elementary divisors
against the expected n * (number of Lyndon words).  It keeps one lattice per
multidegree block, the Lyndon words with the same sorted letters u; slot k of
a block row holds the Lyndon coordinates of the image of x_{k+1} at the
block's words.  Once a degree is done, each Hermite row of each block is
embedded into the tensor algebra once, and a bracket of two rows is the
Leibniz pass on those images, one decomposition per image, split into block
rows.  By bilinearity, any Z-basis of a degree brackets to the same span.

The action needs one sweep, not a fixed-point loop: basis(n, p) is a Z-basis
of the integral Schur algebra, which contains the identity and is closed
under composition (Green, Polynomial Representations of GL_n, LNM 830,
1980).  So the span of b.v over every basis element b and every seed v
contains the seeds and is mapped into itself by every b.  The blocks lose
nothing: {u: {key: 1}} reads block u and writes block sorted_rep(key), and
the weight idempotent {u: {u: 1}} is the identity on block u, so the swept
span is the direct sum of its block projections, and Hermite normal form is
unique to the span.

The action entries come from the same basis read as orbits of pairs of
words.  The element {u: {key: 1}} sends a word x with sorted letters u to
orbit_sum(u, key) moved by the place permutation that sorts u onto x, and
zero to every other word.  For any word l, exactly one key puts l in the
image of x: for each letter a of u in increasing order, the sorted letters
of l at the positions where x holds a.  So one pass over the pairs (x in the
support of embed(P_w), l a Lyndon word) gives every key's coefficients at the
Lyndon words at once.  The embedding is unitriangular, P_l = l + larger
words (Chen-Fox-Lyndon), so back-substitution in increasing Lyndon order
turns those coefficients into Lyndon coordinates.
"""

from functools import lru_cache
from operator import add

from .errors import (DimensionMismatch, InvalidArgument, InternalInvariantError,
                     NoSolutionFound, ResourceGuardExceeded)
from .freelie import (LieElement, _lyndon_triangle, decompose, embed,
                      embed_monomial, is_monomial, lyndon_bracketing,
                      lyndon_words, monomial_degree, monomial_letters,
                      monomial_str, normalize, zero_lie)
from .linalg import IntegerLattice, smith_normal_form, solve_integer
from .schur import SchurElement, apply_to_lie, basis_dimension_formula
from .words import (TensorElement, _linear_combination, rearrangements,
                    sorted_rep, tensor_product)

CLOSURE_BASIS_GUARD = 600  # largest endomorphism basis the engine will sweep


class Derivation:
    """A homogeneous derivation, stored as its generator images."""

    __slots__ = ("n", "degree", "images")

    def __init__(self, n, degree, images):
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
        self.images = images

    def image(self, i):
        return self.images[i - 1]

    def is_zero(self):
        return all(img.is_zero() for img in self.images)

    def __eq__(self, other):
        return (isinstance(other, Derivation) and self.n == other.n
                and self.degree == other.degree and self.images == other.images)

    def __hash__(self):
        return hash((self.n, self.degree, self.images))

    def _check_compatible(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"mixing ranks {self.n} and {other.n}")
        if self.degree != other.degree:
            raise DimensionMismatch(f"mixing degrees {self.degree} and {other.degree}")

    def __add__(self, other):
        self._check_compatible(other)
        return Derivation(self.n, self.degree,
                          tuple(a + b for a, b in zip(self.images, other.images)))

    def __neg__(self):
        return Derivation(self.n, self.degree, tuple(-a for a in self.images))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return Derivation(self.n, self.degree, tuple(a.scale(k) for a in self.images))

    __rmul__ = scale

    def __repr__(self):
        return ("Derivation(n=%d, degree=%d, [%s])"
                % (self.n, self.degree, ", ".join(str(a) for a in self.images)))


def generator_derivation(i, w):
    """The derivation sending x_i to w and every other generator to zero."""
    n = w.n
    if not 1 <= i <= n:
        raise InvalidArgument(f"generator index {i} outside 1..{n}")
    images = [zero_lie(n, w.degree)] * n
    images[i - 1] = w
    return Derivation(n, w.degree, images)


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


def conjugating_derivation(n, i, j):
    """x_i maps to [x_i, x_j], all other generators to zero (degree 2)."""
    _check_pair_indices(n, i, j)
    return generator_derivation(i, normalize(n, (i, j)))


def commutator_derivation(n, i, s, t):
    """x_i maps to [x_s, x_t], all other generators to zero (degree 2)."""
    _check_triple_indices(n, i, s, t)
    return generator_derivation(i, normalize(n, (s, t)))


def mtilde_generators(n):
    """All quadratic generators: every conjugating derivation, plus every
    commutator derivation (the latter exist only for rank >= 3)."""
    gens = [conjugating_derivation(n, i, j)
            for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    gens += [commutator_derivation(n, i, s, t)
             for i in range(1, n + 1)
             for s in range(1, n + 1) for t in range(s + 1, n + 1)
             if i not in (s, t)]
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
    """D's generator images in the tensor algebra, as word -> coefficient."""
    return tuple(embed(img)._coeffs for img in D.images)


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
    degree = D.degree + E.degree - 1
    return Derivation(D.n, degree, _bracket_images(
        D.n, degree, _embedded_images(D), _embedded_images(E)))


def _bracket_images(n, degree, d_images, e_images):
    """The generator images of [D, E], in Lyndon coordinates, from the
    embedded generator images of D and E."""
    for k in range(n):
        coeffs = {}
        _leibniz(coeffs, d_images, e_images[k], 1)
        _leibniz(coeffs, e_images, d_images[k], -1)
        yield decompose(n, _tensor(degree, coeffs))


def schur_act(f, D):
    """The degree-matched module action: post-compose every generator image."""
    if f.q != D.degree:
        raise DimensionMismatch(f"degree-{f.q} endomorphism on a degree-{D.degree} derivation")
    if f.n != D.n:
        raise DimensionMismatch(f"rank-{f.n} endomorphism on a rank-{D.n} derivation")
    return Derivation(D.n, D.degree, tuple(apply_to_lie(f, img) for img in D.images))


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

    The fixing condition is a linear system over the orbit keys of block_u,
    and it is block-diagonal by multidegree.  The column of a key is the map
    {block_u: {key: 1}} applied to fix; that image is orbit_sum(block_u, key)
    moved by place permutations, so it lives on the words of key's
    multidegree.  The right-hand side -fix lives on the rearrangements of
    block_u, so every other block has right-hand side 0 and is solved by zero
    coefficients.  Only block_u's own block is built: its rows are the
    distinct rearrangements of block_u, its columns the keys with block_u's
    letters, all read off one pass over the pairs (_pair_images), and one
    integer solve over that block does the rest.

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
    t_u = embed_monomial(u)
    x_i = embed_monomial(i)
    fix = tensor_product(x_i, t_u) - tensor_product(t_u, x_i)
    if fix.is_zero():
        raise InvalidArgument("the bracket [x_i, u] vanishes; nothing to fix")
    q = k + 1
    coeffs = {}
    _leibniz(coeffs, _embedded_images(chi), t_u._coeffs, 1)
    annihilate = _tensor(q, coeffs)

    block_u = sorted_rep(next(iter(fix._coeffs)))
    word_list = rearrangements(block_u)
    images = _pair_images(n, {x: [c] for x, c in fix._coeffs.items()}, word_list)
    keys = sorted(images)
    rows = [[images[key].get(w, (0,))[0] for key in keys] for w in word_list]
    rhs = [-fix.coeff(w) for w in word_list]
    solution = solve_integer(rows, rhs)
    if solution is None:
        raise NoSolutionFound(
            f"no integer equivariant map fixes the block of {block_u!r}")
    h = SchurElement._trusted(n, q, {(block_u, key): c for key, c in zip(keys, solution) if c})
    if not h.apply(annihilate).is_zero():
        raise InternalInvariantError("annihilation condition violated")
    if h.apply(fix) != -fix:
        raise InternalInvariantError("fixing condition violated")
    return h


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


def _block_rows(n, p, images):
    """Sorted letters -> block row of a degree-p derivation, given by its
    generator images; blocks where it vanishes are left out."""
    blocks = _blocks(n, p)
    rows = {}
    for k, image in enumerate(images):
        for w, c in image._coeffs.items():
            u = sorted_rep(w)
            block = blocks[u]
            row = rows.setdefault(u, [0] * (n * len(block)))
            row[k * len(block) + block[w]] = c
    return rows


def _row_images(p, words, row):
    """A block row's generator images in the tensor algebra, as word ->
    coefficient dicts; slot k of the row holds the Lyndon coordinates of the
    image of x_{k+1} at words, in their order."""
    W = len(words)
    return tuple(
        _linear_combination(p, ((c, embed_monomial(lyndon_bracketing(w)))
                                for w, c in zip(words, row[base:base + W]) if c))._coeffs
        for base in range(0, len(row), W))


@lru_cache(maxsize=None)
def _block_action(n, p, u):
    """The nonzero (row, col, value) entries of each basis element
    {u: {key: 1}} that has any, by key, sorted by column and then row; col
    is a position in u's block, row one in sorted_rep(key)'s.  The pair pass
    over u's block (module docstring) gives the entries of every key at
    once."""
    blocks = _blocks(n, p)
    zero = [0] * len(blocks[u])
    embedded = {}  # word x -> its coefficient in embed(P_w), per column w
    for c, w in enumerate(blocks[u]):
        for x, e in embed_monomial(lyndon_bracketing(w))._coeffs.items():
            embedded.setdefault(x, list(zero))[c] = e
    triangle = _lyndon_triangle(n, p)
    images = {}
    for key, image in _pair_images(n, embedded, lyndon_words(n, p)).items():
        coords = []  # (row, Lyndon coordinate per column), rows increasing
        for l, r in blocks[sorted_rep(key)].items():
            v = image.get(l)
            if v is None or not any(v):
                continue
            coords.append((r, v))
            for m, t in triangle[l]:
                image[m] = [a - t * b for a, b in zip(image.get(m, zero), v)]
        entries = tuple((r, c, v[c]) for c in range(len(zero))
                        for r, v in coords if v[c])
        if entries:
            images[key] = entries
    return images


def _pair_images(n, sources, targets):
    """key -> target l -> the sum of the vectors of the sources x (word ->
    vector, all x rearrangements of one sorted word u) that {u: {key: 1}}
    sends onto l, in one pass over the pairs (module docstring).  Sorted,
    the letter pairs (x[t], l[t]) have the key as their second halves.  A
    pair (a, b) is coded as a * base + b, so b = code % base."""
    base = n + 1
    by_code = {}
    for x, ex in sources.items():
        shifted = [a * base for a in x]
        for l in targets:
            image = by_code.setdefault(tuple(sorted(map(add, shifted, l))), {})
            acc = image.get(l)
            image[l] = ex if acc is None else list(map(add, acc, ex))
    return {tuple(v % base for v in code): image for code, image in by_code.items()}


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


def schur_closure_rank(n, generators, max_degree):
    """Degree-by-degree reachability report for the closure of degree-2
    generators under derivation brackets and the endomorphism action.

    Each degree keeps one lattice per multidegree block.  Its seeds, the
    generators (degree 2) or the brackets of lower degrees, go in as block
    rows.  Then every basis endomorphism {u: {key: 1}} acts once on every
    row of block u, into the lattice of sorted_rep(key) until that lattice
    is Z^dim (one sweep, see the module docstring).

    Returns one dict per degree 2..max_degree with the reached rank over the
    rationals, the full rank n * witt_dimension(n, p), and the elementary
    divisors of the reached integer lattice (all 1 means the reached span is
    saturated).  Raises ResourceGuardExceeded, carrying the partial report,
    when the endomorphism basis at some degree is unreasonably large.
    """
    for D in generators:
        if D.n != n:
            raise InvalidArgument(f"rank-{D.n} generator in a rank-{n} closure")
        if D.degree != 2:
            raise InvalidArgument("closure generators must have degree 2")
    report = []
    reached = {}  # degree -> the row images of its block lattices' rows
    for p in range(2, max_degree + 1):
        if basis_dimension_formula(n, p) > CLOSURE_BASIS_GUARD:
            raise ResourceGuardExceeded(
                f"endomorphism basis at degree {p} exceeds {CLOSURE_BASIS_GUARD} elements",
                partial=report)
        blocks = _blocks(n, p)
        lattices = {u: IntegerLattice(n * len(block)) for u, block in blocks.items()}
        seeds = [D.images for D in generators] if p == 2 else []
        for p1 in range(2, (p + 3) // 2):
            p2 = p + 1 - p1  # p2 >= p1, and both are below p
            for a_idx, a in enumerate(reached[p1]):
                start = a_idx + 1 if p1 == p2 else 0
                seeds.extend(_bracket_images(n, p, a, b) for b in reached[p2][start:])
        for images in seeds:
            for u, row in _block_rows(n, p, images).items():
                lattices[u].add(row)
        for u, lattice in lattices.items():
            rows = lattice.basis_rows()
            if not rows:
                continue
            for key, entries in _block_action(n, p, u).items():
                target = lattices[sorted_rep(key)]
                if target.full_unimodular():
                    continue
                for row in rows:
                    image = _act_on_row(entries, n, target.dim // n, row)
                    if target.add(image) and target.full_unimodular():
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
            reached[p] = [_row_images(p, blocks[u], row)
                          for u, lattice in lattices.items() for row in lattice.rows]
    return report
