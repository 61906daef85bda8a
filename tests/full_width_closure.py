"""The closure engine that schurlie.derivations.schur_closure_rank's block
lattices replaced, kept as an oracle for them, used by the tests only, and
the letter tables as the engine first built them.

It keeps one lattice over all n * W coordinates of a degree (block k of a
row holds the Lyndon coordinates of the image of x_{k+1}), brackets its
Hermite rows, and sweeps every seed through the action entries of every
basis endomorphism, passing over a seed with no nonzero entry in an entry
list's columns.  As it acts by the whole basis, not by the divided powers
E_i^(r), F_i^(r) that the engine acts by, it does not rest on their
generating the Schur algebra.  The action entries are read off
schurlie.schur.apply_to_lie of each basis element on each Lyndon word, so
the oracle acts through the public Schur action and no solver kernel.
"""

from functools import lru_cache
from itertools import compress

from schurlie.derivations import (_blocks, _bracket, _embedded_images,
                                  _leibniz, _row_derivation, _tensor)
from schurlie.freelie import (LieElement, decompose, embed_monomial,
                              lyndon_bracketing, lyndon_words)
from schurlie.linalg import IntegerLattice
from schurlie.schur import SchurElement, apply_to_lie, orbit_keys
from schurlie.words import sorted_rep, sorted_words


def _bracket_row(n, degree, index, a, b):
    """The lattice row of the bracket of two derivations given by their
    row images; index maps the degree's Lyndon words to their positions."""
    W = len(index)
    row = [0] * (n * W)
    for (k, w), c in _bracket(n, degree, a, b).items():
        row[(k - 1) * W + index[w]] = c
    return row


def leibniz_letter_table(n, p, u, a, b):
    """schurlie.derivations._letter_table as the engine first built it, an
    oracle for the back-substitution: one Leibniz pass over embed(P_w) and
    one decomposition per Lyndon word w of block u."""
    if b not in u:
        return None
    k = u.index(b)
    v = sorted_rep(u[:k] + (a,) + u[k + 1:])
    blocks = _blocks(n, p)
    if v not in blocks:
        return None
    rows = blocks[v]
    images = tuple({(a,): 1} if letter == b else {} for letter in range(1, n + 1))
    entries = []
    for col, w in enumerate(blocks[u]):
        coeffs = {}
        _leibniz(coeffs, images, embed_monomial(lyndon_bracketing(w))._coeffs, 1)
        entries.extend((rows[l], col, x)
                       for l, x in decompose(n, _tensor(p, coeffs))._coeffs.items())
    return v, tuple(entries)


@lru_cache(maxsize=None)
def _action_matrices(n, p):
    """Per basis endomorphism, in basis(n, p) order, its nonzero
    (row, col, value) entries on the degree's Lyndon coordinates, sorted by
    column and then row; elements with no entries are left out.  Column c
    is read off apply_to_lie of the element on the c-th Lyndon word."""
    words = lyndon_words(n, p)
    index = {w: r for r, w in enumerate(words)}
    mats = []
    for u in sorted_words(n, p):  # the order of basis(n, p)
        cols = [c for c, w in enumerate(words) if sorted_rep(w) == u]
        for key in orbit_keys(n, u):
            f = SchurElement(n, p, {u: {key: 1}})
            entries = []
            for c in cols:
                image = apply_to_lie(f, LieElement(n, p, {words[c]: 1}))
                entries.extend(sorted((index[l], c, x) for l, x in image.items()))
            if entries:
                mats.append(tuple(entries))
    return tuple(mats)


def _act_on_vector(entries, W, vec):
    out = [0] * len(vec)
    for base in range(0, len(vec), W):
        for r, c, x in entries:
            y = vec[base + c]
            if y:
                out[base + r] += x * y
    return out


def _sweep(lattice, mats, W, seeds):
    """Add the image of every seed under every action entry list to the
    lattice, stopping once it is Z^dim.  A seed with no nonzero entry in an
    entry list's columns has image zero and is passed over."""
    supports = [{j % W for j in compress(range(len(vec)), vec)} for vec in seeds]
    for entries in mats:
        cols = {c for _, c, _ in entries}
        for vec, support in zip(seeds, supports):
            if not cols.isdisjoint(support):
                image = _act_on_vector(entries, W, vec)
                if any(image) and lattice.add(image) and lattice.full_unimodular():
                    return


def full_width_lattices(n, generator_vectors, max_degree):
    """The closure's lattice at each degree 2..max_degree, one n * W-wide
    IntegerLattice per degree, from the degree-2 generators' vectors."""
    lattices = []
    reached = {}  # degree -> the row images of its lattice basis
    for p in range(2, max_degree + 1):
        words = lyndon_words(n, p)
        W = len(words)
        lattice = IntegerLattice(n * W)
        if p == 2:
            for vec in generator_vectors:
                lattice.add(vec)
        index = {w: c for c, w in enumerate(words)}
        for p1 in range(2, (p + 3) // 2):
            p2 = p + 1 - p1
            for a_idx, a in enumerate(reached[p1]):
                start = a_idx + 1 if p1 == p2 else 0
                for b in reached[p2][start:]:
                    lattice.add(_bracket_row(n, p, index, a, b))
        seeds = lattice.basis_rows()
        if seeds and not lattice.full_unimodular():
            _sweep(lattice, _action_matrices(n, p), W, seeds)
        lattices.append(lattice)
        reached[p] = [_embedded_images(_row_derivation(n, p, words, row))
                      for row in lattice.rows]
    return lattices
