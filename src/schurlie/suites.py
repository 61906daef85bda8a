"""Packaged verification suites.

Each suite exercises one verified claim end to end and returns a plain-dict
report: schema version, parameters, a deterministic (key-sorted) instance
list with one pass flag per instance, and aggregate counts.  All randomness
is drawn from a seeded generator recorded in the parameters.
"""

import random
from functools import lru_cache
from itertools import combinations, permutations, product

from . import __version__
from .derivations import (apply_derivation, commutator_derivation,
                          conjugating_derivation, der_bracket,
                          find_annihilating_schur, gamma_generators,
                          generator_derivation, mtilde_generators, schur_act,
                          schur_closure_rank)
from .errors import InvalidArgument, SchurlieError
from .freegroup import (classify_pair, commutator_auto, conjugating_auto,
                        johnson_image, verify_mccool)
from .freelie import (embed, lie_bracket, lyndon_basis, monomial_str,
                      normalize, specht_wever)
from .schur import (SchurElement, basis, basis_dimension_formula,
                    check_equivariance_sweep, decompose_in_basis,
                    equivariant_basis_bruteforce, orbit_keys,
                    schur_is_equivariant)
from .transfer import (GradedSchurElement, boxtimes, is_left_transversal,
                       operad_compose, random_transversal, star, transfer,
                       transversal_by_product)
from .words import sorted_words, words_of


def make_report(suite, parameters, instances):
    """The report of a suite; InvalidArgument when it has no instance, as a
    run that checks nothing proves nothing."""
    if not instances:
        shown = ", ".join(f"{name}={value}" for name, value in parameters.items())
        raise InvalidArgument(f"suite {suite} has no instance to check at {shown}")
    instances = sorted(instances, key=lambda inst: inst["key"])
    passed = sum(1 for inst in instances if inst["pass"])
    return {
        "schema": 1,
        "suite": suite,
        "version": __version__,
        "parameters": parameters,
        "instances": instances,
        "passed": passed,
        "failed": len(instances) - passed,
        "ok": passed == len(instances),
    }


def _word_str(w):
    return ".".join(map(str, w))


def _pairs_and_monomials(n, low, max_degree):
    """(key, i, j, tree) over the index pairs i != j and the Lyndon basis
    monomials of degree low..max_degree; the key names all three."""
    return [(f"i{i}j{j}:deg{k}:{monomial_str(tree)}", i, j, tree)
            for i, j in permutations(range(1, n + 1), 2)
            for k in range(low, max_degree + 1)
            for tree in lyndon_basis(n, k)]


# ---------------------------------------------------------------------------

def run_equivariance(n=3, max_degree=4, seed=0):
    """Every element built from orbit data commutes with all place
    permutations, checked exhaustively per degree."""
    check_equivariance_sweep(n, max_degree)
    instances = []
    # top degree first: the guards grow with the degree, so they refuse early
    for q in range(max_degree, -1, -1):
        for idx, f in enumerate(basis(n, q)):
            [((u, _), _)] = f.items()
            instances.append({
                "key": f"q{q}:{idx:04d}:{_word_str(u)}",
                "q": q,
                "pass": schur_is_equivariant(f),
            })
    return make_report("equivariance", {"n": n, "max_degree": max_degree, "seed": seed},
                       instances)


def run_dimension(n=3, max_degree=4, seed=0):
    """The orbit-data basis has the same size as the brute-force solution
    space of the commutation constraints, every brute-force solution
    decomposes (uniquely, by sorted-column read-off) in the basis, and both
    counts agree with the multiset binomial."""
    def check(q):
        oracle = equivariant_basis_bruteforce(n, q)
        b = basis(n, q)
        all_decompose = all(decompose_in_basis(m, n, q) is not None for m in oracle)
        return {
            "key": f"q{q}",
            "q": q,
            "bruteforce_dim": len(oracle),
            "basis_size": len(b),
            "binomial": basis_dimension_formula(n, q),
            "all_decompose": all_decompose,
            "pass": (len(oracle) == len(b) == basis_dimension_formula(n, q)
                     and all_decompose),
        }

    # top degree first: the guards grow with the degree, so they refuse early
    instances = [check(q) for q in range(max_degree, -1, -1)]
    return make_report("dimension", {"n": n, "max_degree": max_degree, "seed": seed},
                       instances)


def run_spechtwever(n=3, max_degree=5, seed=0):
    """The left-normed bracketing map b satisfies b(b(w)) = p b(w) on every
    degree-p basis word."""
    def check(p):
        ok = True
        for w in words_of(n, p):
            image = specht_wever(w, n)
            twice = specht_wever(embed(image), n)
            if twice != image.scale(p):
                ok = False
                break
        return {"key": f"p{p}", "p": p, "pass": ok}

    instances = [check(p) for p in range(1, max_degree + 1)]
    return make_report("spechtwever", {"n": n, "max_degree": max_degree, "seed": seed},
                       instances)


@lru_cache(maxsize=None)
def _sorted_word_tuple(n, q):
    """sorted_words(n, q) as one tuple, for random draws."""
    return tuple(sorted_words(n, q))


def _random_schur(n, q, rng):
    """A degree-0 scalar, or the sum of two random basis multiples."""
    if q == 0:
        return SchurElement.scalar(n, rng.randint(-3, 3))
    us = _sorted_word_tuple(n, q)
    pairs = {}
    for _ in range(2):
        u = rng.choice(us)
        key = rng.choice(orbit_keys(n, u))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        pairs[u, key] = pairs.get((u, key), 0) + c
    # every u is sorted and every key drawn from orbit_keys, so nothing to check
    return SchurElement._trusted(n, q, {pair: c for pair, c in pairs.items() if c})


def _random_composition(rng, total):
    """A random composition of total into at most three parts."""
    parts = []
    left = total
    while left and len(parts) < 2:
        a = rng.randint(1, left)
        parts.append(a)
        left -= a
    if left:
        parts.append(left)
    return tuple(parts)


def run_star_laws(n=3, max_degree=5, seed=0, trials=100):
    """Transversal independence, associativity, commutativity and
    distributivity of the cross-degree product, on random sparse elements;
    max_degree >= 3 fits an associativity trial's three factors."""
    if max_degree < 3:
        raise InvalidArgument(f"star-laws needs max_degree >= 3, got {max_degree}")
    rng = random.Random(seed)
    instances = []

    for t in range(trials):
        total = rng.randint(2, max_degree)
        parts = _random_composition(rng, total)
        fs = [_random_schur(n, a, rng) for a in parts]
        canonical = transfer(parts, fs)
        other = transfer(parts, fs, transversal=random_transversal(parts, rng))
        built = transversal_by_product(parts)
        instances.append({
            "key": f"transversal:{t:03d}",
            "parts": list(parts),
            "pass": (canonical == other and is_left_transversal(built, parts)
                     and canonical == transfer(parts, fs, transversal=built)),
        })

    for t in range(trials):
        degrees = [rng.randint(1, 2) for _ in range(3)]
        while sum(degrees) > max_degree:
            degrees[rng.randrange(3)] = 1
        f, g, h = (_random_schur(n, d, rng) for d in degrees)
        lhs = star(star(f, g), h)
        rhs = star(f, star(g, h))
        flat = transfer(tuple(degrees), [f, g, h])
        instances.append({
            "key": f"assoc:{t:03d}",
            "degrees": degrees,
            "pass": lhs == rhs == flat,
        })

    for t in range(trials):
        a = rng.randint(0, max_degree - 1)
        b = rng.randint(0, max_degree - a)
        f = _random_schur(n, a, rng)
        g = _random_schur(n, b, rng)
        instances.append({
            "key": f"comm:{t:03d}",
            "degrees": [a, b],
            "pass": star(f, g) == star(g, f),
        })

    for t in range(trials):
        a = rng.randint(0, 2)
        b = rng.randint(1, max_degree - max(a, 1))
        f = _random_schur(n, a, rng)
        g1 = _random_schur(n, b, rng)
        g2 = _random_schur(n, b, rng)
        instances.append({
            "key": f"distrib:{t:03d}",
            "degrees": [a, b],
            "pass": star(f, g1 + g2) == star(f, g1) + star(f, g2),
        })

    for t in range(trials // 4):
        f0 = GradedSchurElement.of(_random_schur(n, 0, rng),
                                   _random_schur(n, rng.randint(1, 2), rng))
        g0 = GradedSchurElement.of(_random_schur(n, rng.randint(1, 2), rng))
        prod = boxtimes(f0, g0)
        ok = True
        for d in prod.degrees():
            expected = SchurElement.zero(n, d)
            for p in f0.degrees():
                if d - p in g0.degrees():
                    expected = expected + star(f0.component(p), g0.component(d - p))
            if prod.component(d) != expected:
                ok = False
        instances.append({"key": f"graded:{t:03d}", "pass": ok})

    return make_report("star-laws",
                       {"n": n, "max_degree": max_degree, "seed": seed, "trials": trials},
                       instances)


def run_operad(n=3, max_degree=4, seed=0, trials=20):
    """Operad axioms for the arity-graded family P(m) of degree-(m-1)
    elements: the unit laws exactly, plus logged coherence instances."""
    rng = random.Random(seed)
    one = SchurElement.scalar(n, 1)
    instances = []

    for t in range(trials):
        q = rng.randint(0, 3)
        theta = _random_schur(n, q, rng)
        left_unit = operad_compose(one, [theta])
        right_unit = operad_compose(theta, [one] * (q + 1))
        instances.append({
            "key": f"identity:{t:03d}",
            "arity": q + 1,
            "pass": left_unit == theta and right_unit == theta,
        })

    for t in range(trials):
        # theta in P(2) applied to operations that are themselves composites
        theta = _random_schur(n, 1, rng)
        inner = [[_random_schur(n, rng.randint(0, 1), rng)
                  for _ in range(rng.randint(1, 2))] for _ in range(2)]
        mids = [_random_schur(n, len(group) - 1, rng) for group in inner]
        lhs = operad_compose(theta, [operad_compose(m, g) for m, g in zip(mids, inner)])
        rhs = operad_compose(operad_compose(theta, mids), inner[0] + inner[1])
        instances.append({
            "key": f"coherence:{t:03d}",
            "result_degree": lhs.q,
            "pass": lhs == rhs,
        })

    return make_report("operad",
                       {"n": n, "max_degree": max_degree, "seed": seed, "trials": trials},
                       instances)


def run_prop422(n=3, max_degree=4, seed=0):
    """The commutation identity between a conjugating derivation and a
    one-generator derivation: [chi_ij, f_{j,u}] = -f_{i,[x_i,u]} + f_{j,chi_ij(u)},
    exhaustively over index pairs and basis monomials of degree <= max_degree."""
    instances = []
    for key, i, j, tree in _pairs_and_monomials(n, 1, max_degree):
        u = normalize(n, tree)
        chi = conjugating_derivation(n, i, j)
        lhs = der_bracket(chi, generator_derivation(j, u))
        xi_u = lie_bracket(normalize(n, i), u)
        rhs = (-generator_derivation(i, xi_u)
               + generator_derivation(j, apply_derivation(chi, u)))
        instances.append({
            "key": key,
            "pass": lhs == rhs,
        })
    return make_report("prop422", {"n": n, "max_degree": max_degree, "seed": seed},
                       instances)


def run_lemma425(n=3, max_degree=3, seed=0):
    """The annihilate-and-fix solver succeeds on every basis monomial of
    degree 2..max_degree, its two defining equations verify exactly (the
    solver checks them before it returns), and acting with the solution
    isolates the expected generator derivation."""
    instances = []
    targets = {}  # (i, tree) -> (u, f_{i,[x_i,u]}), shared by every j
    for key, i, j, tree in _pairs_and_monomials(n, 2, max_degree):
        try:
            h = find_annihilating_schur(n, i, j, tree)
        except SchurlieError as exc:
            instances.append({"key": key, "pass": False, "error": str(exc)})
            continue
        if (i, tree) not in targets:
            u = normalize(n, tree)
            targets[i, tree] = u, generator_derivation(i, normalize(n, (i, tree)))
        u, target = targets[i, tree]
        bracket = der_bracket(conjugating_derivation(n, i, j), generator_derivation(j, u))
        isolated = schur_act(h, bracket) == target
        instances.append({"key": key, "pass": isolated, "support": len(h)})
    return make_report("lemma425", {"n": n, "max_degree": max_degree, "seed": seed},
                       instances)


def run_generation(n=3, max_degree=4, seed=0, generators="mtilde"):
    """Closure from the quadratic generators under brackets and the
    endomorphism action reaches the full derivation rank with trivial
    elementary divisors, degree by degree."""
    if generators == "mtilde":
        gens = mtilde_generators(n)
    elif generators == "gamma":
        gens = gamma_generators(n)
    else:
        raise InvalidArgument(f"unknown generator set {generators!r}")
    # a degree with no derivation to reach (every degree at n = 1) checks
    # nothing, so it is no instance
    instances = [{"key": f"degree{entry['degree']}", **entry, "pass": entry["saturated"]}
                 for entry in schur_closure_rank(n, gens, max_degree)
                 if entry["full_rank"]]
    return make_report("generation",
                       {"n": n, "max_degree": max_degree, "seed": seed,
                        "generators": generators},
                       instances)


def run_mccool(n=3, seed=0):
    """All relation instances of the basis-conjugating presentation, plus the
    outcome of the three-term family under the opposite composition order."""
    result = verify_mccool(n)
    instances = []
    for inst in result["instances"]:
        indices = "".join(map(str, inst["indices"]))
        instances.append({
            "key": f"family{inst['family']}:{indices}",
            "family": inst["family"],
            "indices": list(inst["indices"]),
            "pass": inst["holds"],
        })
    # the three-term family turns out to hold under either composition order
    # (the relation set is closed under reversal); record the outcome rather
    # than asserting a failure, and only where some relation was checked
    if instances:
        family1 = all(inst["holds"] for inst in result["instances"] if inst["family"] == 1)
        instances.append({
            "key": "convention:composition-order",
            "chosen_order_family1_all_pass": family1,
            "opposite_order_family1_all_pass": result["opposite_order_family1_all_pass"],
            "pass": family1,
        })
    return make_report("mccool", {"n": n, "seed": seed}, instances)


def run_johnson(n=3, seed=0):
    """Depth-1 images of the named automorphisms recover the matching
    quadratic derivations, and depth-2 images of commutators match
    derivation brackets, across all conjugating pairs."""
    idx = range(1, n + 1)
    instances = []
    for i, j in permutations(idx, 2):
        image = johnson_image(conjugating_auto(n, i, j), 1)
        instances.append({
            "key": f"conjugating:{i}{j}",
            "pass": image == conjugating_derivation(n, i, j),
        })
    for i, (s, t) in product(idx, combinations(idx, 2)):
        if i in (s, t):
            continue
        image = johnson_image(commutator_auto(n, i, s, t), 1)
        instances.append({
            "key": f"commutator:{i}{s}{t}",
            "pass": image == commutator_derivation(n, i, s, t),
        })
    for (i, j), (i2, j2) in permutations(permutations(idx, 2), 2):
        alpha = conjugating_auto(n, i, j)
        beta = conjugating_auto(n, i2, j2)
        image = johnson_image(alpha.commutator(beta), 2)
        expected = der_bracket(conjugating_derivation(n, i, j),
                               conjugating_derivation(n, i2, j2))
        instances.append({
            "key": f"bracket:{i}{j}x{i2}{j2}",
            "pass": image == expected,
        })
    return make_report("johnson", {"n": n, "seed": seed}, instances)


def run_pairs(n=3, depth=3, seed=0):
    """Classification of every unordered pair of distinct conjugating
    automorphisms: abelian pairs must have an identically trivial commutator,
    the rest must produce nonzero matching certificates through the depth."""
    instances = []
    for first, second in combinations(permutations(range(1, n + 1), 2), 2):
        result = classify_pair(n, first, second, depth)
        if result["classification"] == "free-abelian":
            ok = result["commutator_trivial"]
        else:
            ok = result["all_nonzero"] and result["all_match"]
        instances.append({
            "key": f"pair:{first[0]}{first[1]}x{second[0]}{second[1]}",
            "classification": result["classification"],
            "pass": ok,
        })
    return make_report("pairs", {"n": n, "depth": depth, "seed": seed}, instances)


SUITES = {
    "equivariance": run_equivariance,
    "dimension": run_dimension,
    "spechtwever": run_spechtwever,
    "star-laws": run_star_laws,
    "operad": run_operad,
    "prop422": run_prop422,
    "lemma425": run_lemma425,
    "generation": run_generation,
    "mccool": run_mccool,
    "johnson": run_johnson,
    "pairs": run_pairs,
}
