"""Outside-in layer tracer for the benchmark's traced runs.

The tracer wraps public entry points of each schurlie layer from outside the
package, so the program itself stays untouched.  Each wrapped call that
crosses into another layer opens a span; a call within the layer already
running only counts.  At every span boundary the time since the last one is
charged to the layer that was running, so a layer's self time is its spans'
duration minus the time its child spans in other layers cover, and the self
times plus the unattributed time (cli, suites, JSON) add up to the traced
wall time.

Only public names are touched.  A listed name that the package no longer
has is recorded in ``Tracer.absent`` and its counters read zero: the
roadmap plans to delete or merge some of them (one of the two SNFs, the
rational rref family, ``tilde_of``).

Accessors such as ``coeff``, ``is_zero`` or ``items`` are left unwrapped on
purpose: wrapping them made traced runs several times slower and shifted
their callers' time into ``words``.  Their time stays with the caller.
"""

import functools
import importlib
import inspect
import math
import sys
import time

PACKAGE = "schurlie"
LAYERS = ("words", "freelie", "schur", "transfer", "derivations", "linalg",
          "freegroup")

# Entry points per layer: functions and methods that other layers or the
# suites call, constructors and arithmetic.
ENTRY_POINTS = {
    "words": [
        "TensorElement.__init__", "TensorElement.__add__",
        "TensorElement.__sub__", "TensorElement.__neg__",
        "TensorElement.scale", "TensorElement.act", "tensor_product",
    ],
    "freelie": [
        "LieElement.__init__", "LieElement.__add__", "LieElement.__sub__",
        "LieElement.__neg__", "LieElement.scale", "embed", "embed_monomial",
        "decompose", "normalize", "lie_bracket", "specht_wever",
        "lyndon_words", "lyndon_basis", "lyndon_bracketing", "zero_lie",
        "generator", "witt_dimension", "bracketing_function",
    ],
    "schur": [
        "SchurElement.__init__", "SchurElement.__add__",
        "SchurElement.__sub__", "SchurElement.__neg__", "SchurElement.scale",
        "SchurElement.column", "SchurElement.apply_word", "SchurElement.apply",
        "SchurElement.column_map", "SchurElement.compose", "basis",
        "basis_dimension_formula", "orbit_keys", "orbit_data_of_column",
        "apply_to_lie", "schur_is_equivariant", "is_equivariant",
        "equivariant_basis_bruteforce", "decompose_in_basis",
        "letter_substitution",
    ],
    "transfer": [
        "transfer", "star", "boxtimes", "operad_compose", "coset_transversal",
        "transversal_by_product", "random_transversal", "is_left_transversal",
        "GradedSchurElement.__init__", "GradedSchurElement.__add__",
    ],
    "derivations": [
        "Derivation.__init__", "Derivation.__add__", "Derivation.__sub__",
        "Derivation.__neg__", "Derivation.scale", "apply_derivation",
        "der_bracket", "schur_act", "find_annihilating_schur",
        "schur_closure_rank", "generator_derivation", "conjugating_derivation",
        "commutator_derivation", "mtilde_generators", "gamma_generators",
        "derivation_to_vector", "derivation_from_vector",
    ],
    "linalg": [
        "IntegerLattice.__init__", "IntegerLattice.add",
        "IntegerLattice.contains", "IntegerLattice.elementary_divisors",
        "smith_normal_form", "snf_with_transforms", "solve_integer", "rref",
        "rank", "nullspace", "solve",
    ],
    "freegroup": [
        "reduce_word", "word_mul", "word_inv", "word_commutator",
        "EndoOnFree.__init__", "EndoOnFree.compose", "AutPair.__init__",
        "AutPair.inverse", "AutPair.__mul__", "AutPair.commutator",
        "conjugating_auto", "commutator_auto", "verify_mccool",
        "MagnusSeries.__init__", "MagnusSeries.__mul__", "magnus",
        "johnson_image", "tilde_of", "classify_pair",
    ],
}

# Calls whose every duration is kept, for inclusive-time metrics.
TIMED = {"derivations.schur_closure_rank", "derivations.find_annihilating_schur"}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Per-layer self time and counters of one traced process."""

    def __init__(self):
        self.layer = None  # None is time inside no layer
        self.self_s = dict.fromkeys((None,) + LAYERS, 0.0)
        self.counts = {}  # key -> one-element list, cheaper to bump than a dict
        self.durations = {name: [] for name in TIMED}
        self.terms_built = 0
        self.decompose_terms = 0
        self.column_hits = 0
        self.transversal_terms = 0
        self.lattice_grew = 0
        self.snf_cells = 0
        self.absent = []
        self.mark = self.started = self.stopped = time.perf_counter()

    # -- time accounting ----------------------------------------------------

    def _switch(self, layer):
        """Charge the time since the last switch to the running layer."""
        now = time.perf_counter()
        self.self_s[self.layer] += now - self.mark
        self.mark = now
        self.layer = layer

    def start(self):
        """Zero the clocks; everything until stop() is traced time."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        self.layer = None
        self.mark = self.started = time.perf_counter()

    def stop(self):
        self._switch(None)
        self.stopped = self.mark
        return self.stopped - self.started

    def calls(self, key):
        return self.counts[key][0] if key in self.counts else 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer, key):
        count = self.counts[key] = [0]
        observe = self._observer(key)
        self_s = self.self_s
        clock = time.perf_counter

        # The caller's layer lives in the wrapper's frame, so spans need no
        # stack; the switch is inlined because it runs millions of times.
        if observe is None:
            def wrapper(*args, **kwargs):
                count[0] += 1
                outer = self.layer
                if outer == layer:
                    return fn(*args, **kwargs)
                now = clock()
                self_s[outer] += now - self.mark
                self.mark, self.layer = now, layer
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = clock()
                    self_s[layer] += now - self.mark
                    self.mark, self.layer = now, outer
        else:
            def wrapper(*args, **kwargs):
                count[0] += 1
                outer = self.layer
                if outer == layer:
                    return observe(fn, args, kwargs)
                self._switch(layer)
                try:
                    return observe(fn, args, kwargs)
                finally:
                    self._switch(outer)

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):  # keep lru_cache's API
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _observer(self, key):
        """Counter hook for the calls that feed a derived metric."""
        if key == "words.TensorElement.__init__":
            def observe(fn, args, kwargs):
                coeffs = _arg(args, kwargs, 2, "coeffs")
                if coeffs:
                    self.terms_built += len(coeffs)
                return fn(*args, **kwargs)
        elif key == "freelie.decompose":
            def observe(fn, args, kwargs):
                self.decompose_terms += len(_arg(args, kwargs, 1, "t"))
                return fn(*args, **kwargs)
        elif key == "schur.SchurElement.column":
            # words is wrapped before schur, so its counter exists by now
            inits = self.counts.get("words.TensorElement.__init__")

            def observe(fn, args, kwargs):
                # a cache miss builds the column's tensor; a hit builds none
                before = inits[0] if inits else None
                result = fn(*args, **kwargs)
                if before is not None and inits[0] == before:
                    self.column_hits += 1
                return result
        elif key == "transfer.transfer":
            def observe(fn, args, kwargs):
                result = fn(*args, **kwargs)
                parts = tuple(_arg(args, kwargs, 0, "parts"))
                transversal = _arg(args, kwargs, 2, "transversal")
                d = sum(parts)
                size = (len(transversal) if transversal is not None else
                        math.factorial(d) // math.prod(map(math.factorial, parts)))
                self.transversal_terms += math.comb(result.n + d - 1, d) * size
                return result
        elif key == "linalg.IntegerLattice.add":
            def observe(fn, args, kwargs):
                grew = fn(*args, **kwargs)
                self.lattice_grew += bool(grew)
                return grew
        elif key in ("linalg.smith_normal_form", "linalg.snf_with_transforms"):
            def observe(fn, args, kwargs):
                rows = _arg(args, kwargs, 0, "rows")
                if rows:
                    self.snf_cells += len(rows) * len(rows[0])
                return fn(*args, **kwargs)
        elif key in TIMED:
            durations = self.durations[key]

            def observe(fn, args, kwargs):
                started = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    durations.append(time.perf_counter() - started)
        else:
            return None
        return observe

    def install(self):
        """Wrap every listed entry point that the imported package has."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, names in ENTRY_POINTS.items():
            # the package re-exports the function `transfer` under the
            # module's name, so modules are looked up, not attributes
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = inspect.getattr_static(owner, attr, None) if owner else None
                if not inspect.isfunction(fn) and not hasattr(fn, "cache_info"):
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(fn, layer, key)
                if owner_name:
                    # also rebind aliases such as `__rmul__ = scale`
                    for alias, value in list(vars(owner).items()):
                        if value is fn:
                            setattr(owner, alias, wrapper)
                else:
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is fn:
                                setattr(ns, alias, wrapper)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, named `<layer>.<metric>`."""
        c = self.calls
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        columns = c("schur.SchurElement.column")
        adds = c("linalg.IntegerLattice.add")
        solver = sorted(self.durations["derivations.find_annihilating_schur"])
        out.update({
            "words.tensor_inits": c("words.TensorElement.__init__"),
            "words.terms_built": self.terms_built,
            "freelie.decompose_calls": c("freelie.decompose"),
            "freelie.decompose_terms": self.decompose_terms,
            "schur.apply_calls": c("schur.SchurElement.apply"),
            "schur.apply_word_calls": c("schur.SchurElement.apply_word"),
            "schur.column_hit_ratio": self.column_hits / columns if columns else 0.0,
            "transfer.transfer_calls": c("transfer.transfer"),
            "transfer.transversal_terms": self.transversal_terms,
            "derivations.der_bracket_calls": c("derivations.der_bracket"),
            "derivations.closure_s": sum(
                self.durations["derivations.schur_closure_rank"]),
            "derivations.solver_s": _quantile(solver, 0.5),
            "derivations.solver_p90_s": _quantile(solver, 0.9),
            "linalg.lattice_adds": adds,
            "linalg.lattice_grow_ratio": self.lattice_grew / adds if adds else 0.0,
            "linalg.snf_calls": (c("linalg.smith_normal_form")
                                 + c("linalg.snf_with_transforms")),
            "linalg.snf_cells": self.snf_cells,
            "freegroup.series_muls": c("freegroup.MagnusSeries.__mul__"),
            "freegroup.endo_composes": c("freegroup.EndoOnFree.compose"),
            "freegroup.johnson_images": c("freegroup.johnson_image"),
            "trace.unattributed_s": self.self_s[None],
            "trace.verify_s": self.stopped - self.started,
        })
        return out


def _quantile(ordered, share):
    """Nearest-rank quantile of a sorted list; 0.0 when it is empty."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, math.ceil(share * len(ordered)) - 1)]
