"""Per-layer trace of a verify run, installed from outside the library.

The library has no trace hooks of its own, so this module replaces the
public functions of each layer with timing wrappers before any tower is
built.  A function is rebound in every ``supertower`` module namespace that
holds it by name (``heisenberg`` imports ``induce_module`` directly, for
example), and methods are replaced on their class.  A target that no longer
exists raises at install time, so a renamed library function fails the
traced run instead of reading 0.

Spans are aggregated in memory: per span name its calls, total time and
self time (duration minus the time covered by child spans), and per
(caller span, span) edge its calls and total time.  ``Tracer.summary``
hands them to the harness, which writes them out once the run has ended.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute path, span name): calls and self time are recorded
SPANS = [
    ("cli", "build_tower", "cli.build_tower"),
    ("frobenius", "check_frobenius", "frobenius.check_frobenius"),
    ("frobenius", "nakayama_matrix", "frobenius.nakayama_matrix"),
    ("frobenius", "check_dual_iso", "frobenius.check_dual_iso"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "invert", "linalg.invert"),
    ("linalg", "Eliminator.add_row", "linalg.add_row"),
    ("superalgebra", "AlgebraHom.validate", "superalgebra.hom_validate"),
    ("superalgebra", "validate_automorphism", "superalgebra.validate_automorphism"),
    ("superalgebra", "induce_module", "superalgebra.induce_module"),
    ("superalgebra", "restrict_module", "superalgebra.restrict_module"),
    ("superalgebra", "hom_graded_dim", "superalgebra.hom_graded_dim"),
    ("towers", "check_tower_axioms", "towers.check_tower_axioms"),
    ("towers", "build_nilcoxeter", "towers.build_nilcoxeter"),
    ("towers", "build_wreath", "towers.build_wreath"),
    ("heisenberg", "categorified_weyl_shadow", "heisenberg.categorified_weyl_shadow"),
    ("heisenberg", "HeisenbergDouble.smash_multiply", "heisenberg.smash_multiply"),
    ("heisenberg", "HeisenbergDouble.fock_act", "heisenberg.fock_act"),
    ("grothendieck", "GrothLayer.basis_nabla", "grothendieck.basis_nabla"),
    ("grothendieck", "GrothLayer.basis_delta", "grothendieck.basis_delta"),
]

# (module, attribute path, counter name): calls are counted, no span
COUNTS = [
    ("superalgebra", "SuperAlgebra.basis_product", "superalgebra.basis_product.calls"),
    ("grothendieck", "GrothLayer.pairing", "grothendieck.pairing.calls"),
    ("towers", "TowerSpec._build_rho", "towers.rho.builds"),
    ("ground", "GroundElem.__init__", "ground.elem_new.calls"),
    ("ground", "GroundElem.__mul__", "ground.mul.calls"),
]

# memo dictionaries of GrothLayer; a call that leaves its size unchanged hit
CACHES = {"grothendieck.basis_nabla": "_nabla", "grothendieck.basis_delta": "_delta"}

PRODUCT_FILL = "superalgebra.product_fill"
SUITE_PREFIX = "cli.suite."


class Tracer:
    def __init__(self):
        self.stack: list[list] = [[None, 0.0]]  # [span name, time covered by children]
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple, list] = {}  # (caller, name) -> [calls, total_s]
        self.counts: Counter = Counter()

    def span(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges, clock = self.stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.spans.items())},
            "edges": [{"caller": c, "span": n, "calls": v[0], "total_s": v[1]}
                      for (c, n), v in sorted(self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "counts": dict(sorted(self.counts.items())),
        }


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if attr not in vars(owner):
        raise AttributeError(f"trace target {module.__name__}.{path} not found")
    return owner, attr, vars(owner)[attr]


def _library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "supertower" or name.startswith("supertower."))]


def _rebind(module, path: str, make) -> None:
    """Replace ``module.path`` by ``make(original)`` wherever it is bound."""
    owner, attr, orig = _resolve(module, path)
    wrapped = make(orig)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return
    for m in _library_modules():
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, wrapped)


def _probe_cache(tracer: Tracer, name: str, attr: str, fn):
    hits = f"{name}.hits"

    @functools.wraps(fn)
    def probe(self, *args, **kwargs):
        cache = getattr(self, attr)
        size = len(cache)
        out = fn(self, *args, **kwargs)
        if len(cache) == size:
            tracer.counts[hits] += 1
        return out

    return probe


def _observe_add_row(tracer: Tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def add_row(self, row):
        counts["linalg.add_row.nnz_in"] += len(row)
        gained = fn(self, row)
        if gained:
            counts["linalg.add_row.rank_gains"] += 1
        return gained

    return add_row


def install() -> Tracer:
    """Wrap every trace target; call after importing ``supertower.cli``."""
    tracer = Tracer()
    mods = {name: importlib.import_module(f"supertower.{name}")
            for name in ("cli", "frobenius", "linalg", "superalgebra", "towers",
                         "heisenberg", "grothendieck", "ground")}
    originals = []
    for mod, path, name in SPANS:
        originals.append(_resolve(mods[mod], path)[2])

        def make(fn, name=name):
            if name in CACHES:
                fn = _probe_cache(tracer, name, CACHES[name], fn)
            if name == "linalg.add_row":
                fn = _observe_add_row(tracer, fn)
            return tracer.span(name, fn)

        _rebind(mods[mod], path, make)
    for mod, path, name in COUNTS:
        originals.append(_resolve(mods[mod], path)[2])
        _rebind(mods[mod], path, lambda fn, name=name: tracer.counter(name, fn))

    # Fraction.__new__ is looked up on the class, so one replacement counts
    # every Fraction the process creates, inside the library or not.
    frac_new = fractions.Fraction.__new__

    def fraction_new(cls, *args, **kwargs):
        tracer.counts["linalg.fraction_new.calls"] += 1
        return frac_new(cls, *args, **kwargs)

    fractions.Fraction.__new__ = staticmethod(fraction_new)

    # A lazy product table is filled through the product_fn closure each
    # algebra keeps, so fills are wrapped per instance as algebras are made.
    alg_cls = mods["superalgebra"].SuperAlgebra
    alg_init = alg_cls.__init__

    @functools.wraps(alg_init)
    def algebra_init(self, *args, **kwargs):
        alg_init(self, *args, **kwargs)
        fill = vars(self)["_product_fn"]  # KeyError if the library renames it
        if fill is not None:
            self._product_fn = tracer.span(PRODUCT_FILL, fill)

    alg_cls.__init__ = algebra_init
    tracer.spans.setdefault(PRODUCT_FILL, [0, 0.0, 0.0])  # reported even if nothing fills

    runners = mods["cli"].SUITE_RUNNERS
    for suite, fn in list(runners.items()):
        runners[suite] = tracer.span(SUITE_PREFIX + suite, fn)

    for m in _library_modules():
        for key, value in vars(m).items():
            if any(value is o for o in originals):
                raise RuntimeError(f"{m.__name__}.{key} still holds an unwrapped trace target")
    return tracer
