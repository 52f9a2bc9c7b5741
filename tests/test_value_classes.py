"""The library's value and record classes against the dataclasses they replaced.

``Degree``, ``TwistScalar`` and ``TwistDataSet`` are compared with frozen
dataclass copies declared here: equality, hash, dictionary keys,
normalisation and ``repr``.  They and ``GroundElem``, whose ``one()`` and
``zero()`` are shared instances, refuse assignment and deletion.  The
mutable records compare by fields, stay unhashable and get fresh
containers per instance.
"""

import dataclasses
import itertools
import os
import subprocess
import sys

import pytest

from supertower import cli, grothendieck, ground, heisenberg, reporting, superalgebra, towers
from supertower.towers import build_nilcoxeter_tower, build_wreath_tower, clifford_base


# -- the frozen dataclasses the value types replaced; same names, so the same repr


@dataclasses.dataclass(frozen=True)
class Degree:
    z: int
    par: int

    def __post_init__(self):
        object.__setattr__(self, "par", self.par & 1)


@dataclasses.dataclass(frozen=True)
class TwistScalar:
    d: int
    eps: int

    def __post_init__(self):
        object.__setattr__(self, "eps", self.eps & 1)


@dataclasses.dataclass(frozen=True)
class TwistDataSet:
    c: TwistScalar
    chi: tuple
    gamma: tuple
    xi: tuple = dataclasses.field(init=False)
    compatible: bool = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "xi", heisenberg.derive_xi(self.chi, self.gamma))
        object.__setattr__(self, "compatible", heisenberg.check_compatibility(self))


def _twist_data(scalar, data_set):
    return lambda c, chi, gamma: data_set(scalar(*c), chi, gamma)


INTS = (-3, -1, 0, 1, 2, 5)
PAIRS = list(itertools.product((-1, 0, 1), repeat=2))

# kind -> (library constructor, dataclass constructor, argument tuples)
VALUE_TYPES = {
    "Degree": (superalgebra.Degree, Degree, list(itertools.product(INTS, INTS))),
    "TwistScalar": (ground.TwistScalar, TwistScalar, list(itertools.product(INTS, INTS))),
    "TwistDataSet": (_twist_data(ground.TwistScalar, heisenberg.TwistDataSet),
                     _twist_data(TwistScalar, TwistDataSet),
                     list(itertools.product(((1, 0), (1, 1), (1, 3)), PAIRS, PAIRS))),
}


@pytest.mark.parametrize("kind", sorted(VALUE_TYPES))
def test_value_types_match_their_dataclasses(kind):
    make, make_ref, arg_list = VALUE_TYPES[kind]
    libs = [make(*args) for args in arg_list]
    refs = [make_ref(*args) for args in arg_list]
    names = [f.name for f in dataclasses.fields(refs[0])]
    assert list(type(libs[0]).__slots__) == names
    for lib, ref in zip(libs, refs):
        # normalisation and derived fields: every field reads as in the dataclass
        assert [repr(getattr(lib, f)) for f in names] == [repr(getattr(ref, f)) for f in names]
        assert repr(lib) == repr(ref)
        assert hash(lib) == hash(ref)
        assert lib != ref and ref != lib  # different classes never compare equal
    for i, j in itertools.product(range(len(libs)), repeat=2):
        assert (libs[i] == libs[j]) == (refs[i] == refs[j])
        assert (libs[i] != libs[j]) == (refs[i] != refs[j])
    keys = {lib: k for k, lib in enumerate(libs)}
    ref_keys = {ref: k for k, ref in enumerate(refs)}
    assert len(keys) == len(ref_keys) < len(arg_list)  # normalisation merges keys
    for args in arg_list:
        assert keys[make(*args)] == ref_keys[make_ref(*args)]


FROZEN_WRITES = "\n".join([
    "from supertower.ground import TwistScalar",
    "from supertower.heisenberg import TwistDataSet",
    "from supertower.superalgebra import Degree",
    "values = [Degree(1, 1), TwistScalar(1, 1), TwistDataSet(TwistScalar(1, 0), (0, 1), (0, 1))]",
    "for v in values:",
    "    for field in (*type(v).__slots__, 'other'):",
    "        for write in (lambda: setattr(v, field, 0), lambda: delattr(v, field)):",
    "            try:",
    "                write()",
    "            except AttributeError:",
    "                continue",
    "            print('changed', type(v).__name__, field)",
    "print(values)",
])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_value_types_refuse_assignment(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", FROZEN_WRITES],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("[Degree(z=1, par=1), TwistScalar(d=1, eps=1), "
                           "TwistDataSet(c=TwistScalar(d=1, eps=0), chi=(0, 1), gamma=(0, 1), "
                           "xi=(-1, 0), compatible=True)]\n")


GROUND_DELETES = "\n".join([
    "from supertower.ground import COLLAPSED, FULL, GroundElem",
    "elems = [GroundElem({(1, 1): 2}, FULL), GroundElem({(1, 0): 3}, COLLAPSED)]",
    "elems += [make(mode) for make in (GroundElem.one, GroundElem.zero) for mode in (FULL, COLLAPSED)]",
    "for e in elems:",
    "    for field in ('terms', 'mode'):",
    "        try:",
    "            delattr(e, field)",
    "        except AttributeError:",
    "            continue",
    "        print('deleted', field)",
    "print(GroundElem.one(FULL) * GroundElem.one(FULL))",
])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_ground_elements_refuse_deletion(flags):
    # one() and zero() are shared per mode: a deleted field would break every later use
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", GROUND_DELETES],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


# -- mutable records: equal by fields and unhashable, like a dataclass with eq


def _record_args(alg, module):
    """Constructor arguments per class; every call builds fresh containers."""
    one = ground.GroundElem.one()
    return {
        reporting.CheckRecord: ("t:c", (1,), False, "1 + q", "0", "x"),
        grothendieck.GrothVector: ("G", {(1, 0): one}),
        heisenberg.HeisenbergElem: ({((1, 0), (0, 0)): one},),
        superalgebra.ValidationReport: ("alg", [("associativity", (0, 1, 2))]),
        cli.RunConfig: ({"nilcoxeter": {"n_max": 2}}, ["axioms"], 2, "json", "out", True),
        cli.Report: ([reporting.CheckRecord("a", (), True)],),
        towers.DeclaredModule: ("P1", module, "Q"),
        towers.TowerSpec: ("t", "nilcoxeter", 1, [alg], [None], ground.TwistScalar(1, 1),
                           (0, 1), (0, 1), 1, [(0, 0), (1, 1)], [None, None], None),
    }


def test_mutable_records_compare_by_fields():
    alg = clifford_base().algebra
    module = superalgebra.regular_module(alg)
    first, second = _record_args(alg, module), _record_args(alg, module)
    assert sorted(cls.__name__ for cls in first) == [
        "CheckRecord", "DeclaredModule", "GrothVector", "HeisenbergElem", "Report",
        "RunConfig", "TowerSpec", "ValidationReport"]
    for cls, args in first.items():
        a, b = cls(*args), cls(*second[cls])
        assert a == b and not (a != b), cls.__name__
        assert a != object()
        with pytest.raises(TypeError):
            hash(a)
        for k in range(len(args)):
            other = list(args)
            other[k] = object()
            assert cls(*other) != a, (cls.__name__, k)


def test_run_config_takes_keywords():
    cfg = cli.RunConfig(descriptor={"nilcoxeter": {"n_max": 2}}, suites=["axioms"])
    assert (cfg.n_max, cfg.fmt, cfg.out, cfg.general_shift) == (None, "text", None, False)
    assert cfg == cli.RunConfig({"nilcoxeter": {"n_max": 2}}, ["axioms"])


def test_default_containers_are_fresh_per_instance():
    pairs = [
        (grothendieck.GrothVector("G"), grothendieck.GrothVector("G"), ("entries",)),
        (heisenberg.HeisenbergElem(), heisenberg.HeisenbergElem(), ("terms",)),
        (cli.Report(), cli.Report(), ("records", "elapsed")),
    ]
    caches = ("_rho", "_pair_algebras", "_level_dims", "simples", "projectives")
    for build in (lambda: build_nilcoxeter_tower(2, 1, 1),
                  lambda: build_wreath_tower(clifford_base(), 2)):
        pairs.append((build(), build(), caches))
    for a, b, names in pairs:
        for name in names:
            assert getattr(a, name) is not getattr(b, name), (type(a).__name__, name)
    tower, other = pairs[-1][:2]
    tower.rho(1, 1)
    tower.level_graded_dim(1)
    assert not other._rho and not other._level_dims and not other._pair_algebras
