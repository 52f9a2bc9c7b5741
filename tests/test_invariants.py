"""Cross-module invariants at the bounds the per-module contracts state."""

import ast
import glob
import os
import subprocess
import sys

import pytest

from supertower.errors import CocycleError
from supertower.ground import GroundElem
from supertower.grothendieck import G_SIDE, K_SIDE
from supertower.superalgebra import graded_dim, regular_module, validate_algebra
from supertower.towers import SignedPermBasis, build_nilcoxeter, tower_pairing_entry

from support import shift_module


def test_graded_dim_shift_law():
    alg, _ = build_nilcoxeter(3, 1, 1)
    m = regular_module(alg)
    base = graded_dim(m)
    for (n, s) in [(2, 0), (0, 1), (-1, 1), (3, 1)]:
        assert graded_dim(shift_module(m, n, s)) == GroundElem.monomial(n, s) * base


def test_level6_associativity_generator_leading():
    """Associativity audit at six strands.

    Checking ``(u_g a) b == u_g (a b)`` for every generator ``g`` and all
    basis pairs implies full associativity: any basis element is the
    left-associated product along its canonical word, so the general triple
    reduces to generator-leading ones by induction on length.
    """
    from fractions import Fraction

    alg, basis = build_nilcoxeter(6, 1, 1)
    gens = alg.generating_set()
    one = Fraction(1)
    dim = alg.dim
    for g in gens:
        for a in range(dim):
            ga = alg.basis_product(g, a)
            for b in range(dim):
                lhs = alg.product_vec(ga, {b: one})
                rhs = alg.product_vec({g: one}, alg.basis_product(a, b))
                assert lhs == rhs, (g, a, b)


def test_pairing_perfect_levelwise(layer6_11):
    for n in range(7):
        (proj,), (simple,) = layer6_11.declared(K_SIDE, n), layer6_11.declared(G_SIDE, n)
        assert tower_pairing_entry(layer6_11.tower, proj, simple).is_unit()


def test_coassociativity_to_level_six(layer6_11):
    for side in (G_SIDE, K_SIDE):
        for n in range(7):
            d = layer6_11.basis_delta(side, (n, 0))
            lhs, rhs = {}, {}
            for ((ka, kb), c) in d.items():
                for ((k1, k2), c2) in layer6_11.basis_delta(side, ka).items():
                    key = (k1, k2, kb)
                    lhs[key] = lhs.get(key, layer6_11.zero()) + c * c2
                for ((k1, k2), c2) in layer6_11.basis_delta(side, kb).items():
                    key = (ka, k1, k2)
                    rhs[key] = rhs.get(key, layer6_11.zero()) + c * c2
            assert {k: v for k, v in lhs.items() if not v.is_zero()} == \
                {k: v for k, v in rhs.items() if not v.is_zero()}


def test_product_associativity_to_level_six(layer6_11):
    for side in (G_SIDE, K_SIDE):
        for a in range(1, 5):
            for b in range(1, 5):
                for c in range(1, 5):
                    if a + b + c > 6:
                        continue
                    va = layer6_11.basis_vector(side, a, 0)
                    vb = layer6_11.basis_vector(side, b, 0)
                    vc = layer6_11.basis_vector(side, c, 0)
                    assert layer6_11.nabla(layer6_11.nabla(va, vb), vc) == \
                        layer6_11.nabla(va, layer6_11.nabla(vb, vc))


def test_power_invariance_to_level_eight():
    from supertower.grothendieck import GrothLayer
    from supertower.heisenberg import HeisenbergDouble, _ring_multiple
    from supertower.towers import build_nilcoxeter_tower
    tower = build_nilcoxeter_tower(8, 1, 0, frobenius_cap=0)
    dbl = HeisenbergDouble(GrothLayer(tower))
    layer = dbl.layer
    x1, y1 = layer.basis_vector(K_SIDE, 1, 0), layer.basis_vector(G_SIDE, 1, 0)
    prev = layer.unit_vector(G_SIDE)
    for n in range(1, 9):
        power = layer.nabla(prev, y1)
        assert _ring_multiple(dbl.regular_action(x1, power), prev, (n - 1, 0))
        prev = power


# each snippet breaks one invariant on purpose; the guard must raise
# InternalInconsistencyError with and without ``python -O``
FORCED_INVARIANTS = "\n".join([
    "import random",
    "from fractions import Fraction",
    "from supertower.errors import InternalInconsistencyError",
    "from supertower.grothendieck import module_head_genfn",
    "from supertower.linalg import Mat",
    "from supertower.superalgebra import Degree, SuperModule",
    "from supertower.towers import (",
    "    SignedPermBasis, WreathBasis, apply_s, build_nilcoxeter, build_wreath, clifford_base,",
    "    identity_perm)",
    "def forced(label, fn):",
    "    try:",
    "        fn()",
    "    except InternalInconsistencyError as exc:",
    "        print(label, type(exc).__name__)",
    "    else:",
    "        print(label, 'not raised')",
    # one flipped sign of u_k u_j for a seeded distant pair breaks the commutation
    "init = SignedPermBasis.__init__",
    "def flipped(self, n, d, eps):",
    "    init(self, n, d, eps)",
    "    distant = [(k, j) for k in range(n - 1) for j in range(n - 1) if abs(k - j) > 1]",
    "    k, j = random.Random(13).choice(distant)",
    "    i = self.index[apply_s(identity_perm(n), j)]",
    "    sign, tgt = self._left[k][i]",
    "    self._left[k][i] = (-sign, tgt)",
    "SignedPermBasis.__init__ = flipped",
    "forced('table', lambda: build_nilcoxeter(4, 1, 1))",
    "SignedPermBasis.__init__ = init",
    # one flipped sign of a seeded entry of the Clifford level-3 act table
    "wreath_init = WreathBasis.__init__",
    "def act_flipped(self, base, n):",
    "    wreath_init(self, base, n)",
    "    p = random.Random(13).randrange(len(self.act))",
    "    sign, u = self.act[p][0]",
    "    self.act[p][0] = (-sign, u)",
    "WreathBasis.__init__ = act_flipped",
    "cl = clifford_base()",
    "forced('act', lambda: build_wreath(cl, WreathBasis(cl.algebra, 3)))",
    "WreathBasis.__init__ = wreath_init",
    # u_0 sends the degree-zero vector into two different degrees
    "alg, _ = build_nilcoxeter(2, 1, 1)",
    "gen = alg.generating_set()[0]",
    "unit = next(iter(alg.unit))",
    "degrees = [Degree(0, 0), Degree(1, 1), Degree(1, 0)]",
    "action = {unit: Mat.identity(3), gen: Mat(3, 3, {0: {1: 1, 2: 1}})}",
    "mod = SuperModule(alg, degrees, action=action)",
    "forced('head', lambda: module_head_genfn(mod))",
])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_forced_invariants_raise(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", FORCED_INVARIANTS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "table CocycleError\nact CocycleError\nhead InternalInconsistencyError\n"


def test_every_single_table_flip_is_rejected(monkeypatch):
    """Each sign of the n = 4 table, flipped alone, fails the build's certificate,
    and so does a doubled sign at n = 5.

    ``validate_algebra`` agrees that none of the flipped tables is associative.
    """
    init = SignedPermBasis.__init__
    for eps in (0, 1):
        entries = [(k, i) for k, row in enumerate(SignedPermBasis(4, 1, eps)._left)
                   for i, step in enumerate(row) if step is not None]
        assert len(entries) == 36
        for k, i in entries:
            def flipped(self, n, d, eps, k=k, i=i):
                init(self, n, d, eps)
                sign, tgt = self._left[k][i]
                self._left[k][i] = (-sign, tgt)

            monkeypatch.setattr(SignedPermBasis, "__init__", flipped)
            with pytest.raises(CocycleError):
                build_nilcoxeter(4, 1, eps)
            monkeypatch.setattr(SignedPermBasis, "__init__", init)
            # products are read off the table lazily, so flipping a built
            # table in place hands the flipped product to the oracle
            alg, basis = build_nilcoxeter(4, 1, eps)
            sign, tgt = basis._left[k][i]
            basis._left[k][i] = (-sign, tgt)
            assert not validate_algebra(alg).ok, (eps, k, i)
    # a sign of 2 in the n = 5 table, away from the first-letter entries
    basis = SignedPermBasis(5, 1, 1)
    k, i = next((k, i) for k, row in enumerate(basis._left) for i, step in enumerate(row)
                if step is not None and basis.words[basis.perms[step[1]]][0] != k)

    def doubled(self, n, d, eps):
        init(self, n, d, eps)
        sign, tgt = self._left[k][i]
        self._left[k][i] = (2 * sign, tgt)

    monkeypatch.setattr(SignedPermBasis, "__init__", doubled)
    with pytest.raises(CocycleError):
        build_nilcoxeter(5, 1, 1)


# each snippet misuses a library entry point; the guard must raise ValueError
# with and without ``python -O``
MISUSES = "\n".join([
    "from supertower.ground import GroundElem, _poly_divmod",
    "from supertower.grothendieck import G_SIDE, K_SIDE, GrothLayer, check_psi_invariance",
    "from supertower.heisenberg import HeisenbergDouble",
    "from supertower.linalg import Mat",
    "from supertower.superalgebra import (",
    "    RIGHT, AlgebraHom, Degree, SuperAlgebra, SuperModule, hom_graded_dim,",
    "    induce_module, outer_tensor, regular_module, restrict_module)",
    "from supertower.towers import (",
    "    build_nilcoxeter_tower, check_nakayama_closed_form, clifford_base, trivial_level_algebra)",
    "from support import cartan_map, identity_hom",
    "def misuse(label, fn):",
    "    try:",
    "        fn()",
    "    except ValueError:",
    "        print(label, 'ValueError')",
    "    else:",
    "        print(label, 'not raised')",
    "cl, k = clifford_base().algebra, trivial_level_algebra()",
    "phi = identity_hom(cl)",
    "left, other = regular_module(cl), regular_module(k)",
    "right = SuperModule(cl, cl.degrees, action={i: Mat.identity(2) for i in range(2)}, side=RIGHT)",
    "misuse('labels', lambda: SuperAlgebra(['1', 'x'], [Degree(0, 0)], {0: 1}))",
    "misuse('images', lambda: AlgebraHom(cl, cl, [{0: 1}]))",
    "misuse('hom algebras', lambda: hom_graded_dim(left, other))",
    "misuse('hom sides', lambda: hom_graded_dim(right, right))",
    "misuse('outer sides', lambda: outer_tensor(left, right))",
    "misuse('restrict side', lambda: restrict_module(phi, right))",
    "misuse('restrict algebra', lambda: restrict_module(phi, other))",
    "misuse('induce side', lambda: induce_module(phi, right))",
    "misuse('induce algebra', lambda: induce_module(phi, other))",
    "misuse('eval_pi', lambda: GroundElem({(0, 1): 1}).eval_pi(2))",
    "misuse('divmod', lambda: _poly_divmod([1, 2, 1], [1, 2]))",
    # a K vector where a G vector belongs, or the other way round
    "tower = build_nilcoxeter_tower(2, 1, 1, frobenius_cap=0)",
    "layer = GrothLayer(tower)",
    "dbl = HeisenbergDouble(layer)",
    "kv, gv = layer.basis_vector(K_SIDE, 1, 0), layer.basis_vector(G_SIDE, 1, 0)",
    "misuse('groth add', lambda: kv.add(gv))",
    "misuse('nabla sides', lambda: layer.nabla(kv, gv))",
    "misuse('pairing sides', lambda: layer.pairing(gv, kv))",
    "misuse('cartan side', lambda: cartan_map(layer, gv))",
    "misuse('regular action sides', lambda: dbl.regular_action(gv, kv))",
    "misuse('fock side', lambda: dbl.fock_act(dbl.unit(), kv))",
    "misuse('nakayama data', lambda: check_nakayama_closed_form(tower, 1))",
    "misuse('psi data', lambda: check_psi_invariance(layer, 1))",
])


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_misuse_raises(flags):
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(here, os.pardir, "src"), here]))
    proc = subprocess.run([sys.executable, *flags, "-c", MISUSES],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    labels = ["labels", "images", "hom algebras", "hom sides", "outer sides", "restrict side",
              "restrict algebra", "induce side", "induce algebra", "eval_pi", "divmod",
              "groth add", "nabla sides", "pairing sides", "cartan side", "regular action sides",
              "fock side", "nakayama data", "psi data"]
    assert proc.stdout == "".join(f"{label} ValueError\n" for label in labels)


def test_no_bare_asserts_in_the_library():
    # python -O strips assert statements, so no invariant may rest on one
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                          "src", "supertower", "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(path: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` imports aside)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{os.path.basename(path)}:{line} {name}"
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # the package modules (``__init__.py`` re-exports by importing) and the tests
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, os.pardir, "src", "supertower")
    paths = [p for p in sorted(glob.glob(os.path.join(src, "*.py")))
             if os.path.basename(p) != "__init__.py"]
    paths += sorted(glob.glob(os.path.join(here, "*.py")))
    assert os.path.abspath(__file__) in paths
    assert [p for path in paths for p in _unused_imports(path)] == []


def test_cli_import_leaves_out_dataclasses_inspect_and_typing():
    # every verify starts a fresh interpreter, and these three cost most of the
    # import; -S keeps site hooks (a .pth file may import typing) from hiding one
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import supertower.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-E", "-c", code, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# library definitions that no other part of the package reads: each is API the
# acceptance criteria import or the README names, which no verify, weyl or build
# run reaches
UNREFERENCED_API = {
    "frobenius_tensor": "acceptance criterion 4 builds the tensor structure",
    "GrothLayer.class_in_G": "acceptance criterion 13 expands a module in simples",
    "GrothLayer.restriction_multiplicity_genfn": "acceptance criterion 9; the README names it",
    "bar_involution": "acceptance criterion 9 bars the binomial",
    "qpi_factorial": "acceptance criterion 1, the graded dimension law",
    "qpi_binomial": "acceptance criterion 9, the coproduct coefficients",
    "divide_by_int": "acceptance criterion 13 halves a collapsed class",
    "all_passed": "the acceptance criteria fold their records with it",
}


def _unreferenced_definitions(paths: list[str]) -> list[str]:
    """Top-level functions and classes, and non-dunder methods, whose name no
    ``Name`` or ``Attribute`` node outside their own body reads."""
    trees = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), filename=path)
    reads: dict[str, list[tuple[str, int]]] = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                reads.setdefault(node.id if isinstance(node, ast.Name) else node.attr,
                                 []).append((name, node.lineno))
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)
                         and not (sub.name.startswith("__") and sub.name.endswith("__"))]
            for qualname, d in defs:
                if all(where == name and d.lineno <= line <= d.end_lineno
                       for where, line in reads.get(d.name, ())):
                    found.append(qualname)
    return found


def test_no_unreferenced_definitions():
    # code that only the tests call lives in the tests; ``__init__.py`` only re-exports
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "supertower")
    paths = [p for p in sorted(glob.glob(os.path.join(src, "*.py")))
             if os.path.basename(p) != "__init__.py"]
    assert paths
    assert sorted(_unreferenced_definitions(paths)) == sorted(UNREFERENCED_API)
