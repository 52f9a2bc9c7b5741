"""Exact computer algebra for towers of graded superalgebras.

Builds nilCoxeter and wreath-product towers over exact rationals, equips
them with Frobenius structures, computes the twisted Hopf structures on
their projective and simple class modules, assembles the twisted Heisenberg
double with its Fock space, and verifies every axiom, sign rule and
identity of that calculus at finite truncation.

The package holds what the ``verify``, ``weyl`` and ``build`` commands run
(``supertower.cli``), plus the few entry points the acceptance criteria and
the README name; helpers that only tests use live with the tests.
"""

from .errors import (
    CocycleError,
    ExactDivisionError,
    InternalInconsistencyError,
    ModeError,
    SupertowerError,
    TruncationError,
    ValidationError,
)
from .ground import (
    COLLAPSED,
    FULL,
    GroundElem,
    TwistScalar,
    bar_involution,
    divide_exact,
    qpi_binomial,
    qpi_factorial,
    qpi_integer,
)
from .superalgebra import (
    AlgebraHom,
    Degree,
    SuperAlgebra,
    SuperModule,
    graded_dim,
    hom_graded_dim,
    induce_module,
    outer_tensor,
    regular_module,
    restrict_module,
    tensor_algebra,
    twist_module,
    validate_algebra,
)
from .frobenius import (
    FrobeniusStructure,
    check_dual_iso,
    check_frobenius,
    frobenius_tensor,
    tensor_nakayama_matrix,
)
from .towers import (
    TowerSpec,
    build_nilcoxeter,
    build_nilcoxeter_tower,
    build_wreath,
    build_wreath_tower,
    check_S2_dimensions,
    check_tower_axioms,
    check_wr_commutation,
    clifford_base,
    coset_reps,
    double_coset_size,
    double_coset_wr,
)
from .grothendieck import GrothLayer, GrothVector, K_SIDE, G_SIDE
from .heisenberg import (
    HeisenbergDouble,
    HeisenbergElem,
    TwistDataSet,
    categorified_weyl_shadow,
    check_action_compat,
    check_compatibility,
    check_faithfulness_truncated,
    derive_xi,
    weyl_check,
)

__version__ = "0.1.0"
