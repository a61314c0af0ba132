"""Exact computation of crystal energies and loop symmetric functions.

The package has five layers:

    tableaux    partitions, skew shapes, SSYT enumeration, jeu de taquin
    crystal     single-row crystals, R-matrix, coenergy, intrinsic and
                tropical staircase energy
    lsym        colored polynomials: loop e/h/tau/sigma, loop Schur
                functions, banded staircase matrix indices, tropical evaluation
    birational  exact rational kappa, the birational R-action, rational
                energy, and the R-action identities over any semifield
    verify/cli  identity suites and the command line front end
"""

from .birational import (
    RationalPoint,
    kappa,
    r_action_identities,
    random_point,
    rational_energy_global,
    rational_energy_product,
    s_action,
)
from .crystal import (
    CrystalElement,
    TensorElement,
    TropicalGrid,
    apply_s,
    coenergy,
    coenergy_sliding_oracle,
    counts_to_grid,
    energy_staircase,
    intrinsic_energy,
    ok,
    r_matrix,
    r_matrix_oracle,
)
from .identities import IdentityCheck, identity_suite
from .lsym import (
    ColoredPoly,
    PolyMatrix,
    loop_e,
    loop_h,
    loop_schur_jt,
    loop_schur_tableaux,
    sigma,
    tau,
    trop_eval,
)
from .tableaux import (
    EnumerationGuardError,
    Shape,
    SkewShape,
    Ssyt,
    count_ssyt,
    enumerate_ssyt,
    jdt_slide,
    rectify,
    staircase,
)
from .verify import RunReport, VerifyConfig, run_verify

__version__ = "0.1.0"

__all__ = [
    "CrystalElement",
    "ColoredPoly",
    "EnumerationGuardError",
    "IdentityCheck",
    "PolyMatrix",
    "RationalPoint",
    "RunReport",
    "Shape",
    "SkewShape",
    "Ssyt",
    "TensorElement",
    "TropicalGrid",
    "VerifyConfig",
    "apply_s",
    "coenergy",
    "coenergy_sliding_oracle",
    "count_ssyt",
    "counts_to_grid",
    "energy_staircase",
    "enumerate_ssyt",
    "identity_suite",
    "intrinsic_energy",
    "jdt_slide",
    "kappa",
    "loop_e",
    "loop_h",
    "loop_schur_jt",
    "loop_schur_tableaux",
    "ok",
    "r_action_identities",
    "r_matrix",
    "r_matrix_oracle",
    "random_point",
    "rational_energy_global",
    "rational_energy_product",
    "rectify",
    "run_verify",
    "s_action",
    "sigma",
    "staircase",
    "tau",
    "trop_eval",
]
