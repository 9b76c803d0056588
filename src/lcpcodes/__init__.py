"""Exact group codes over finite principal ideal rings.

Construction of two-sided ideals in R[G], CRT decomposition into chain-ring
components, linear-complementary-pair checking, duals, minimum distances,
security parameters, permutation-equivalence search and direct-sum-masking
demos, all with exact integer arithmetic at desk scale.
"""

from .algebra import GroupAlgebra
from .codes import (
    DsmSplitter,
    GroupCode,
    LcpReport,
    code_crt_combine,
    code_dual,
    code_intersect,
    code_sum,
    enumerate_ideals,
    lcp_check,
    min_distance,
    weight_enumerator,
)
from .equivalence import (
    EquivalenceResult,
    check_dual_equivalence,
    find_permutation,
    verify_permutation,
)
from .errors import CapExceededError, NotInvertibleError, NotLcpError, ValidationError
from .groups import (
    FiniteGroup,
    cyclic,
    dihedral,
    direct_product,
    group_from_table,
    load_cayley_table,
    symmetric,
)
from .linalg import (
    PivotForm,
    RingMatrix,
    enumerate_codewords,
    kernel,
    membership,
    pivot_reduce,
)
from .rings import ChainRing, ProductRing, default_modulus

__version__ = "0.1.0"

__all__ = [
    "ChainRing",
    "ProductRing",
    "default_modulus",
    "FiniteGroup",
    "cyclic",
    "dihedral",
    "symmetric",
    "direct_product",
    "group_from_table",
    "load_cayley_table",
    "GroupAlgebra",
    "RingMatrix",
    "PivotForm",
    "pivot_reduce",
    "membership",
    "kernel",
    "enumerate_codewords",
    "GroupCode",
    "LcpReport",
    "DsmSplitter",
    "code_sum",
    "code_intersect",
    "code_dual",
    "code_crt_combine",
    "lcp_check",
    "min_distance",
    "weight_enumerator",
    "enumerate_ideals",
    "EquivalenceResult",
    "verify_permutation",
    "find_permutation",
    "check_dual_equivalence",
    "ValidationError",
    "NotInvertibleError",
    "NotLcpError",
    "CapExceededError",
]
