"""Exact Smith Normal Forms and real-spectrum positivity.

Supported rings: the rational integers, univariate rational polynomials, and
the norm-Euclidean real quadratic integer rings.  All arithmetic is exact;
there is no floating point anywhere in the decision paths.
"""

from .matrices import (
    Matrix,
    SnfResult,
    determinant,
    minor_gcd_profile,
    smith_normal_form,
    verify_snf,
)
from .polynomials import (
    RatPoly,
    SturmChain,
    is_nonneg_on_reals,
    is_real_irreducible,
    squarefree_decomposition,
    sturm_chain,
)
from .quadratic import (
    QuadElem,
    SignPattern,
    fundamental_unit,
    pnri_holds,
)
from .rings import (
    are_associated,
    gcd,
    valuation,
)
from .ringspec import (
    INTEGERS,
    RATIONAL_POLYNOMIALS,
    RingFamily,
    RingSpec,
    parse_ring,
    quadratic_ring,
)
from .spectrum import PsdReport, element_is_nonneg, is_psd_on_spectrum
from .verify import (
    Conclusion,
    CounterexampleRecipe,
    SplitMix64,
    TheoremReport,
    TrialConfig,
    build_counterexample,
    builtin_counterexample_recipe,
    check_valuation_lemma,
    random_psd_matrix,
    run_property_suite,
    verify_main_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "Conclusion",
    "CounterexampleRecipe",
    "INTEGERS",
    "Matrix",
    "PsdReport",
    "QuadElem",
    "RATIONAL_POLYNOMIALS",
    "RatPoly",
    "RingFamily",
    "RingSpec",
    "SignPattern",
    "SnfResult",
    "SplitMix64",
    "SturmChain",
    "TheoremReport",
    "TrialConfig",
    "are_associated",
    "build_counterexample",
    "builtin_counterexample_recipe",
    "check_valuation_lemma",
    "determinant",
    "element_is_nonneg",
    "fundamental_unit",
    "gcd",
    "is_nonneg_on_reals",
    "is_psd_on_spectrum",
    "is_real_irreducible",
    "minor_gcd_profile",
    "parse_ring",
    "pnri_holds",
    "quadratic_ring",
    "random_psd_matrix",
    "run_property_suite",
    "smith_normal_form",
    "squarefree_decomposition",
    "sturm_chain",
    "valuation",
    "verify_main_theorem",
    "verify_snf",
]
