"""Verification laboratory for controlled character groups of graded Hopf algebras.

The package provides exact (rational) implementations of several
combinatorial Hopf algebras, weighted growth families, the character and
infinitesimal-character calculus with convolution, evolution equations on
the truncated character group, and tree/word-indexed series evaluation over
polynomial vector fields, together with a CLI that emits machine-readable
reports for every check.
"""

from .characters import (DUAL, FLOAT, RATIONAL, TruncatedCharacter,
                         TruncatedInfChar, bracket, convolve,
                         counit_character, counterexample_demo, exp_infchar,
                         inverse, linf_norm, log_character)
from .control import (antipode_ratio, coproduct_ratio, elementary_coproduct,
                      right_handed_check, rlb_check)
from .core import (Generator, GradedVector, Monomial, TensorVector,
                   monomial_of, tensor_product, vector_product)
from .evolution import (TimePoly, TimePolynomialCurve, evolve, gronwall_bound,
                        semiregularity_check)
from .fields import (ColouredPolySystem, Poly, PolyMap, PolyVectorField,
                     WordSystem)
from .growth import BUILTIN_FAMILIES, GrowthFamily, builtin, check_all_axioms
from .hopf import AxiomsReport, HopfAlgebra, check_hopf_axioms
from .instances import (Binomial, ConnesKreimer, FaaDiBrunoA, FaaDiBrunoX,
                        Shuffle, instance_by_name)
from .series import (bseries_partial, convergence_probe,
                     exact_flow_character, exact_flow_coefficient,
                     pseries_partial, sigma, wordseries_partial)
from .trees import RootedTree, parse_tree, trees_of_order
from .words import chen_fox_lyndon, is_lyndon, lyndon_words

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_FAMILIES", "AxiomsReport", "Binomial", "ColouredPolySystem",
    "ConnesKreimer", "DUAL", "FLOAT", "FaaDiBrunoA",
    "FaaDiBrunoX", "Generator", "GradedVector", "GrowthFamily",
    "HopfAlgebra", "Monomial", "Poly", "PolyMap", "PolyVectorField",
    "RATIONAL", "RootedTree", "Shuffle", "TensorVector", "TimePoly",
    "TimePolynomialCurve", "TruncatedCharacter", "TruncatedInfChar",
    "WordSystem", "antipode_ratio", "bracket",
    "bseries_partial", "builtin", "check_all_axioms", "check_hopf_axioms",
    "chen_fox_lyndon", "convergence_probe", "convolve", "coproduct_ratio",
    "counit_character", "counterexample_demo", "elementary_coproduct",
    "evolve", "exact_flow_character", "exact_flow_coefficient",
    "exp_infchar", "gronwall_bound", "instance_by_name", "inverse", "is_lyndon",
    "linf_norm", "log_character", "lyndon_words", "monomial_of",
    "parse_tree", "pseries_partial",
    "right_handed_check", "rlb_check", "semiregularity_check", "sigma",
    "tensor_product", "trees_of_order", "vector_product",
    "wordseries_partial",
]
