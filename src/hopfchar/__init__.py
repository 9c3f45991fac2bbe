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
                         counterexample_demo, exp_infchar, inverse, linf_norm,
                         log_character)
from .control import (antipode_ratio, coproduct_ratio, elementary_coproduct,
                      right_handed_check, rlb_check)
from .core import (Generator, GradedVector, Monomial, Refused, TensorVector,
                   monomial_of, tensor_product, vector_product)
from .evolution import TimePoly, TimePolynomialCurve, evolve
from .fields import (ColouredPolySystem, Poly, PolyMap, PolyVectorField,
                     WordSystem)
from .growth import BUILTIN_FAMILIES, GrowthFamily, builtin, check_all_axioms
from .hopf import AxiomsReport, HopfAlgebra, check_hopf_axioms
from .instances import (Binomial, ConnesKreimer, FaaDiBrunoA, FaaDiBrunoX,
                        Shuffle, instance_by_name)
from .series import exact_flow_character, exact_flow_coefficient
from .trees import RootedTree, parse_tree, trees_of_order
from .words import chen_fox_lyndon, is_lyndon, lyndon_words

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_FAMILIES", "AxiomsReport", "Binomial", "ColouredPolySystem",
    "ConnesKreimer", "DUAL", "FLOAT", "FaaDiBrunoA",
    "FaaDiBrunoX", "Generator", "GradedVector", "GrowthFamily",
    "HopfAlgebra", "Monomial", "Poly", "PolyMap", "PolyVectorField",
    "RATIONAL", "Refused", "RootedTree", "Shuffle", "TensorVector", "TimePoly",
    "TimePolynomialCurve", "TruncatedCharacter", "TruncatedInfChar",
    "WordSystem", "antipode_ratio", "bracket", "builtin", "check_all_axioms",
    "check_hopf_axioms", "chen_fox_lyndon", "convolve", "coproduct_ratio",
    "counterexample_demo", "elementary_coproduct", "evolve",
    "exact_flow_character", "exact_flow_coefficient", "exp_infchar",
    "instance_by_name", "inverse", "is_lyndon", "linf_norm", "log_character",
    "lyndon_words", "monomial_of", "parse_tree", "right_handed_check",
    "rlb_check", "tensor_product", "trees_of_order", "vector_product",
]
