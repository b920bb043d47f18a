"""Numerical analysis of monotonicity patterns of ratios r = f/g.

With g and g' nonzero and of constant sign, the monotonicity pattern of
the derivative ratio rho = f'/g' pins r into a one-switch family, the
switch sitting exactly on the level-0 set of rho-tilde = (f'g - fg')/|g'|.
This package measures those patterns on concrete function pairs, verifies
the rules, and constructs ratios with a prescribed maximal interval of
constancy.
"""

from .construct import (ConstructedFn, GeneratorConfig, QuadratureError,
                        StaircaseError, StaircaseFn, StaircaseSpec, construct_f,
                        make_staircase_rho, random_pair)
from .expr import DomainFault, ExprFn, ParseError, expr_fn, parse
from .intervals import Interval
from .patterns import (BadBracket, Pattern, PatternKind,
                       Unclassifiable, detect_direction, detect_mics, detect_pattern,
                       level0_set, refine_sign_change)
from .ratio import (DifferentiableFn, FunctionPair, SampleTable, SignChange,
                    ValidationError, ZeroG, ZeroGPrime, make_pair, ratio_at,
                    rho_at, rho_tilde_at, sample_table)
from .rules import (AnalysisReport, Direction, MicFit, RULE_ROWS, RuleRow,
                    Tolerances, check_pair)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport", "BadBracket", "ConstructedFn", "Direction",
    "DifferentiableFn", "DomainFault", "ExprFn",
    "FunctionPair", "GeneratorConfig", "Interval", "MicFit",
    "ParseError", "Pattern", "PatternKind", "QuadratureError",
    "RULE_ROWS", "RuleRow", "SampleTable", "SignChange", "StaircaseError",
    "StaircaseFn", "StaircaseSpec", "Tolerances", "Unclassifiable",
    "ValidationError", "ZeroG", "ZeroGPrime", "check_pair",
    "construct_f", "detect_direction", "detect_mics", "detect_pattern",
    "expr_fn", "level0_set", "make_pair", "make_staircase_rho",
    "parse", "random_pair", "ratio_at", "refine_sign_change", "rho_at",
    "rho_tilde_at", "sample_table",
]
