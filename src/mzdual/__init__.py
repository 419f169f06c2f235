"""Parametrized multiple series: word algebra, evaluation, and numerical
verification of the duality and derivative identities."""

from .words import (
    Cut,
    LinComb,
    Word,
    WordError,
    dual,
    parse_word,
    sigma_b1,
    sigma_b2,
    sigma_eps,
    v_prime_monomials,
    v_y_monomials,
    words_of_weight,
    words_up_to_weight,
)
from .nested_sum import (
    EvalConfig,
    EvalResult,
    IndexWeight,
    InvalidParamsError,
    KernelError,
    Link,
    NestedSumSpec,
    NonConvergentError,
    evaluate,
)
from .evaluators import (
    Params,
    eval_family,
    eval_terms,
)
from .verifier import (
    RELATIONS,
    IdentityCheck,
    SuiteConfig,
    VerificationReport,
    check_derivative_crosslink,
    check_identity,
    check_integral_repr,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Cut",
    "EvalConfig",
    "EvalResult",
    "IdentityCheck",
    "IndexWeight",
    "InvalidParamsError",
    "KernelError",
    "LinComb",
    "Link",
    "NestedSumSpec",
    "NonConvergentError",
    "Params",
    "RELATIONS",
    "SuiteConfig",
    "VerificationReport",
    "Word",
    "WordError",
    "check_derivative_crosslink",
    "check_identity",
    "check_integral_repr",
    "dual",
    "eval_family",
    "eval_terms",
    "evaluate",
    "parse_word",
    "run_suite",
    "sigma_b1",
    "sigma_b2",
    "sigma_eps",
    "v_prime_monomials",
    "v_y_monomials",
    "words_of_weight",
    "words_up_to_weight",
]
