"""Exact verification of sub/super-multiplicativity and
sub/super-homogeneity properties of arithmetic functions."""

from submult.checks import (
    HOLDS,
    REFUTED,
    SUB,
    SUP,
    CheckConfig,
    CheckReport,
    Counterexample,
    check_identity_bound,
    check_power_submult,
    classify,
    reports_for_tag,
    run_property_check,
)
from submult.core import (
    Factorization,
    SpfTable,
    Value,
    build_spf_table,
    cmp_values,
    factorize,
    is_prime,
    kernel_backend,
    prime_power,
    primes_upto,
    trial_factorize,
)
from submult.errors import (
    DomainError,
    InconsistencyError,
    InvariantViolation,
    ResourceError,
    SubmultError,
    UnsupportedInputError,
    UsageError,
)
from submult.functions import (
    ArithFn,
    Evaluator,
    Registry,
    builtin_registry,
    combine,
    evaluate,
    evaluate_fact,
    make_prime_power_fn,
)
from submult.inequalities import (
    verify_corollary1,
    verify_eq12,
    verify_eq13,
    verify_eq16,
    verify_eq20,
    verify_eq23,
)
from submult.inference import (
    K_SUB_HOM,
    K_SUB_MULT,
    K_SUP_HOM,
    K_SUP_MULT,
    MULTIPLICATIVE,
    SUB_HOM,
    SUB_MULT,
    SUP_HOM,
    SUP_MULT,
    PropertySpec,
    PropertyTag,
    close_tags,
    infer_properties,
)
from submult.local import (
    BridgeReport,
    LocalCriterion,
    LocalReport,
    bridge_consistency,
    check_local,
)

__version__ = "0.1.0"
