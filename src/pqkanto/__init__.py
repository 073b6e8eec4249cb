"""Two-parameter (p,q) Kantorovich-type positive linear operators.

Library layout:

    pq_calculus   (p,q)-integers, product powers, and the unit-interval
                  integral: truncated series and closed monomial form
    functions     named test functions with structure metadata
    operators     basis weights, node maps and operator evaluation
    moments       closed-form moments vs direct summation, residually
    bounds        moduli of smoothness and rate-bound reports
    convergence   weighted-error sweeps over parameter sequences
    cli           reproducible command-line frontend (see `pqkanto -h`)
"""

__version__ = "0.1.0"

from .bounds import BoundReport, bound_reports, modulus, second_modulus
from .convergence import (
    SequenceSpec,
    SweepRecord,
    default_spec,
    hypothesis_check,
    korovkin_sweep,
    vanishing_sweep,
    weighted_sup_error,
)
from .errors import ConvergenceError, DomainError, RegimeError, SizeCapError
from .functions import FunctionHandle, PiecewiseLinear, builtin, polynomial_handle
from .manifest import RunManifest
from .moments import (
    MomentReport,
    moment_closed,
    peetre_bound_args,
    second_central_moment,
    verify_moments,
)
from .operators import (
    OperatorParams,
    WeightVector,
    apply_extended,
    apply_operator,
    basis_weights,
    node_hull_max,
)
from .pq_calculus import PQPair, pq_integer, pq_integral_monomial, pq_power

__all__ = [
    "__version__",
    "BoundReport", "bound_reports", "modulus", "second_modulus",
    "SequenceSpec", "SweepRecord", "default_spec", "hypothesis_check",
    "korovkin_sweep", "vanishing_sweep", "weighted_sup_error",
    "ConvergenceError", "DomainError", "RegimeError", "SizeCapError",
    "FunctionHandle", "PiecewiseLinear", "builtin", "polynomial_handle",
    "RunManifest",
    "MomentReport", "moment_closed", "peetre_bound_args",
    "second_central_moment", "verify_moments",
    "OperatorParams", "WeightVector", "apply_extended", "apply_operator",
    "basis_weights", "node_hull_max",
    "PQPair", "pq_integer", "pq_integral_monomial", "pq_power",
]
