"""lblab: oblivious iterative optimizers, the hard quadratic instances that
defeat them, and the Chebyshev approximation bounds that prove it.

The package splits into an exact-arithmetic side (polynomials, symbolic
traces, closed-form bounds) and a Monte-Carlo side (optimizer schedules,
worst-case curves, envelope audits); the CLI in `lblab.cli` drives both.
"""

from .bounds import (ProblemParams, TheoremBound, chebyshev_lb_inf,
                     fsm_rate_envelope, identity_checks, iteration_lb_from_rate,
                     l1_lb, l2_weighted_exact, l2_weighted_lb, maxnorm_lb,
                     theorem_bounds)
from .bestapprox import best_l1, best_uniform, best_weighted_l2
from .instances import (QuadraticInstance, RlmInstance, fsm_instance,
                        fsm_minimizer, fsm_minimizer_separation, nesterov_chain,
                        rlm_dual_minimizer, rlm_instance, rlm_separation,
                        smooth_instance, toy_instance)
from .optimizers import (OPTIMIZER_NAMES, RunRecord, Schedule, audit_oblivious,
                         expected_error_curve, make_optimizer, run)
from .polynomials import (MultiPoly, PolyVector, UniPoly, chebyshev_U, poly_from_json,
                          poly_to_json)
from .trace import fig2_data, trace_gd_toy, trace_oblivious

__version__ = "0.1.0"
