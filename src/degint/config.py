"""Central tolerance configuration.

Every numerical threshold used by the library lives in one frozen record,
``TOL``, which the library reads directly; no function takes a tolerance
record as a parameter.  The values are the validated desk-scale ones; a
threshold is changed here, for every caller at once.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # matrix kernel
    triangular: float = 1e-12          # relative off-triangle mass in UL factors
    pivot_minor: float = 1e-12         # pivot cutoff, relative to the matrix norm
    reassembly: float = 1e-11          # |g+ g-^{-1} - m| after UL splitting
    mat_exp_rel: float = 1e-12         # relative accuracy of the exponential
    spectral_residual: float = 1e-9    # |m - V diag V^{-1}|
    eigenvalue_gap: float = 1e-8       # below this the spectrum counts as degenerate

    # Poisson engine
    fd_step: float = 1e-6              # central-difference step for gradients
    fd_nested_step: float = 1e-5       # outer step when differencing a bracket
    antisymmetry: float = 1e-10
    jacobi: float = 1e-4
    leibniz: float = 1e-5
    grad_check: float = 1e-5           # exact gradient vs finite differences

    # integration
    step_underflow: float = 1e-14
    orbit_drift: float = 1e-8

    # Kepler
    collision_radius: float = 1e-12

    # rank-1 systems
    oracle_residual: float = 1e-10     # linear-system solve residual
    formula_match: float = 1e-8        # closed form accepted against the oracle
    formula_reject: float = 1e-6       # beyond this no candidate is accepted
    reconstruction: float = 1e-9       # defining-relation residual for rebuilt g
    dual_path: float = 1e-9            # reduced formula vs matrix trace
    dual_path_reject: float = 1e-6
    central_flow: float = 1e-9         # joint-invariant drift along central flows
    duality_exact: float = 1e-12       # algebraic identities of the duality map
    mu_eigenvalue: float = 1e-7        # rank-1 class membership of the moment value
    reduction_reject: float = 1e-6
    projection_drift: float = 1e-7     # projection invariants along double flows
    separation_margin: float = 1e-6    # fiber checks count as separated above this

    # factorization dynamics
    trace_conservation: float = 1e-10
    flow_cross_check: float = 1e-6     # exact flow vs bivector integration
    semigroup: float = 1e-7
    conjugation_agreement: float = 1e-9  # g+ vs g- conjugation


TOL = Tolerances()
