"""Central tolerance configuration.

``TOL`` holds the report caps and the engine's tolerances, read directly; no
function takes it as a parameter.  The entry checks of the points and
matrices a function accepts keep their literal cut-offs beside their
messages, and a routine's own constants (``mat_exp``'s series stop) stay in it.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # matrix kernel
    triangular: float = 1e-12          # relative off-triangle mass in UL factors
    pivot_minor: float = 1e-12         # pivot cutoff, relative to the matrix norm
    eigenvalue_gap: float = 1e-8       # below this the spectrum counts as degenerate

    # Poisson engine
    fd_step: float = 1e-6              # central-difference step for gradients
    fd_nested_step: float = 1e-5       # outer step when differencing a bracket
    antisymmetry: float = 1e-10
    jacobi: float = 1e-4
    leibniz: float = 1e-5

    # integration
    step_underflow: float = 1e-14
    orbit_drift: float = 1e-8

    # Kepler
    collision_radius: float = 1e-12
    kepler_relation: float = 64.0      # roundoff cap of (M, A) and the quadratic relation, in eps

    # rank-1 systems
    oracle_residual: float = 1e-10     # linear-system solve residual
    formula_match: float = 1e-8        # closed form accepted against the oracle
    dual_path: float = 1e-9            # reduced formula vs matrix trace
    central_flow: float = 1e-9         # joint-invariant drift along central flows
    duality_exact: float = 1e-12       # algebraic identities of the duality map
    mu_eigenvalue: float = 1e-7        # rank-1 class membership of the moment value
    projection_drift: float = 1e-7     # projection invariants along double flows
    separation_margin: float = 1e-6    # fiber checks count as separated above this

    # factorization dynamics
    trace_conservation: float = 1e-10
    flow_cross_check: float = 1e-6     # exact flow vs bivector integration
    semigroup: float = 1e-7
    conjugation_agreement: float = 1e-9  # g+ vs g- conjugation


TOL = Tolerances()
