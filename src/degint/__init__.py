"""degint: a numerical laboratory for degenerately integrable systems.

Kepler dynamics, rational spin Calogero-Moser and Ruijsenaars reductions,
their relativistic analogues on pairs of group elements, and factorization
dynamics on the group chart, all wired through one chart-based Poisson
engine and cross-validated against independent brute-force oracles.
"""

from .config import TOL
from .matrixcore import (
    ULPair,
    as_matrix,
    mat_exp,
    spectral,
    traces_of_powers,
    ul_split_factorize,
)
from .poisson import (
    Observable,
    PoissonChart,
    bracket,
    chart_canonical,
    chart_cm_loglinear,
    chart_heisenberg_double,
    chart_relativistic_loglinear,
    chart_sklyanin,
    coordinate,
    ham_vector_field,
    jacobi_defect,
    leibniz_defect,
    observable_product,
)
from .integrate import ConservationReport, Trajectory, adaptive, monitor, rk4
from .kepler import (
    KeplerState,
    P5Point,
    orbit_conservation_report,
    project_to_p5,
)
from .calogero import (
    CMPoint,
    RuijPoint,
    SpinData,
    cm_central_flow,
    duality_fiber_check,
    h_cm,
    h_scm,
    phi_psi_closed_form,
    reconstruct_g,
    solve_phi_psi_oracle,
)
from .double import (
    DoublePoint,
    double_flow_conservation,
    duality_map,
    fiber_check,
    moment,
    rank_one_reduction,
    relativistic_hamiltonians,
)
from .facto import (
    TracePower,
    factorization_flow,
    flow_consistency_sweep,
    left_differential,
    sklyanin_reference_flow,
)

__version__ = "0.1.0"
