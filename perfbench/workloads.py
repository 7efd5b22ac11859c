"""The benchmark workloads and the inputs each run issues.

Every call in a workload is the same ``degint`` scenario at the same size;
only the scenario's own ``--seed`` changes from call to call.  A run's
inputs are a fixed pool of scenario seeds, taken once each in an order drawn
from the workload seed.  The pool, not a fresh draw, keeps the work of every
run identical: one Kepler orbit costs anywhere from 20 to 770 ms depending on
its seed, so a fresh set of orbits per run would move the run's mean on
input choice alone.  Pool seeds lie 1000 apart because sweep scenarios seed
sample i with ``seed + i``; adjacent seeds would repeat samples.
"""

from dataclasses import dataclass

import numpy as np

SEED_STRIDE = 1000
MIN_INPUTS = 20         # the tail rule needs at least 11


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple             # scenario arguments, without seed and outputs
    call_s: float           # nominal seconds per report; sizes the work only
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "pair-flow",
        ("--scenario", "relativistic-ruijsenaars", "--n", "3", "--t-max", "0.2",
         "--dt", "1e-3", "--samples", "10"),
        0.41,
        "Heisenberg-double bivector under rk4 plus monitor over the projection "
        "invariants; one trajectory, 800 bivector evaluations per report"),
    Workload(
        "kepler-orbit",
        ("--scenario", "kepler"),
        0.166,
        "adaptive Dormand-Prince orbit, monitor over 8 observables and CSV rows; "
        "the bivector is constant, so poisson is idle"),
    Workload(
        "bracket-sweep",
        ("--scenario", "verify-brackets", "--n", "3", "--samples", "10"),
        0.27,
        "bracket and nested finite-difference Jacobi defects over six charts, "
        "no integrator"),
    Workload(
        "rank1-sweep",
        ("--scenario", "ruijsenaars-rational", "--n", "6", "--samples", "500"),
        0.335,
        "calogero closed forms, Cauchy solves and character dual routes; "
        "poisson and integrate do no work"),
)}


def input_count(workload: Workload, seconds: float) -> int:
    """Inputs per run: one report each fills ``seconds`` at the nominal call
    time.

    The count depends only on the workload and ``seconds``, never on the
    measured speed, so a faster program does the same work in less time.
    """
    return max(MIN_INPUTS, round(seconds / workload.call_s))


def make_inputs(workload: Workload, seed: int, seconds: float) -> list:
    """The run's scenario seeds: the fixed pool in a seed-drawn order."""
    pool = SEED_STRIDE * np.arange(input_count(workload, seconds))
    order = np.random.default_rng(seed).permutation(len(pool))
    return [int(s) for s in pool[order]]


def report_argv(workload: Workload, scenario_seed: int, out_csv: str,
                out_json: str) -> list:
    return list(workload.argv) + ["--seed", str(scenario_seed),
                                  "--out-csv", out_csv, "--out-json", out_json]
