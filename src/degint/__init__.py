"""degint: a numerical laboratory for degenerately integrable systems.

Kepler dynamics, rational spin Calogero-Moser and Ruijsenaars reductions,
their relativistic analogues on pairs of group elements, and factorization
dynamics on the group chart, all wired through one chart-based Poisson
engine and cross-validated against independent brute-force oracles.
"""
