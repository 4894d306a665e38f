"""Per-block randomness rates from optimised and interpolated PEFs.

Builds the production PEF table (power 4.7614e-8, blocks of up to 2^17
trials, middle anchor at position 53,478) and evaluates the expected
witness rate and variance per block, plus how little the three-anchor
interpolation loses against per-position optimisation.
"""

import numpy as np

from direx import block_gain, build_pef_table, optimize_trial_pef, spot_probability
from direx.data import commissioning_distribution
from direx.pef import _cell_input_weights

BETA = 4.7614e-8
K = 17

nu = commissioning_distribution()
table = build_pef_table(nu, BETA, K)  # k=17 defaults to j_mid=53,478
print(f"PEF table: k={table.k}, beta={table.beta:g}, j_mid={table.j_mid}")

rep = block_gain(table, nu)
print(f"block rate      : {rep.g_block:.4f} bits/block")
print(f"block variance  : {rep.var_block:.4e} bits^2/block")
print(f"bits consumed   : {K + 2} per block -> net {rep.g_block - (K + 2):+.2f} expected")

rng = np.random.default_rng(1)
positions = np.sort(rng.integers(2, 2**K, size=8))
print("\ninterpolated vs individually optimised gain (bits, sampled positions):")
for j in positions:
    q = spot_probability(int(j), K)
    w = _cell_input_weights(q) * nu.table.ravel()
    g_interp = float(w @ table.log2_f(np.array([int(j)]))[0]) / BETA
    _, g_opt = optimize_trial_pef(nu, q, BETA)
    print(f"  j={int(j):>6d}: interpolated {g_interp:.6e}  optimal {g_opt:.6e}"
          f"  ratio {g_interp / g_opt:.6f}")
