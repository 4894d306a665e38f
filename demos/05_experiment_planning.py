"""Commissioning-time planning: is a block budget enough to expand?

Optimises the PEF power and the entropy/extractor error split for the
production block budget and soundness error, reporting the expected net
yield.  Expect about ten seconds: every candidate power costs a middle-
anchor line search over PEF optimisations, batched across the powers of
each grid round.
"""

from direx import expansion_feasible
from direx.data import commissioning_distribution

N_B = 56_070_910
K = 17
EPS = 5.7e-7

nu = commissioning_distribution()
print(f"budget: {N_B:,} blocks of up to 2^{K} trials, soundness {EPS:g}")
feasible, plan = expansion_feasible(nu, N_B, K, EPS)

print(f"\nfeasible: {feasible}")
print(f"beta_opt   = {plan.beta_opt:.4e}   (production analysis used 4.7614e-08)")
print(f"eps_en_opt = {plan.eps_en_opt:.4e}   (production analysis used 5.6822e-07)")
print(f"block rate = {plan.g_b:.4f} bits (j_mid = {plan.j_mid})")
print(f"sigma_in   = {plan.sigma_in:,.0f} bits")
print(f"k_out      = {plan.extractor.k_out:,}, d_s = {plan.extractor.d_s:,}")
print(f"sigma_net  = {plan.sigma_net:,.0f} bits expected surplus")
print(f"G_min at 2.5 sigma = {plan.G_min:,} (p_succ = {plan.p_succ:.4f})")
print(f"\n{len(plan.evaluations)} power evaluations audited")
