"""The consensus QP is solved exactly in a single sweep.

For strongly convex condensed models one sweep (each region sends Bbar and
Bbar x^k - gbar, the coordinator takes the weighted average, each region
updates its multiplier) lands on the KKT point of the coupled QP: no inner
iteration loop exists anywhere in the solver.
"""

from types import SimpleNamespace

import numpy as np

from hdpf import dense_kkt_solve
from hdpf.condense import CondensedQP
from hdpf.consensus import averaging_projector, consensus_pass, verify_kkt


def random_spd(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = (q * rng.uniform(1.0, 50.0, n)) @ q.T
    return 0.5 * (m + m.T)


def make_cqp(rng, n):
    return CondensedQP(
        b_bar=random_spd(rng, n), g_bar=rng.standard_normal(n), x_k=rng.standard_normal(n),
        x_cols=np.arange(n),
        y_cols=np.zeros(0, dtype=np.int64), w_y=np.zeros(0), w_x=np.zeros((0, n)))


rng = np.random.default_rng(7)

# four regions sharing a 6-column consensus vector through three hyperedges:
# columns 0-1 shared by regions 0/1/2, 2-3 by 1/3, 4-5 by 2/3
membership = [np.array([0, 1]), np.array([0, 1, 2, 3]),
              np.array([0, 1, 4, 5]), np.array([2, 3, 4, 5])]
n_z = 6
regions = [SimpleNamespace(index=i, z_cols=cols, n_cpl=len(cols))
           for i, cols in enumerate(membership)]
cqps = [make_cqp(rng, len(cols)) for cols in membership]
print(f"random instance: {len(regions)} regions, {n_z} consensus columns, "
      f"coupling sizes {[c.n_cpl for c in cqps]}\n")

sol = consensus_pass(cqps, regions, n_z)
chi_next = [sol.z_bar[r.z_cols] for r in regions]
kkt = verify_kkt(cqps, regions, sol, chi_next)
print("KKT residuals after ONE pass:")
print(f"  stationarity  {kkt.stationarity:.2e}")
print(f"  dual          {kkt.dual:.2e}")
print(f"  primal        {kkt.primal:.2e}")

xs, z, lams = dense_kkt_solve([c.b_bar for c in cqps], [c.g_bar for c in cqps],
                              [c.x_k for c in cqps], [r.z_cols for r in regions], n_z)
print("\nagreement with a dense saddle-point factorization of the same QP:")
print(f"  |z - z_ref|_inf = {np.max(np.abs(sol.z_bar - z)):.2e}")
print(f"  |lam - lam_ref| = "
      f"{max(np.max(np.abs(a - b)) for a, b in zip(sol.lam, lams)):.2e}")

# the weighted-averaging map is a projector: applying it twice changes nothing
m = averaging_projector(cqps, regions, n_z)
print(f"\naveraging projector M: |M^2 - M|_inf = {np.max(np.abs(m @ m - m)):.2e}")

# rerunning the pass from the produced point is a fixed point
cqps2 = [CondensedQP(b_bar=c.b_bar, g_bar=c.g_bar + c.b_bar @ (xn - c.x_k), x_k=xn,
                     x_cols=c.x_cols, y_cols=c.y_cols,
                     w_y=c.w_y, w_x=c.w_x)
         for c, xn in zip(cqps, chi_next)]
sol2 = consensus_pass(cqps2, regions, n_z)
move = max(np.max(np.abs(sol2.z_bar[r.z_cols] - xn))
           for r, xn in zip(regions, chi_next))
print(f"re-running the pass moves the solution by {move:.2e} (fixed point)")
