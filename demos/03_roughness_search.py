"""Estimating the critical variation index by a secant search.

The scaled quadratic variation switches from diverging to vanishing as the
exponent q crosses the path's critical index p-bar.  Its log2 trend slope
over the levels is close to affine in 1/q, so a secant in 1/q through two
probes pins p-bar down in a few probes, and 1/p-bar estimates the roughness.
"""

import numpy as np

import roughvar as rv

# A sweep over q shows the switching that the search exploits.
x = rv.takagi_path(0.5, 14)
print("classification sweep on the H=1/2 hat-sum path, levels 6..12:")
for rec in rv.classification_sweep(x, range(6, 13), np.linspace(1.2, 4.0, 8)):
    print(f"  q={rec.q:4.2f}  {rec.classification:16s} "
          f"(log2 slope {rec.trend_slope:+.3f})")

report = rv.critical_index_search(x, p_range=(1.2, 4.0), iters=12)
lo, hi = report.bracket
print(f"\np_bar estimate {report.p_bar_est:.5f} in [{lo:.5f}, {hi:.5f}] "
      f"after {len(report.per_q)} probes; hurst {report.hurst_est:.5f}")

# Fractional Brownian paths: the estimate tracks the generator's H.
print("\nfractional Brownian sample paths (level 18, levels 6..16):")
for H in (0.3, 0.5, 0.7):
    ests = []
    for seed in range(3):
        fx = rv.fbm_path(H, 18, seed=seed)
        rep = rv.critical_index_search(fx, levels=range(6, 17),
                                       p_range=(1.1, 8.0), iters=12)
        ests.append(rep.hurst_est)
    print(f"  H={H}: hurst estimates {[round(e, 4) for e in ests]}")

# A smooth path has no critical index in (1.2, 4): every probe vanishes,
# and the search refuses to fabricate a bracket.
from roughvar.errors import BracketError

smooth = rv.smooth_perturbation("sine", 1.0, 12, {"freq": 1.0})
try:
    rv.critical_index_search(smooth, levels=range(6, 11))
except BracketError as exc:
    print(f"\nsmooth path: {exc}")
