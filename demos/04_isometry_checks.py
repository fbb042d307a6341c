"""Two-sided identities: isometry, chain rule, perturbation invariance.

For a smooth map f, the scaled quadratic variation of f(x) should match
the Stieltjes integral of |f'(x)|^p against the scaled QV of x; the p-th
variation obeys the analogous chain rule; and adding a smooth perturbation
should not move the scaled QV at all in the limit.
"""

import numpy as np

import roughvar as rv

x = rv.takagi_path(0.5, 14)
levels = range(6, 13)

print("isometry check, p = 2, maps from the catalog:")
for map_id in ("identity", "affine:2,-1", "square_plus_one", "sin"):
    f = rv.builtin_map(map_id)
    rep = rv.isometry_check(x, f, 2.0, levels)
    print(f"  {map_id:16s} rel err @12 {rep.rel_err[-1]:.3e}  "
          f"trend slope {rep.err_trend_slope:+.3f}  success={rep.success}")

rep = rv.chain_rule_check(x, rv.sin_map(), 2.0, levels)
print(f"\nchain rule with sin: per-level relative errors")
for n, r in zip(rep.levels, rep.rel_err):
    print(f"  level {n:2d}: {r:.3e}")

# Perturbation invariance: a sine wave of any amplitude washes out.
A = rv.smooth_perturbation("sine", 0.5, 14, {"freq": 1.0})
rep = rv.invariance_check(x, A, 2.0, [6, 8, 10, 12])
print(f"\ninvariance under +0.5 sin(2 pi t): rel errs "
      f"{[f'{r:.4f}' for r in rep.rel_err]} -> success={rep.success}")

# A rough perturbation violates the hypothesis and the report says so.
rep = rv.invariance_check(x, x, 2.0, levels)
print(f"adding the path to itself: success={rep.success}, warnings:")
for w in rep.warnings:
    print(f"  {w}")

# Tabulated maps come in as cubic splines that extrapolate past their table.
grid = np.linspace(-2.0, 2.0, 201)
table = rv.tabulated_map("spline_sin", grid, np.sin(grid))
rep = rv.isometry_check(x, table, 2.0, levels)
print(f"\nspline-tabulated sin: rel err @12 {rep.rel_err[-1]:.3e}, "
      f"table range={table.table_range}")
