"""Variation profiles along dyadic partitions.

Computes the p-th variation and the scaled quadratic variation of the
classic self-affine hat-sum path (H = 1/2), where the level-n quadratic
variation is known in closed form: 1 - 2**-n.
"""

import numpy as np

import roughvar as rv

x = rv.takagi_path(0.5, 14)
print(f"path: {x.label}, grid level {x.grid_level}, {x.samples.size} samples")

# Plain quadratic variation level by level: the closed form is exact.
print("\nlevel   [x]_n(1)      1 - 2^-n      difference")
for n in range(2, 13, 2):
    prof = rv.pth_variation(x, rv.dyadic_partition(n, 14), 2.0)
    closed = 1.0 - 2.0 ** -n
    print(f"{n:5d}   {prof.terminal:.9f}   {closed:.9f}   "
          f"{prof.terminal - closed:+.2e}")

# Away from p = 2 the same path diverges (p < 2) or vanishes (p > 2).
print("\np-th variation terminals across levels 4..12:")
for p in (1.5, 2.0, 3.0):
    vals = [rv.pth_variation(x, rv.dyadic_partition(n, 14), p).terminal
            for n in range(4, 13)]
    rep = rv.limit_diagnostics(vals, window=4, levels=range(4, 13))
    print(f"  p={p}: {np.array2string(np.asarray(vals), precision=3)}"
          f"  -> {rep.classification}")

# Scaled quadratic variation reweights |dx|^2 by variation increments so
# the p = 2 behaviour transfers to other exponents.  For this path the
# limit variation is literally t, so the analytic source is exact.
print("\nscaled QV at p=3 with two weight sources (level 10):")
part = rv.dyadic_partition(10, 14)
for name, src in [("finest_level", None),
                  ("analytic t", rv.PVarSource.linear(1.0))]:
    prof = rv.scaled_qv(x, part, 3.0, src)
    print(f"  {name:13s} terminal {prof.terminal:.9f} "
          f"(clamped {prof.clamped}, atom risk {prof.atom_risk:.2e})")

# Profiles serialize to CSV with a JSON sidecar carrying the metadata.
import tempfile, os

with tempfile.TemporaryDirectory() as tmp:
    name = os.path.join(tmp, "profile.csv")
    rv.write_profile_csv(rv.scaled_qv(x, part, 3.0), name)
    back = rv.read_profile_csv(name)
    print(f"\nround-trip through CSV: terminal {back.terminal:.9f}, "
          f"kind {back.kind}, p {back.p}")
