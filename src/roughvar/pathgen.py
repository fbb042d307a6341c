"""Test-path generators: fractional Brownian motion, smooth perturbations,
and convenience wrappers over the Schauder constructions.

All generators are pure functions of their parameters and seed; no global
RNG state is touched.  The seed-to-path map uses numpy's default generator
(PCG64) and is recorded in run metadata, but is not promised bit-stable
across numpy versions or other implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .grid import Path, _check_max_level, grid_times
from .schauder import (
    counterexample_coefficients,
    schauder_eval,
    takagi_coefficients,
)

__all__ = [
    "GENERATOR_VERSION",
    "GeneratorSpec",
    "fbm_path",
    "smooth_perturbation",
    "smooth_lipschitz_bound",
    "takagi_path",
    "counterexample_path",
    "generate",
]

GENERATOR_VERSION = "1"
_LAG_BLOCK = 1 << 16  # covariance lags evaluated per block of the embedding row


def _fgn_covariance(H: float, N: int) -> np.ndarray:
    """Unit-spaced fGN autocovariance at lags 0..N, then N-1..1: the circulant's row.

    ``0.5 * ((k+1)**2H + (k-1)**2H - 2 k**2H)`` cancels catastrophically at
    large lags, where the covariance is a second difference many orders
    below ``k**2H``; it is evaluated as
    ``0.5 * k**2H * (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k)))`` for
    k >= 2, and in closed form at k = 0 (1) and k = 1 (``2**(2H-1) - 1``).
    """
    two_h = 2.0 * H
    row = np.empty(2 * N)
    row[0] = 1.0
    row[1] = np.expm1((two_h - 1.0) * np.log(2.0))
    for lo in range(2, N + 1, _LAG_BLOCK):
        k = np.arange(lo, min(lo + _LAG_BLOCK, N + 1), dtype=np.float64)
        inv = 1.0 / k
        row[lo:lo + k.size] = 0.5 * k ** two_h * (np.expm1(two_h * np.log1p(inv))
                                                 + np.expm1(two_h * np.log1p(-inv)))
    row[N + 1:] = row[N - 1:0:-1]
    return row


def _fgn_circulant(H: float, N: int, rng: np.random.Generator) -> np.ndarray:
    """Sample N fractional-Gaussian-noise increments by circulant embedding.

    The length-2N circulant is real and symmetric, so its eigenvalues are
    the N+1 real bins of one real FFT, and the Hermitian spectrum of the
    sample is built in that FFT's output for one inverse real FFT: at most
    two arrays of 2N doubles are live, besides numpy's FFT scratch.  A
    negative eigenvalue means the embedding is not a valid covariance:
    that raises :class:`NumericalError` and is never clipped.
    """
    spec = np.fft.rfft(_fgn_covariance(H, N))
    lam = spec.real  # the eigenvalues, bins 0..N
    if lam.min() < 0.0:
        raise NumericalError(
            f"circulant embedding of the fractional-noise covariance has a "
            f"negative eigenvalue ({lam.min():.3g}) at H={H}, N={N}"
        )
    # 2N normals drawn as w[0], w[1:N], w[N], w[N+1:]: one stream, one N-1 buffer
    w = np.empty(N - 1)
    scale = lam[1:N]
    np.sqrt(np.divide(scale, 2.0, out=scale), out=scale)
    spec[0] = np.sqrt(lam[0]) * rng.standard_normal()
    spec.imag[1:N] = rng.standard_normal(out=w)  # parked until scale is used up
    spec[N] = np.sqrt(lam[N]) * rng.standard_normal()
    np.multiply(scale, rng.standard_normal(out=w), out=w)
    np.multiply(scale, spec.imag[1:N], out=scale)
    spec.imag[1:N] = w
    del w  # before the inverse FFT allocates the second 2N buffer
    x = np.fft.irfft(spec, n=2 * N)[:N]
    return np.multiply(x, np.sqrt(2 * N), out=x)


def fbm_path(H: float, grid_level: int, seed: int, label: str | None = None) -> Path:
    """Fractional Brownian motion on [0, 1] sampled at 2**grid_level + 1 points.

    Increments are exact-in-distribution via circulant embedding of the
    stationary fGN covariance, scaled by ``2**(-grid_level * H)`` so that
    ``Var(B(t) - B(s)) = |t - s|**(2H)`` on the grid.  Deterministic given
    the seed.  A circulant embedding with a negative eigenvalue raises
    :class:`NumericalError`.
    """
    if not 0.0 < H < 1.0:
        raise ValidationError(f"H must lie in (0, 1), got {H}")
    _check_max_level(grid_level)
    rng = np.random.default_rng(seed)
    N = 1 << grid_level
    increments = _fgn_circulant(H, N, rng)
    increments *= 2.0 ** (-grid_level * H)
    samples = np.zeros(N + 1)
    np.cumsum(increments, out=samples[1:])
    return Path(grid_level=grid_level, samples=samples,
                label=label if label is not None else f"fbm(H={H}, seed={seed})")


def smooth_perturbation(kind: str, amplitude: float, grid_level: int,
                        params: dict | None = None) -> Path:
    """A Lipschitz path with vanishing p-th variation for every p > 1.

    ``kind='sine'`` gives ``amplitude * sin(2*pi*freq*t)`` (``freq`` from
    params, default 1); ``kind='poly'`` evaluates the polynomial with
    coefficients ``params['coeffs']`` (constant term first) times
    ``amplitude``.
    """
    params = dict(params or {})
    _check_max_level(grid_level)
    t = grid_times(grid_level)
    if kind == "sine":
        freq = float(params.get("freq", 1.0))
        samples = amplitude * np.sin(2.0 * np.pi * freq * t)
        label = f"sine(amp={amplitude}, freq={freq})"
    elif kind == "poly":
        coeffs = np.asarray(params.get("coeffs", [0.0, 1.0]), dtype=np.float64)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValidationError("poly perturbation needs a 1-D coefficient list")
        samples = amplitude * np.polynomial.polynomial.polyval(t, coeffs)
        label = f"poly(amp={amplitude}, coeffs={coeffs.tolist()})"
    else:
        raise ValidationError(f"unknown perturbation kind {kind!r}; expected sine or poly")
    return Path(grid_level=grid_level, samples=samples, label=label)


def smooth_lipschitz_bound(kind: str, amplitude: float, params: dict | None = None) -> float:
    """An explicit Lipschitz constant for :func:`smooth_perturbation` output."""
    params = dict(params or {})
    if kind == "sine":
        freq = float(params.get("freq", 1.0))
        return abs(amplitude) * 2.0 * np.pi * abs(freq)
    if kind == "poly":
        coeffs = np.asarray(params.get("coeffs", [0.0, 1.0]), dtype=np.float64)
        k = np.arange(coeffs.size)
        return abs(amplitude) * float(np.sum(k * np.abs(coeffs)))
    raise ValidationError(f"unknown perturbation kind {kind!r}")


def takagi_path(H: float, grid_level: int, signs: str = "plus",
                seed: int | None = None, max_level: int | None = None) -> Path:
    """Takagi-class path: Schauder coefficients ``2**(m*(1/2-H)) * (+-1)``.

    Coefficient levels run to ``max_level`` (default: the grid level, the
    finest resolvable truncation).
    """
    M = grid_level if max_level is None else max_level
    return schauder_eval(takagi_coefficients(H, M, signs=signs, seed=seed), grid_level)


def counterexample_path(n_max: int, grid_level: int | None = None) -> Path:
    """The oscillating-quadratic-variation path, resolved to ``grid_level``.

    The default grid level ``S_{n_max} = n_max(n_max+1)/2`` is the smallest
    that resolves every coefficient burst.
    """
    coeffs = counterexample_coefficients(n_max)
    L = coeffs.max_level if grid_level is None else grid_level
    return schauder_eval(coeffs, L)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of a generated path (for manifests and CLI)."""

    kind: str
    grid_level: int
    H: float | None = None
    seed: int | None = None
    params: dict = field(default_factory=dict)

    _KINDS = ("fbm", "takagi", "counterexample", "smooth", "custom_schauder")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValidationError(
                f"unknown generator kind {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.kind in ("fbm", "takagi"):
            if self.H is None or not 0.0 < self.H < 1.0:
                raise ValidationError(f"kind {self.kind!r} requires H in (0, 1), got {self.H}")

    def metadata(self) -> dict:
        return {"kind": self.kind, "grid_level": self.grid_level, "H": self.H,
                "seed": self.seed, "params": dict(self.params),
                "generator_version": GENERATOR_VERSION}


def generate(spec: GeneratorSpec) -> Path:
    """Build the path described by ``spec``."""
    if spec.kind == "fbm":
        return fbm_path(spec.H, spec.grid_level, spec.seed if spec.seed is not None else 0)
    if spec.kind == "takagi":
        return takagi_path(spec.H, spec.grid_level,
                           signs=spec.params.get("signs", "plus"), seed=spec.seed,
                           max_level=spec.params.get("max_level"))
    if spec.kind == "counterexample":
        return counterexample_path(int(spec.params.get("n_max", 4)), spec.grid_level)
    if spec.kind == "smooth":
        return smooth_perturbation(spec.params.get("shape", "sine"),
                                   float(spec.params.get("amplitude", 1.0)),
                                   spec.grid_level, spec.params)
    if spec.kind == "custom_schauder":
        from .schauder import read_coefficients_json
        coeffs = read_coefficients_json(spec.params["coeffs_file"])
        return schauder_eval(coeffs, spec.grid_level)
    raise ValidationError(f"unknown generator kind {spec.kind!r}")
