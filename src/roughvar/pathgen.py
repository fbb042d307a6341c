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

def _fgn_covariance(H: float, N: int) -> np.ndarray:
    """Autocovariance of unit-spaced fractional Gaussian noise, lags 0..N.

    ``0.5 * ((k+1)**2H + (k-1)**2H - 2 k**2H)`` cancels catastrophically at
    large lags, where the covariance is a second difference many orders
    below ``k**2H``; it is evaluated as
    ``0.5 * k**2H * (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k)))`` for
    k >= 2, and in closed form at k = 0 (1) and k = 1 (``2**(2H-1) - 1``).
    """
    two_h = 2.0 * H
    gamma = np.empty(N + 1)
    gamma[0] = 1.0
    if N >= 1:
        gamma[1] = np.expm1((two_h - 1.0) * np.log(2.0))
    if N >= 2:
        k = np.arange(2, N + 1, dtype=np.float64)
        inv = 1.0 / k
        gamma[2:] = 0.5 * k ** two_h * (np.expm1(two_h * np.log1p(inv))
                                        + np.expm1(two_h * np.log1p(-inv)))
    return gamma


def _fgn_circulant(H: float, N: int, rng: np.random.Generator) -> np.ndarray:
    """Sample N fractional-Gaussian-noise increments by circulant embedding.

    The length-2N circulant is real and symmetric, so its eigenvalues are
    the N+1 real bins of one real FFT, and the Hermitian spectrum of the
    sample needs only its N+1 nonnegative-frequency bins for one inverse
    real FFT.  A negative eigenvalue means the embedding is not a valid
    covariance: that raises :class:`NumericalError` and is never clipped.
    """
    gamma = _fgn_covariance(H, N)
    lam = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real.copy()  # bins 0..N
    del gamma  # free the covariance before the 2N draws: peak memory is here
    if lam.min() < 0.0:
        raise NumericalError(
            f"circulant embedding of the fractional-noise covariance has a "
            f"negative eigenvalue ({lam.min():.3g}) at H={H}, N={N}"
        )
    w = rng.standard_normal(2 * N)
    half = np.zeros(N + 1, dtype=np.complex128)
    half.real[0] = np.sqrt(lam[0]) * w[0]
    half.real[N] = np.sqrt(lam[N]) * w[N]
    scale = np.sqrt(lam[1:N] / 2.0)
    np.multiply(scale, w[1:N], out=half.real[1:N])
    np.multiply(scale, w[N + 1:], out=half.imag[1:N])
    return np.fft.irfft(half, n=2 * N)[:N] * np.sqrt(2 * N)


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
    increments = _fgn_circulant(H, N, rng) * 2.0 ** (-grid_level * H)
    samples = np.concatenate([[0.0], np.cumsum(increments)])
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
