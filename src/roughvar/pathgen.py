"""Test-path generators: fractional Brownian motion, smooth perturbations,
and convenience wrappers over the Schauder constructions.

All generators are pure functions of their parameters and seed (0 when
none is given); no global RNG state is touched, and the seed is recorded in
run metadata.  Random Takagi signs are SHAKE-128 (FIPS 202) bits of the seed
and level, the same on every platform and numpy version.  fBM draws its
normals from numpy's default generator (PCG64), whose seed-to-path map is
not promised bit-stable across numpy versions or other implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .grid import _BLOCK, Path, _behind, _check_max_level, _check_seed, _in_halves
from .schauder import (
    _midpoint_path,
    _takagi_rows,
    counterexample_coefficients,
    read_coefficients_json,
    schauder_eval,
)

__all__ = [
    "GENERATOR_VERSION",
    "GeneratorSpec",
    "fbm_path",
    "smooth_perturbation",
    "takagi_path",
    "counterexample_path",
    "generate",
]

GENERATOR_VERSION = "4"
_FFT_BLOCK = 1 << 15  # complex values per block of the four-step FFT's passes
# Lags k >= _SERIES_LAG take the covariance from the first _SERIES_TERMS terms
# of its series in 1/k**2; the first term left out is below 2**-60 of the
# leading one there.
_SERIES_LAG = 8
_SERIES_TERMS = 10
# Columns of the four-step FFT are at most 2**_COLUMN_LEVEL long.  Longer
# columns mean fewer, longer rows, and a column pass that gathers each row's
# part of a block from further apart.  fbm_path(0.4, 22) measured 0.56 s with
# the square 2**11 x 2**11 split and 0.51 s with 2**7-2**9 rows; at level 20,
# 0.120 s (2**10 rows) and 0.111-0.113 s (2**8-2**9); levels 14 and 18 the
# same for every split (BENCH_13.json).
_COLUMN_LEVEL = 9


def _fgn_covariance(H: float, N: int) -> np.ndarray:
    """Unit-spaced fGN autocovariance at lags 0..N, then N-1..1: the circulant's row.

    ``0.5 * ((k+1)**2H + (k-1)**2H - 2 k**2H)`` cancels catastrophically at
    large lags, where the covariance is a second difference many orders
    below ``k**2H``.  It is evaluated in closed form at k = 0 (1) and k = 1
    (``2**(2H-1) - 1``); as
    ``0.5 * k**2H * (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k)))`` for
    2 <= k < ``_SERIES_LAG``; and from there on by its series
    ``k**(2H-2) * sum_{j>=1} C(2H, 2j) k**(-2(j-1))``, summed by Horner in
    ``1/k**2`` over ``_SERIES_TERMS`` terms: one power per lag.
    The 2N doubles are the float view of N complex values, the buffer that
    :func:`_fgn_circulant` transforms in place.
    """
    two_h = 2.0 * H
    row = np.empty(N, dtype=np.complex128).view(np.float64)
    row[0] = 1.0
    row[1] = np.expm1((two_h - 1.0) * np.log(2.0))
    k = np.arange(2, min(_SERIES_LAG, N + 1), dtype=np.float64)
    inv = 1.0 / k
    row[2:2 + k.size] = 0.5 * k ** two_h * (np.expm1(two_h * np.log1p(inv))
                                           + np.expm1(two_h * np.log1p(-inv)))
    # C(2H, 2j) for j = _SERIES_TERMS down to 1
    coef = [math.prod(two_h - i for i in range(2 * j)) / math.factorial(2 * j)
            for j in range(_SERIES_TERMS, 0, -1)]

    def series(starts) -> None:
        for lo in starts:
            k = np.arange(lo, min(lo + _BLOCK, N + 1), dtype=np.float64)
            out = row[lo:lo + k.size]
            np.power(k, two_h - 2.0, out=out)
            x = np.reciprocal(k, out=k)
            x *= x
            acc = coef[0] * x
            for c in coef[1:-1]:
                acc += c
                acc *= x
            acc += coef[-1]
            out *= acc

    _in_halves(series, range(_SERIES_LAG, N + 1, _BLOCK), N)
    row[N + 1:] = row[N - 1:0:-1]
    return row


class _FourStep:
    """In-place FFT of N = N1 * N2 complex values held as an N1 x N2 matrix.

    Bailey's four-step FFT ("FFTs in external or hierarchical memory",
    1990): length-N1 transforms down the columns, the twiddle
    ``exp(-2 pi i k1 n2 / N)``, length-N2 transforms along the rows.  Each
    pass works on ``_FFT_BLOCK`` values at a time, so numpy's FFT scratch is
    a block's, not the buffer's.  The spectrum stays in the transposed
    layout, ``m[k1, k2]`` = bin ``k1 + N1 k2``, and the inverse (rows,
    conjugate twiddle, columns; unnormalized) takes it back to natural order.
    """

    def __init__(self, N: int):
        self.n1 = 1 << min((N.bit_length() - 1) // 2, _COLUMN_LEVEL)
        self.n2 = N // self.n1
        # exp(-2 pi i j / N) = lo[j % N2] * hi[j // N2] for 0 <= j < N
        self._lo = np.exp(-2j * np.pi / N * np.arange(self.n2))
        self._hi = np.exp(-2j * np.pi / self.n1 * np.arange(self.n1))
        # exp(-i pi k / N) = half1[k1] * half2[k2] for bin k = k1 + N1 k2
        self._half1 = np.exp(-1j * np.pi / N * np.arange(self.n1))[:, None]
        self._half2 = np.exp(-1j * np.pi / self.n2 * np.arange(self.n2))

    def _root(self, j: np.ndarray) -> np.ndarray:
        """``exp(-2 pi i j / N)`` for integers 0 <= j < N."""
        out = self._lo[j & (self.n2 - 1)]
        out *= self._hi[j >> (self.n2.bit_length() - 1)]
        return out

    def half_angle(self, x) -> np.ndarray:
        """``exp(-i pi k / N)`` for the bins k at ``m[x]``."""
        return self._half1[x[0]] * self._half2[x[1]]

    def columns(self, m: np.ndarray, inverse: bool = False) -> None:
        """The column transforms and the twiddle (conjugated, before, if inverse).

        Each block of columns is gathered into a contiguous scratch block, so
        the transforms read it with the stride of a block's row, not of the
        buffer's; the twiddle is applied as the block is written back (or,
        if inverse, as it is gathered).  Each half of the blocks
        (:func:`~roughvar.grid._in_halves`) has its own scratch.
        """
        cols = min(self.n2, max(1, _FFT_BLOCK // self.n1))
        k1 = np.arange(self.n1)[:, None]
        step = self._root(k1 * np.arange(cols))  # the twiddle of columns 0..cols-1

        def blocks(starts) -> None:
            tw, b = np.empty_like(step), np.empty_like(step)
            for j in starts:
                blk = m[:, j:j + cols]
                np.multiply(step, self._root(k1 * j), out=tw)
                if inverse:
                    np.multiply(blk, np.conjugate(tw, out=tw), out=b)
                    np.fft.ifft(b, axis=0, norm="forward", out=b)
                    blk[...] = b
                else:
                    b[...] = blk
                    np.fft.fft(b, axis=0, out=b)
                    np.multiply(b, tw, out=blk)

        _in_halves(blocks, range(0, self.n2, cols), m.size)

    @staticmethod
    def rows(m: np.ndarray, slices, inverse: bool = False) -> None:
        """The row transforms of the rows in ``slices``."""
        for r in slices:
            if inverse:
                np.fft.ifft(m[r], axis=1, norm="forward", out=m[r])
            else:
                np.fft.fft(m[r], axis=1, out=m[r])

    def mirror_blocks(self):
        """Row blocks of the transposed layout, each with its mirror bins.

        Yields ``(rows, x, y)``: ``rows`` are the row slices of the block,
        every row once over all blocks, and ``m[x]``, ``m[y]`` hold bins k
        and N - k element by element.  Row k1 > 0 mirrors row N1 - k1
        reversed, one column over; rows 0 and N1/2 mirror themselves.  Bin 0,
        whose mirror N is bin 0 again, is in no ``x``.
        """
        n1, h = self.n1, self.n1 // 2
        every, rev = slice(None), slice(None, None, -1)
        yield (slice(0, 1),), (slice(0, 1), slice(1, None)), (slice(0, 1), slice(None, 0, -1))
        if n1 > 1:
            yield (slice(h, h + 1),), (slice(h, h + 1), every), (slice(h, h + 1), rev)
        step = max(1, _FFT_BLOCK // (2 * self.n2))
        for lo in range(1, h, step):
            hi = min(lo + step, h)
            yield ((slice(lo, hi), slice(n1 - hi + 1, n1 - lo + 1)),
                   (slice(lo, hi), every), (slice(n1 - lo, n1 - hi, -1), rev))


def _fgn_eigenvalues(H: float, N: int, fs: _FourStep) -> tuple:
    """The embedding's eigenvalues, computed in the buffer of its row.

    The 2N-double row is N complex values ``row[2n] + i row[2n+1]``; the
    eigenvalues are the real parts of the row's real FFT, unpacked from
    bins k and N - k of their length-N FFT with the half-angle twiddle
    (the packing of Numerical Recipes' ``realft``).  Returns the N1 x N2
    buffer, whose imaginary parts hold lam_0..lam_{N-1} in the transposed
    layout, lam_N, and the least eigenvalue, each block's minimum taken as
    it is unpacked.
    """
    m = _fgn_covariance(H, N).view(np.complex128).reshape(fs.n1, fs.n2)
    fs.columns(m)
    mins = []

    def unpack(blocks) -> None:
        for rows, x, y in blocks:
            fs.rows(m, rows)
            e = fs.half_angle(x)
            zx, zy = m[x], m[y]
            p = np.add(zx.real, zy.real)
            v = np.add(zx.imag, zy.imag)
            v *= e.real
            t = np.subtract(zx.real, zy.real)
            t *= e.imag
            v += t
            p *= 0.5
            v *= 0.5
            np.subtract(p, v, out=m.imag[y])  # where x and y overlap, x's value is written last
            np.add(p, v, out=m.imag[x])
            mins.extend((m.imag[x].min(initial=np.inf), m.imag[y].min(initial=np.inf)))

    _in_halves(unpack, list(fs.mirror_blocks()), N)
    lam_n = m[0, 0].real - m[0, 0].imag
    m.imag[0, 0] = m[0, 0].real + m[0, 0].imag
    return m, lam_n, np.min([*mins, m.imag[0, 0], lam_n])


def _normal_blocks(rng: np.random.Generator, m: np.ndarray):
    """Column blocks of ``m`` with the stream's next N - 1 normals, one per bin k >= 1.

    The normals are drawn in bin order; bin 0's slot is zero.  Three scratch
    blocks take turns, so a block's normals stay as drawn while the next two
    are made: :func:`~roughvar.grid._behind` works that far behind.
    """
    n1, n2 = m.shape
    bufs = [np.empty((min(n2, max(1, _FFT_BLOCK // n1)), n1)) for _ in range(3)]
    for i, j in enumerate(range(0, n2, bufs[0].shape[0])):
        w = bufs[i % 3][:n2 - j]
        flat = w.reshape(-1)
        if j == 0:
            flat[0] = 0.0
        rng.standard_normal(out=flat[1:] if j == 0 else flat)
        yield m[:, j:j + w.shape[0]], w.T


def _fgn_circulant(H: float, N: int, rng: np.random.Generator) -> np.ndarray:
    """Sample N fractional-Gaussian-noise increments by circulant embedding.

    One buffer of N complex values holds, in turn, the length-2N circulant
    row, the eigenvalues (:func:`_fgn_eigenvalues`), the sample's spectrum
    packed as the real FFT's inverse needs it, and the increments: the
    inverse four-step FFT leaves them in ``z.view(float)[:N]``, and the
    returned view's ``base`` is ``z``, which :func:`fbm_path` turns into the
    samples in place.  Besides it, nothing larger than a block is
    allocated, numpy's FFT scratch included.
    A negative eigenvalue means the embedding is not a valid covariance:
    that raises :class:`NumericalError` and is never clipped.
    Every stage but the normal draws and the cumulative sum is a loop over
    independent blocks, which :func:`~roughvar.grid._in_halves` runs in two
    halves at once on a grid of more than 2**16 increments, and each block
    of normals is multiplied in on a second thread while the next is drawn
    (:func:`~roughvar.grid._behind`); each block keeps its shape and is made
    by one thread, so the samples are the same bits.
    """
    fs = _FourStep(N)
    m, lam_n, lam_min = _fgn_eigenvalues(H, N, fs)
    if lam_min < 0.0:
        raise NumericalError(
            f"circulant embedding of the fractional-noise covariance has a "
            f"negative eigenvalue ({lam_min:.3g}) at H={H}, N={N}"
        )
    # 2N normals in stream order w[0], w[1:N], w[N], w[N+1:]; bin k < N is
    # sqrt(lam_k / 2) (w[k] + i w[N+k]), and bins 0 and N are real, with
    # sqrt(2N) / N for the unnormalized inverse and 1/2 for the packing
    lam0 = m[0, 0].imag

    def first(blk, w) -> None:  # a block's roots are taken as its first normals go in
        root = np.multiply(blk.imag, 0.25 / N, out=blk.imag)
        np.multiply(w, np.sqrt(root, out=root), out=blk.real)

    w0 = rng.standard_normal()
    _behind(first, _normal_blocks(rng, m), N)
    wn = rng.standard_normal()
    _behind(lambda blk, w: np.multiply(blk.imag, w, out=blk.imag), _normal_blocks(rng, m), N)
    s0, sn = np.sqrt(lam0 / (2 * N)) * w0, np.sqrt(lam_n / (2 * N)) * wn
    m[0, 0] = complex(s0 + sn, s0 - sn)

    def pack(blocks) -> None:
        # bins k and N - k of the packed inverse are a + b and conj(a - b)
        for rows, x, y in blocks:
            u, a = m[x], np.conjugate(m[y])
            b = u - a
            a += u
            e = np.conjugate(fs.half_angle(x))
            e *= 1j
            b *= e
            np.subtract(a, b, out=m[y])
            np.negative(m.imag[y], out=m.imag[y])
            np.add(a, b, out=m[x])
            fs.rows(m, rows, inverse=True)

    _in_halves(pack, list(fs.mirror_blocks()), N)
    fs.columns(m, inverse=True)
    return m.reshape(-1).view(np.float64)[:N]


def fbm_path(H: float, grid_level: int, seed: int | None, label: str | None = None) -> Path:
    """Fractional Brownian motion on [0, 1] sampled at 2**grid_level + 1 points.

    Increments are exact-in-distribution via circulant embedding of the
    stationary fGN covariance, scaled by ``2**(-grid_level * H)`` so that
    ``Var(B(t) - B(s)) = |t - s|**(2H)`` on the grid.  Deterministic given
    the seed (0 when None).  A circulant embedding with a negative
    eigenvalue raises :class:`NumericalError`.  The samples are summed in the buffer that
    held the increments, which then shrinks to them: no second path-sized
    array is made, unless a tracer or profiler keeps the buffer from
    shrinking, when the samples are copied out of it.
    """
    if not 0.0 < H < 1.0:
        raise ValidationError(f"H must lie in (0, 1), got {H}")
    _check_max_level(grid_level)
    seed = _check_seed(seed)
    N = 1 << grid_level
    increments = _fgn_circulant(H, N, np.random.default_rng(seed))
    increments *= 2.0 ** (-grid_level * H)
    buf = increments.base  # the N complex values that hold the increments
    del increments
    _shifted_cumsum(buf.view(np.float64), N)
    # the samples fill the front N + 1 doubles; give the rest back in place
    try:
        buf.resize(N // 2 + 1)
        samples = buf.view(np.float64)[:N + 1]
    except ValueError:
        # a tracer or profiler holds more references to buf, so numpy cannot
        # tell that no view of it would dangle, and refuses: copy them out
        samples = buf.view(np.float64)[:N + 1].copy()
    return Path(grid_level=grid_level, samples=samples,
                label=label if label is not None else f"fbm(H={H}, seed={seed})")


def _shifted_cumsum(x: np.ndarray, N: int) -> None:
    """``x[:N + 1] = 0, cumsum(x[:N])`` in place, a block at a time.

    The N values move right by one from the end, then each block of the
    running sum starts from the last sum of the block before: the same
    sequential additions as one ``np.cumsum``, with no second array.
    """
    for hi in range(N, 0, -_FFT_BLOCK):
        lo = max(hi - _FFT_BLOCK, 0)
        x[lo + 1:hi + 1] = x[lo:hi]
    x[0] = 0.0
    for lo in range(1, N + 1, _FFT_BLOCK):
        blk = x[lo:min(lo + _FFT_BLOCK, N + 1)]
        if lo > 1:
            blk[0] += x[lo - 1]
        np.cumsum(blk, out=blk)


def smooth_perturbation(kind: str, amplitude: float, grid_level: int,
                        params: dict | None = None) -> Path:
    """A Lipschitz path with vanishing p-th variation for every p > 1.

    ``kind='sine'`` gives ``amplitude * sin(2*pi*freq*t)`` (``freq`` from
    params, default 1); ``kind='poly'`` evaluates the polynomial with
    coefficients ``params['coeffs']`` (constant term first) times
    ``amplitude``.  Amplitude, frequency and coefficients must be finite.
    The samples are written a block at a time, with no time grid.
    """
    params = dict(params or {})
    _check_max_level(grid_level)
    if kind == "sine":
        freq = float(params.get("freq", 1.0))
        shape = {"freq": freq}
        label = f"sine(amp={amplitude}, freq={freq})"
    elif kind == "poly":
        coeffs = np.asarray(params.get("coeffs", [0.0, 1.0]), dtype=np.float64)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValidationError("poly perturbation needs a 1-D coefficient list")
        shape = {"coeffs": coeffs.tolist()}
        label = f"poly(amp={amplitude}, coeffs={coeffs.tolist()})"
    else:
        raise ValidationError(f"unknown perturbation kind {kind!r}; expected sine or poly")
    for name, value in {"amplitude": amplitude, **shape}.items():
        if not np.isfinite(value).all():
            raise ValidationError(f"perturbation {name} must be finite, got {value}")
    n, step = (1 << grid_level) + 1, 2.0 ** (-grid_level)
    samples = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # the Path check names a bad sample
        for lo in range(0, n, _BLOCK):
            t = np.arange(lo, min(lo + _BLOCK, n), dtype=np.float64)
            t *= step  # the grid_times bits
            out = samples[lo:lo + t.size]
            if kind == "sine":
                np.multiply(t, 2.0 * np.pi * freq, out=out)
                np.sin(out, out=out)
            else:
                # Horner's rule in the order np.polynomial.polynomial.polyval
                # takes it, whose first value is coeffs[-1] + 0 * t
                out.fill(coeffs[-1] + 0.0)
                for c in coeffs[-2::-1]:
                    out *= t
                    out += c
            out *= amplitude
    return Path(grid_level=grid_level, samples=samples, label=label)


def takagi_path(H: float, grid_level: int, signs: str = "plus",
                seed: int | None = None, max_level: int | None = None) -> Path:
    """Takagi-class path: Schauder coefficients ``2**(m*(1/2-H)) * (+-1)``.

    Coefficient levels run to ``max_level`` (default: the grid level, the
    finest resolvable truncation); with none the path is zero.  The
    coefficients are those of :func:`~roughvar.schauder.takagi_coefficients`,
    made a block at a time as the recursion writes each level: no row or
    triangle of them is held.
    """
    M = grid_level if max_level is None else max_level
    rows, label = _takagi_rows(H, M, signs, seed)
    return _midpoint_path(rows, M, grid_level, label)


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
    """Declarative description of a generated path (for manifests and CLI).

    ``seed`` is checked (named as the CLI's ``--seed``) and, for a generator
    that draws (fBM, random-sign Takagi), a missing one becomes 0, the seed
    the path is drawn with.
    """

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
        draws = self.kind == "fbm" or (self.kind == "takagi"
                                       and self.params.get("signs") == "random")
        if draws or self.seed is not None:
            object.__setattr__(self, "seed", _check_seed(self.seed, "--seed"))

    def metadata(self) -> dict:
        return {"kind": self.kind, "grid_level": self.grid_level, "H": self.H,
                "seed": self.seed, "params": dict(self.params),
                "generator_version": GENERATOR_VERSION}


def generate(spec: GeneratorSpec, digest=None) -> Path:
    """Build the path described by ``spec``.

    The bytes of the coefficient file a ``custom_schauder`` spec names update
    the hashlib ``digest``, if given.
    """
    if spec.kind == "fbm":
        return fbm_path(spec.H, spec.grid_level, spec.seed)
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
    # custom_schauder: GeneratorSpec admits no other kind
    coeffs = read_coefficients_json(spec.params["coeffs_file"], digest)
    return schauder_eval(coeffs, spec.grid_level)
