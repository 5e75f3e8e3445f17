"""Closed-form harmonic functions used to cross-check the walk estimators.

Each oracle evaluates u(x) for a function that is harmonic where the walks
run, so the estimator's boundary average must reproduce u at the start
point.  ``laplacian`` is identically zero for oracles; the module also ships
two deliberately non-harmonic probe functions (|x|^2 and x1^4) with their
analytic Laplacians for the averaging-residual diagnostics.
"""

from __future__ import annotations

import abc
import math

import numpy as np
from numpy.typing import NDArray

from .geometry import MAX_DIM, as_point, _parse_call, _prep, _TokenCursor

_Array = NDArray[np.float64]

# Refuse Poisson-kernel quadrature closer to the circle than this: the
# kernel's Fourier tail decays like |x|^M, so accuracy collapses only in a
# vanishing boundary layer.
POISSON_RADIUS_LIMIT = 1.0 - 1e-6
MIN_POISSON_NODES = 64


class HarmonicOracle(abc.ABC):
    """A function harmonic on its stated region, with vectorized evaluation."""

    dim: int | None

    @abc.abstractmethod
    def eval(self, x) -> float | _Array:
        """u(x) for a point (n,) or batch (m, n)."""

    def laplacian(self, x) -> float | _Array:
        """Identically zero: the defining property of these oracles."""
        a = np.asarray(x, dtype=np.float64)
        if a.ndim == 1:
            return 0.0
        return np.zeros(a.shape[0])


class Linear(HarmonicOracle):
    """u(x) = a . x + b; harmonic everywhere."""

    def __init__(self, a, b: float = 0.0):
        self.a = as_point(a)
        self.b = float(b)
        if not math.isfinite(self.b):
            raise ValueError(f"offset b must be finite, got {b!r}")
        self.dim = self.a.shape[0]

    def __repr__(self) -> str:
        return f"Linear(a={self.a.tolist()}, b={self.b})"

    def eval(self, x) -> float | _Array:
        pts, single = _prep(x, self.dim)
        v = pts @ self.a + self.b
        return float(v[0]) if single else v


class HarmonicQuadratic(HarmonicOracle):
    """u(x) = x^T M x for a symmetric trace-free matrix M; harmonic everywhere.

    Symmetry and zero trace are validated at construction, since the
    Laplacian of x^T M x is 2 tr(M).
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        if not 1 <= m.shape[0] <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {m.shape[0]}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(m).max()))
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("matrix must be symmetric")
        if abs(float(np.trace(m))) > 1e-12 * scale:
            raise ValueError("matrix must be trace-free (the Laplacian is 2*trace)")
        m.setflags(write=False)
        self.matrix = m
        self.dim = m.shape[0]

    def __repr__(self) -> str:
        return f"HarmonicQuadratic({self.matrix.tolist()})"

    def eval(self, x) -> float | _Array:
        pts, single = _prep(x, self.dim)
        v = np.einsum("ij,jk,ik->i", pts, self.matrix, pts)
        return float(v[0]) if single else v


class FundamentalSolution(HarmonicOracle):
    """Radial profile of the Laplacian centered at a pole z0 outside the domain.

    v(t) = -log t in two dimensions and sign(n-2) * t^(2-n) otherwise, so the
    profile is decreasing in every dimension.  Evaluation at the pole errors.
    """

    def __init__(self, z0):
        self.z0 = as_point(z0)
        self.dim = self.z0.shape[0]

    def __repr__(self) -> str:
        return f"FundamentalSolution(z0={self.z0.tolist()})"

    def eval(self, x) -> float | _Array:
        pts, single = _prep(x, self.dim)
        t = np.linalg.norm(pts - self.z0, axis=1)
        if np.any(t == 0.0):
            raise ValueError("fundamental solution is singular at its pole z0")
        v = radial_profile(t, self.dim)
        return float(v[0]) if single else v


def radial_profile(t, n_dim: int):
    """The decreasing harmonic radial profile v(t) in n_dim dimensions."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("the radial profile requires t > 0")
    if n_dim == 2:
        return -np.log(t)
    sign = 1.0 if n_dim > 2 else -1.0
    return sign * t ** (2.0 - n_dim)


def _circle_samples(values) -> _Array:
    """Circle samples as a read-only float64 copy: a flat array of at least
    MIN_POISSON_NODES finite values."""
    vals = np.array(values, dtype=np.float64)
    if vals.ndim != 1 or vals.shape[0] < MIN_POISSON_NODES:
        raise ValueError(f"need at least {MIN_POISSON_NODES} equispaced boundary samples")
    if not np.all(np.isfinite(vals)):
        raise ValueError("boundary samples must be finite")
    vals.setflags(write=False)
    return vals


def poisson_disk_eval(values, x) -> float | _Array:
    """Harmonic extension into the unit disk of samples on the unit circle.

    ``values[j]`` is the boundary value at angle 2*pi*j/M.  The Poisson
    kernel integral is evaluated with the trapezoid rule on those nodes
    (spectrally accurate for smooth data).  The result is a finite sum of
    Poisson kernels and therefore exactly harmonic, but for a fixed M the
    quadrature error grows like r**M as |x| -> 1, where the kernel narrows
    below the node spacing.  Points with |x| >= 1 - 1e-6 are refused
    outright: the kernel is too singular there for fixed-node quadrature.
    """
    vals = _circle_samples(values)
    pts, single = _prep(x, 2)
    r2 = np.einsum("ij,ij->i", pts, pts)
    if np.any(np.sqrt(r2) >= POISSON_RADIUS_LIMIT):
        raise ValueError(f"evaluation requires |x| < {POISSON_RADIUS_LIMIT}")
    m = vals.shape[0]
    theta = 2.0 * np.pi * np.arange(m) / m
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    # |x - e(theta)|^2, shape (len(pts), M)
    d2 = r2[:, None] - 2.0 * pts @ nodes.T + 1.0
    kernel = (1.0 - r2)[:, None] / d2
    out = (kernel * vals).mean(axis=1)
    return float(out[0]) if single else out


class PoissonDisk(HarmonicOracle):
    """Harmonic function on the unit disk tabulated by circle samples."""

    def __init__(self, values):
        self.values = _circle_samples(values)
        self.dim = 2

    def __repr__(self) -> str:
        return f"PoissonDisk({self.values.shape[0]} samples)"

    def eval(self, x) -> float | _Array:
        return poisson_disk_eval(self.values, x)


class ProbeFunction(abc.ABC):
    """A smooth non-harmonic test function with its analytic Laplacian."""

    @abc.abstractmethod
    def eval(self, x) -> float | _Array: ...

    @abc.abstractmethod
    def laplacian(self, x) -> float | _Array: ...


class SquaredNorm(ProbeFunction):
    """u(x) = |x|^2 with Laplacian 2n: the flattest non-harmonic probe."""

    def eval(self, x) -> float | _Array:
        a = np.asarray(x, dtype=np.float64)
        if a.ndim == 1:
            return float(a @ a)
        return np.einsum("ij,ij->i", a, a)

    def laplacian(self, x) -> float | _Array:
        a = np.asarray(x, dtype=np.float64)
        if a.ndim == 1:
            return 2.0 * a.shape[0]
        return np.full(a.shape[0], 2.0 * a.shape[1])


class FirstCoordinateQuartic(ProbeFunction):
    """u(x) = x1^4 with Laplacian 12 x1^2: probes the quartic error term."""

    def eval(self, x) -> float | _Array:
        a = np.asarray(x, dtype=np.float64)
        if a.ndim == 1:
            return float(a[0] ** 4)
        return a[:, 0] ** 4

    def laplacian(self, x) -> float | _Array:
        a = np.asarray(x, dtype=np.float64)
        if a.ndim == 1:
            return float(12.0 * a[0] ** 2)
        return 12.0 * a[:, 0] ** 2


PROBE_FUNCTIONS: dict[str, ProbeFunction] = {
    "squared_norm": SquaredNorm(),
    "first_coord_quartic": FirstCoordinateQuartic(),
}


# --------------------------------------------------------------------------
# Oracle expressions, in geometry's grammar: linear(1,0;0)  quad(1,-1)
#   quad(0,0.5;0.5,0)  fundamental(2,0)  poisson(samples.csv)
# --------------------------------------------------------------------------

def _oracle_from(name: str, args) -> HarmonicOracle:
    """The oracle called name, from its numeric groups or, for poisson, its path."""
    if name == "poisson":
        if not args:
            raise ValueError("poisson(...) needs a CSV path of circle samples")
        samples = np.loadtxt(args, delimiter=",", ndmin=1)
        if samples.ndim > 1:
            samples = samples[:, -1]
        return PoissonDisk(samples)
    if name == "linear":
        if len(args) != 2 or len(args[1]) != 1:
            raise ValueError("linear expects linear(a1,...,an;b)")
        return Linear(args[0], args[1][0])
    if name == "fundamental":
        if len(args) != 1:
            raise ValueError("fundamental expects fundamental(z1,...,zn)")
        return FundamentalSolution(args[0])
    if name == "quad":
        if len(args) == 1:
            return HarmonicQuadratic(np.diag(args[0]))
        width = len(args[0])
        if any(len(g) != width for g in args) or len(args) != width:
            raise ValueError("quad expects a diagonal quad(d1,...,dn) or full rows quad(r1;...;rn)")
        return HarmonicQuadratic(args)
    raise ValueError(f"unknown oracle {name!r}")


_ORACLE_READERS = {"poisson": _TokenCursor.path}


def parse_oracle(text: str) -> HarmonicOracle:
    """Parse an oracle expression; see the grammar block above."""
    return _parse_call(text, _oracle_from, _ORACLE_READERS)
