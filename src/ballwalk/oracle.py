"""Functions of a point: the boundary data F and the closed-form oracles.

Everything the estimators evaluate at exit points is a ``BoundaryData``:
the simple data (constant, a coordinate, a distance, tabulated samples),
the closed-form harmonic oracles and the two non-harmonic probe functions.
An oracle evaluates u(x) for a function that is harmonic where the walks
run, so it is its own boundary trace and the estimator's boundary average
must reproduce u at the start point; its ``laplacian`` is identically zero.
The probe functions |x|^2 and x1^4 carry their analytic Laplacians for the
averaging-residual diagnostics.  This module also reads oracle and
boundary-data expressions in geometry's grammar.
"""

from __future__ import annotations

import abc
import math

import numpy as np
from numpy.typing import NDArray

from .geometry import MAX_DIM, as_point, _count, _parse_call, _prep, _TokenCursor

_Array = NDArray[np.float64]

# Refuse Poisson-kernel quadrature closer to the circle than this: the
# kernel's Fourier tail decays like |x|^M, so accuracy collapses only in a
# vanishing boundary layer.
POISSON_RADIUS_LIMIT = 1.0 - 1e-6
MIN_POISSON_NODES = 64


class BoundaryData(abc.ABC):
    """Boundary values F, evaluated on batches of exit points."""

    @abc.abstractmethod
    def eval(self, points) -> float | _Array:
        """F at a point (n,) or batch (m, n)."""


class HarmonicOracle(BoundaryData):
    """A function harmonic on its stated region, with vectorized evaluation.

    As boundary data it is its own trace: the estimator has a closed-form
    target, the function's own value at the start point.
    """

    dim: int | None

    def laplacian(self, x) -> float | _Array:
        """Identically zero: the defining property of these oracles."""
        pts, single = _prep(x, self.dim)
        return 0.0 if single else np.zeros(pts.shape[0])


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


class PoissonDisk(HarmonicOracle):
    """Harmonic extension into the unit disk of samples on the unit circle.

    ``values[j]`` is the boundary value at angle 2*pi*j/M; at least
    MIN_POISSON_NODES finite samples are required.  The Poisson kernel
    integral is evaluated with the trapezoid rule on those nodes (spectrally
    accurate for smooth data).  The result is a finite sum of Poisson kernels
    and therefore exactly harmonic, but for a fixed M the quadrature error
    grows like r**M as |x| -> 1, where the kernel narrows below the node
    spacing.  Points with |x| >= 1 - 1e-6 are refused outright: the kernel is
    too singular there for fixed-node quadrature.
    """

    def __init__(self, values):
        vals = np.array(values, dtype=np.float64)
        if vals.ndim != 1 or vals.shape[0] < MIN_POISSON_NODES:
            raise ValueError(f"need at least {MIN_POISSON_NODES} equispaced boundary samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("boundary samples must be finite")
        vals.setflags(write=False)
        self.values = vals
        self.dim = 2

    def __repr__(self) -> str:
        return f"PoissonDisk({self.values.shape[0]} samples)"

    def eval(self, x) -> float | _Array:
        pts, single = _prep(x, 2)
        r2 = np.einsum("ij,ij->i", pts, pts)
        if np.any(np.sqrt(r2) >= POISSON_RADIUS_LIMIT):
            raise ValueError(f"evaluation requires |x| < {POISSON_RADIUS_LIMIT}")
        m = self.values.shape[0]
        theta = 2.0 * np.pi * np.arange(m) / m
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        # |x - e(theta)|^2, shape (len(pts), M)
        d2 = r2[:, None] - 2.0 * pts @ nodes.T + 1.0
        kernel = (1.0 - r2)[:, None] / d2
        out = (kernel * self.values).mean(axis=1)
        return float(out[0]) if single else out


class SquaredNorm(BoundaryData):
    """u(x) = |x|^2 with Laplacian 2n: the flattest non-harmonic probe."""

    def eval(self, x) -> float | _Array:
        pts, single = _prep(x, None)
        v = np.einsum("ij,ij->i", pts, pts)
        return float(v[0]) if single else v

    def laplacian(self, x) -> float | _Array:
        pts, single = _prep(x, None)
        return 2.0 * pts.shape[1] if single else np.full(pts.shape[0], 2.0 * pts.shape[1])


class FirstCoordinateQuartic(BoundaryData):
    """u(x) = x1^4 with Laplacian 12 x1^2: probes the quartic error term."""

    def eval(self, x) -> float | _Array:
        pts, single = _prep(x, None)
        v = pts[:, 0] ** 4
        return float(v[0]) if single else v

    def laplacian(self, x) -> float | _Array:
        pts, single = _prep(x, None)
        v = 12.0 * pts[:, 0] ** 2
        return float(v[0]) if single else v


PROBE_FUNCTIONS: dict[str, BoundaryData] = {
    "squared_norm": SquaredNorm(),
    "first_coord_quartic": FirstCoordinateQuartic(),
}


class Constant(BoundaryData):
    def __init__(self, value: float):
        self.value = float(value)
        if not math.isfinite(self.value):
            raise ValueError(f"constant boundary value must be finite, got {value!r}")

    def __repr__(self) -> str:
        return f"Constant({self.value})"

    def eval(self, points) -> float | _Array:
        pts, single = _prep(points, None)
        return self.value if single else np.full(pts.shape[0], self.value)


class Coordinate(BoundaryData):
    """F(x) = x_k with 1-based index k."""

    def __init__(self, index: int):
        self.index = _count(index, "coordinate index")

    def __repr__(self) -> str:
        return f"Coordinate({self.index})"

    def eval(self, points) -> float | _Array:
        pts, single = _prep(points, None)
        k = self.index - 1
        if k >= pts.shape[1]:
            raise ValueError(f"coordinate {self.index} out of range for dimension {pts.shape[1]}")
        return float(pts[0, k]) if single else pts[:, k].copy()


class DistanceTo(BoundaryData):
    """F(x) = |x - p|."""

    def __init__(self, point):
        self.point = as_point(point)

    def __repr__(self) -> str:
        return f"DistanceTo({self.point.tolist()})"

    def eval(self, points) -> float | _Array:
        pts, single = _prep(points, self.point.shape[0])
        d = np.linalg.norm(pts - self.point, axis=1)
        return float(d[0]) if single else d


class Tabulated(BoundaryData):
    """Finite boundary samples, extended continuously to all other points.

    The anchor points (m, n) and their m values must be finite.  Exit points
    almost never coincide with an anchor, so evaluation off the anchor set
    uses the Hausdorff extension formula rather than nearest-neighbor
    snapping:
        min over anchors y of  F(y) + |x - y| / dist(x, A) - 1,
    which reproduces F on A in the limit and is continuous everywhere.  On an
    anchor the anchor's own value is returned.  The "- 1" is kept inside the
    minimum, matching the classical (Hausdorff) formula verbatim even though
    the constant factors out; variants of the formula move it outside.
    """

    def __init__(self, points, values):
        pts = np.array(points, dtype=np.float64)
        vals = np.array(values, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("anchor points must be a (m, n) array")
        if vals.shape != (pts.shape[0],):
            raise ValueError("need one value per anchor point")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ValueError("anchors must be finite")
        pts.setflags(write=False)
        vals.setflags(write=False)
        self.points, self.values = pts, vals

    def __repr__(self) -> str:
        return f"Tabulated({self.points.shape[0]} samples, dim={self.points.shape[1]})"

    def eval(self, points) -> float | _Array:
        q, single = _prep(points, self.points.shape[1])
        # (len(q), m) pairwise distances
        d = np.linalg.norm(q[:, None, :] - self.points[None, :, :], axis=2)
        dist_a = d.min(axis=1)
        on_anchor = dist_a == 0.0
        out = np.empty(q.shape[0])
        off = ~on_anchor
        out[off] = (self.values[None, :] + d[off] / dist_a[off, None] - 1.0).min(axis=1)
        out[on_anchor] = self.values[d[on_anchor].argmin(axis=1)]
        return float(out[0]) if single else out


# --------------------------------------------------------------------------
# Oracle expressions, in geometry's grammar: linear(1,0;0)  quad(1,-1)
#   quad(0,0.5;0.5,0)  fundamental(2,0)  poisson(samples.csv)
# Boundary data adds: constant(c)  coordinate(k)  distance_to(p1,...,pn)
#   tabulated(file.csv)
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


def _data_from(name: str, args) -> BoundaryData:
    """The boundary data called name, from its numeric groups or, for
    tabulated, its path; any other name is an oracle, its own trace."""
    if name in ("constant", "coordinate"):
        if len(args) != 1 or len(args[0]) != 1:
            raise ValueError(f"{name} expects one number")
        return (Constant if name == "constant" else Coordinate)(args[0][0])
    if name == "distance_to":
        if len(args) != 1:
            raise ValueError("distance_to expects distance_to(p1,...,pn)")
        return DistanceTo(args[0])
    if name == "tabulated":
        if not args:
            raise ValueError("tabulated(...) needs a CSV path of x1,...,xn,value rows")
        rows = np.loadtxt(args, delimiter=",", ndmin=2)
        if rows.shape[1] < 2:
            raise ValueError("tabulated CSV rows must be x1,...,xn,value")
        return Tabulated(rows[:, :-1], rows[:, -1])
    return _oracle_from(name, args)


_ORACLE_READERS = {"poisson": _TokenCursor.path}


def parse_oracle(text: str) -> HarmonicOracle:
    """Parse an oracle expression; see the grammar block above."""
    return _parse_call(text, _oracle_from, _ORACLE_READERS)


def parse_boundary_data(text: str) -> BoundaryData:
    """Parse boundary data: constant(c), coordinate(k), distance_to(p...),
    tabulated(file.csv), or any oracle expression (its own trace)."""
    return _parse_call(text, _data_from, {**_ORACLE_READERS, "tabulated": _TokenCursor.path})
