"""Domain geometry: shape oracles driving the walk processes.

Every shape answers membership (open-set convention: boundary points are NOT
contained), a signed distance (negative inside), the distance to the boundary
from interior points, and a nearest-boundary projection.  Queries accept a
single point of shape ``(n,)`` or a batch ``(m, n)``.

Exactness contract: Ball, Box, Annulus, PuncturedBall and
HalfspaceIntersection report exact interior boundary distances; Difference
uses ``max(sd_a, -sd_b)``, whose magnitude is a safe lower bound inside (it
never overestimates, so a ball of that radius always stays interior).
Projections are nudged a few ulps outward so the returned point is never
``contains``-true after rounding; the nudge is ~1e-14 relative, far inside
the 1e-12 distance-agreement budget.
"""

from __future__ import annotations

import abc
import math
import re

import numpy as np
from numpy.typing import NDArray

_Array = NDArray[np.float64]

MAX_DIM = 16
_EPS = float(np.finfo(np.float64).eps)
# Bisection fallback: enough iterations to collapse any bracket to a few ulps.
_BISECT_ITERS = 120


def as_point(coords) -> _Array:
    """Validate one point; returns a read-only float64 array of shape (n,)."""
    a = np.array(coords, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"a point must be a flat coordinate sequence, got shape {a.shape}")
    if not 1 <= a.shape[0] <= MAX_DIM:
        raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise ValueError("coordinates must be finite")
    a.setflags(write=False)
    return a


def _count(value, name: str, minimum: int | None = 1, maximum: int | None = None) -> int:
    """Validate a count (walks, threads, steps, samples, a dimension) or, with
    minimum None, any integer; returns it as an int.  Integral ints, floats
    and numpy integers are accepted; booleans, fractions, NaN, infinities and
    non-numbers are refused, as is any value outside [minimum, maximum]."""
    n = None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        n = int(value)
    elif isinstance(value, (float, np.floating)) and float(value).is_integer():
        n = int(value)
    if (n is None or (minimum is not None and n < minimum)
            or (maximum is not None and n > maximum)):
        bound = ("" if minimum is None else f" >= {minimum}" if maximum is None
                 else f" in {minimum}..{maximum}")
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return n


def _prep(x, dim: int) -> tuple[_Array, bool]:
    """Coerce to shape (m, dim); returns (points, was_single_point)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[None, :]
        single = True
    elif a.ndim == 2:
        single = False
    else:
        raise ValueError(f"expected a point (n,) or a batch (m, n), got shape {a.shape}")
    if a.shape[1] != dim:
        raise ValueError(
            f"dimension mismatch: domain is {dim}-dimensional, points have {a.shape[1]} coordinates"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError("coordinates must be finite")
    return a, single


def _norms(v: _Array) -> _Array:
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _radial_units(v: _Array) -> _Array:
    """v / |v| rowwise, with |v| = 0 rows mapped to the first axis direction."""
    # prescale by the largest component so squaring cannot underflow to
    # subnormals (or overflow) before the square root
    m = np.max(np.abs(v), axis=1)
    safe = np.where(m == 0.0, 1.0, m)
    w = v / safe[:, None]
    t = _norms(w)
    t = np.where(t == 0.0, 1.0, t)
    u = w / t[:, None]
    zero = m == 0.0
    if np.any(zero):
        u[zero] = 0.0
        u[zero, 0] = 1.0
    return u


class Domain(abc.ABC):
    """A bounded open set queried through signed distances and projections."""

    dim: int

    # Shape internals operate on pre-validated (m, n) arrays, row by row: an
    # output row depends on its input row alone, never on the other rows, so
    # callers may batch points freely (run_walks projects all exits at once).
    @abc.abstractmethod
    def _sd(self, pts: _Array) -> _Array: ...

    @abc.abstractmethod
    def _project(self, pts: _Array) -> _Array: ...

    @abc.abstractmethod
    def diameter(self) -> float:
        """Diameter of the set (an upper-bound proxy for composite shapes)."""

    @abc.abstractmethod
    def bounding_box(self) -> tuple[_Array, _Array]:
        """Axis-aligned (lower, upper) corners enclosing the set."""

    def signed_distance(self, x) -> float | _Array:
        """Negative inside, positive outside; magnitude exact for primitive shapes."""
        pts, single = _prep(x, self.dim)
        d = self._sd(pts)
        return float(d[0]) if single else d

    def contains(self, x) -> bool | NDArray[np.bool_]:
        """Open-set membership: points on the boundary are not contained."""
        pts, single = _prep(x, self.dim)
        inside = self._sd(pts) < 0.0
        return bool(inside[0]) if single else inside

    def distance_to_boundary(self, x) -> float | _Array:
        """Distance from an interior point to the boundary; errors if exterior."""
        pts, single = _prep(x, self.dim)
        d = self._sd(pts)
        if np.any(d >= 0.0):
            raise ValueError("distance_to_boundary requires points inside the open domain")
        return float(-d[0]) if single else -d

    def nearest_boundary_point(self, x) -> _Array:
        """A boundary point p with |p - x| matching the boundary distance.

        Exact (to ~1e-14) for primitive shapes; for Difference the returned
        point is the nearest candidate on either operand boundary that lies
        on the actual boundary.  The result is never ``contains``-true.
        """
        pts, single = _prep(x, self.dim)
        p = self._project(pts)
        return p[0] if single else p

    def _bisect_boundary(self, p_in: _Array, p_out: _Array) -> _Array:
        """Boundary crossing on the segment [p_in, p_out]; returns the outside end."""
        a = p_in.copy()
        b = p_out.copy()
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (a + b)
            if self._sd(mid[None, :])[0] >= 0.0:
                b = mid
            else:
                a = mid
            if np.all(np.abs(b - a) <= _EPS * (1.0 + np.abs(b))):
                break
        return b


class Ball(Domain):
    """Open ball of given center and radius."""

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        radius = float(radius)
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError(f"radius must be positive and finite, got {radius}")
        self.radius = radius
        self.dim = self.center.shape[0]
        self._nudge = 16.0 * _EPS * (radius + float(np.max(np.abs(self.center), initial=0.0)))

    def __repr__(self) -> str:
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"

    def _sd(self, pts: _Array) -> _Array:
        return _norms(pts - self.center) - self.radius

    def _project(self, pts: _Array) -> _Array:
        u = _radial_units(pts - self.center)
        return self.center + (self.radius + self._nudge) * u

    def diameter(self) -> float:
        return 2.0 * self.radius

    def bounding_box(self) -> tuple[_Array, _Array]:
        return self.center - self.radius, self.center + self.radius


class Box(Domain):
    """Open axis-aligned box given by its lower and upper corners."""

    def __init__(self, min_corner, max_corner):
        self.min_corner = as_point(min_corner)
        self.max_corner = as_point(max_corner)
        if self.min_corner.shape != self.max_corner.shape:
            raise ValueError("box corners must share a dimension")
        if not np.all(self.min_corner < self.max_corner):
            raise ValueError("box requires min_corner < max_corner on every axis")
        self.dim = self.min_corner.shape[0]

    def __repr__(self) -> str:
        return f"Box(min_corner={self.min_corner.tolist()}, max_corner={self.max_corner.tolist()})"

    def _sd(self, pts: _Array) -> _Array:
        d = np.maximum(self.min_corner - pts, pts - self.max_corner)
        outside = _norms(np.maximum(d, 0.0))
        inside = np.minimum(np.max(d, axis=1), 0.0)
        return outside + inside

    def _project(self, pts: _Array) -> _Array:
        p = np.clip(pts, self.min_corner, self.max_corner)
        d = np.maximum(self.min_corner - pts, pts - self.max_corner)
        interior = np.all(d < 0.0, axis=1)
        if np.any(interior):
            rows = np.nonzero(interior)[0]
            sub = pts[rows]
            mlo = sub - self.min_corner
            mhi = self.max_corner - sub
            margins = np.minimum(mlo, mhi)
            axis = np.argmin(margins, axis=1)
            r = np.arange(rows.shape[0])
            take_lo = mlo[r, axis] <= mhi[r, axis]
            # Snapping the coordinate exactly onto the face keeps sd(p) == 0.
            p[rows, axis] = np.where(take_lo, self.min_corner[axis], self.max_corner[axis])
        return p

    def diameter(self) -> float:
        return float(np.linalg.norm(self.max_corner - self.min_corner))

    def bounding_box(self) -> tuple[_Array, _Array]:
        return self.min_corner.copy(), self.max_corner.copy()


class Annulus(Domain):
    """Open annulus: points strictly between the inner and outer radii."""

    def __init__(self, center, r_inner: float, r_outer: float):
        self.center = as_point(center)
        r_inner = float(r_inner)
        r_outer = float(r_outer)
        if not (math.isfinite(r_inner) and math.isfinite(r_outer) and 0.0 < r_inner < r_outer):
            raise ValueError(f"annulus requires 0 < r_inner < r_outer, got {r_inner}, {r_outer}")
        self.r_inner = r_inner
        self.r_outer = r_outer
        self.dim = self.center.shape[0]
        self._nudge = 16.0 * _EPS * (r_outer + float(np.max(np.abs(self.center), initial=0.0)))

    def __repr__(self) -> str:
        return f"Annulus(center={self.center.tolist()}, r_inner={self.r_inner}, r_outer={self.r_outer})"

    def _sd(self, pts: _Array) -> _Array:
        t = _norms(pts - self.center)
        return np.maximum(t - self.r_outer, self.r_inner - t)

    def _project(self, pts: _Array) -> _Array:
        v = pts - self.center
        t = _norms(v)
        u = _radial_units(v)
        inner_closer = (t - self.r_inner) <= (self.r_outer - t)
        radius = np.where(inner_closer, self.r_inner - self._nudge, self.r_outer + self._nudge)
        return self.center + radius[:, None] * u

    def diameter(self) -> float:
        return 2.0 * self.r_outer

    def bounding_box(self) -> tuple[_Array, _Array]:
        return self.center - self.r_outer, self.center + self.r_outer


class PuncturedBall(Domain):
    """Open ball with its center removed; the puncture is an exact boundary point.

    The boundary distance is min(radius - |x - c|, |x - c|): the puncture
    participates in the distance oracle exactly, with no fattening.
    """

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        radius = float(radius)
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError(f"radius must be positive and finite, got {radius}")
        self.radius = radius
        self.dim = self.center.shape[0]
        self._nudge = 16.0 * _EPS * (radius + float(np.max(np.abs(self.center), initial=0.0)))

    def __repr__(self) -> str:
        return f"PuncturedBall(center={self.center.tolist()}, radius={self.radius})"

    def _sd(self, pts: _Array) -> _Array:
        t = _norms(pts - self.center)
        return np.maximum(t - self.radius, -t)

    def _project(self, pts: _Array) -> _Array:
        v = pts - self.center
        t = _norms(v)
        u = _radial_units(v)
        outer = self.center + (self.radius + self._nudge) * u
        to_puncture = t <= self.radius - t
        return np.where(to_puncture[:, None], self.center[None, :], outer)

    def diameter(self) -> float:
        return 2.0 * self.radius

    def bounding_box(self) -> tuple[_Array, _Array]:
        return self.center - self.radius, self.center + self.radius


class HalfspaceIntersection(Domain):
    """Open convex polytope: all x with normal . x < offset for every halfspace.

    Construction certifies the set with small linear programs: a Chebyshev
    center (errors if the interior is empty) and per-axis extents (errors if
    unbounded).  Normals are unit-normalized, so the interior signed distance
    is exact; the exterior magnitude is a lower bound.
    """

    def __init__(self, halfspaces):
        rows = list(halfspaces)
        if not rows:
            raise ValueError("at least one halfspace is required")
        normals = np.array([as_point(n) for n, _ in rows], dtype=np.float64)
        offsets = np.array([float(b) for _, b in rows], dtype=np.float64)
        if not np.all(np.isfinite(offsets)):
            raise ValueError("offsets must be finite")
        lengths = _norms(normals)
        if np.any(lengths == 0.0):
            raise ValueError("halfspace normals must be nonzero")
        self.normals = normals / lengths[:, None]
        self.offsets = offsets / lengths
        self.dim = normals.shape[1]
        self.normals.setflags(write=False)
        self.offsets.setflags(write=False)
        self._anchor, self._inradius = self._chebyshev_center()
        self._bbox_lo, self._bbox_hi = self._solve_bbox()
        scale = float(np.max(np.abs(np.concatenate([self._bbox_lo, self._bbox_hi])), initial=1.0))
        self._nudge = 16.0 * _EPS * max(1.0, scale)

    def __repr__(self) -> str:
        return f"HalfspaceIntersection({self.normals.shape[0]} halfspaces, dim={self.dim})"

    def _chebyshev_center(self) -> tuple[_Array, float]:
        from scipy.optimize import linprog

        k, n = self.normals.shape
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_ub = np.hstack([self.normals, np.ones((k, 1))])
        res = linprog(c, A_ub=a_ub, b_ub=self.offsets, bounds=[(None, None)] * (n + 1), method="highs")
        if res.status == 3:
            raise ValueError("halfspace intersection is unbounded")
        if not res.success or res.x[-1] <= 0.0:
            raise ValueError("halfspace intersection has empty interior")
        return res.x[:n].copy(), float(res.x[-1])

    def _solve_bbox(self) -> tuple[_Array, _Array]:
        from scipy.optimize import linprog

        n = self.dim
        lo = np.empty(n)
        hi = np.empty(n)
        for i in range(n):
            for sign, out in ((1.0, lo), (-1.0, hi)):
                c = np.zeros(n)
                c[i] = sign
                res = linprog(c, A_ub=self.normals, b_ub=self.offsets,
                              bounds=[(None, None)] * n, method="highs")
                if res.status == 3:
                    raise ValueError("halfspace intersection is unbounded")
                if not res.success:
                    raise ValueError("halfspace intersection has empty interior")
                out[i] = sign * res.fun if sign > 0 else -res.fun
        return lo, hi

    def _margins(self, pts: _Array) -> _Array:
        # A sum over coordinates in a fixed order, not a BLAS product: a
        # matrix product may round a row differently depending on how many
        # rows it is given, and each row's margins must not depend on that.
        acc = pts[:, :1] * self.normals[:, 0]
        for i in range(1, self.dim):
            acc += pts[:, i:i + 1] * self.normals[:, i]
        return acc - self.offsets

    def _sd(self, pts: _Array) -> _Array:
        return np.max(self._margins(pts), axis=1)

    def _project(self, pts: _Array) -> _Array:
        marg = self._margins(pts)
        sd = np.max(marg, axis=1)
        p = pts.copy()
        inside = sd < 0.0
        if np.any(inside):
            rows = np.nonzero(inside)[0]
            j = np.argmax(marg[rows], axis=1)
            # Moving by the face margin lands on that face and keeps every
            # other constraint satisfied (their margins are at least as wide).
            shift = -marg[rows, j] + self._nudge
            p[rows] = pts[rows] + shift[:, None] * self.normals[j]
        outside = ~inside
        for row in np.nonzero(outside)[0]:
            p[row] = self._project_exterior(pts[row], marg[row])
        return p

    def _project_exterior(self, x: _Array, marg: _Array) -> _Array:
        best = None
        best_dist = np.inf
        for j in np.nonzero(marg > 0.0)[0]:
            cand = x - marg[j] * self.normals[j] + self._nudge * self.normals[j]
            if np.max(self._margins(cand[None, :])[0]) <= 4.0 * self._nudge:
                dist = float(np.linalg.norm(cand - x))
                if dist < best_dist:
                    best, best_dist = cand, dist
        if best is not None:
            return best
        # No single face projection is feasible (corner regions): walk the
        # segment from the certified interior anchor out to x.
        return self._bisect_boundary(self._anchor, x)

    def diameter(self) -> float:
        return float(np.linalg.norm(self._bbox_hi - self._bbox_lo))

    def bounding_box(self) -> tuple[_Array, _Array]:
        return self._bbox_lo.copy(), self._bbox_hi.copy()


class Difference(Domain):
    """Set difference a minus closure(b), as an open set.

    The signed distance max(sd_a, -sd_b) is exact in sign; its magnitude is a
    lower bound on the true boundary distance for interior points (safe for
    walk steps, which may only shrink).  distance_to_boundary therefore never
    overestimates; the constant K in the projection bound |p - x| <= K * dist
    is 1 whenever the nearest candidate boundary actually bounds the set, and
    is probed rather than proved for adversarial operand pairs.
    """

    def __init__(self, a: Domain, b: Domain):
        if not isinstance(a, Domain) or not isinstance(b, Domain):
            raise TypeError("Difference operands must be domains")
        if a.dim != b.dim:
            raise ValueError(f"dimension mismatch between operands: {a.dim} vs {b.dim}")
        self.a = a
        self.b = b
        self.dim = a.dim
        self._valid_tol = 1e-9 * max(1.0, a.diameter())
        self._nudge = 16.0 * _EPS * max(1.0, a.diameter())

    def __repr__(self) -> str:
        return f"Difference({self.a!r}, {self.b!r})"

    def _sd(self, pts: _Array) -> _Array:
        return np.maximum(self.a._sd(pts), -self.b._sd(pts))

    def _project(self, pts: _Array) -> _Array:
        pa = self.a._project(pts)
        pb = self.b._project(pts)
        # A candidate is usable when it lies on the actual boundary of the
        # difference: its own sd is ~0 rather than macroscopically interior
        # to the removed set / exterior to the base set.
        da = np.abs(self._sd(pa))
        db = np.abs(self._sd(pb))
        ok_a = da <= self._valid_tol
        ok_b = db <= self._valid_tol
        dist_a = np.where(ok_a, _norms(pa - pts), np.inf)
        dist_b = np.where(ok_b, _norms(pb - pts), np.inf)
        use_a = dist_a <= dist_b
        p = np.where(use_a[:, None], pa, pb)
        neither = ~(ok_a | ok_b)
        for row in np.nonzero(neither)[0]:
            if self._sd(pts[row][None, :])[0] < 0.0:
                p[row] = self._bisect_boundary(pts[row], pa[row])
            else:
                p[row] = pa[row] if dist_a[row] <= dist_b[row] else pb[row]
        # Operand projections nudge off their own boundary, which on the
        # subtracted sheet points back into this set.  Push any such row out
        # along the query ray (the sheet normal at the nearest point).
        step = self._nudge
        for _ in range(6):
            s = self._sd(p)
            wrong = s < 0.0
            if not np.any(wrong):
                break
            sign = np.where(self._sd(pts[wrong]) < 0.0, 1.0, -1.0)
            u = _radial_units(p[wrong] - pts[wrong]) * sign[:, None]
            p[wrong] = p[wrong] + (np.abs(s[wrong]) + step)[:, None] * u
            step *= 4.0
        return p

    def diameter(self) -> float:
        return self.a.diameter()

    def bounding_box(self) -> tuple[_Array, _Array]:
        return self.a.bounding_box()


class Cone:
    """Solid finite cone used to certify boundary regularity; not a walk domain."""

    def __init__(self, tip, axis, half_angle: float, height: float):
        self.tip = as_point(tip)
        axis = np.array(as_point(axis))
        if axis.shape != self.tip.shape:
            raise ValueError("cone tip and axis must share a dimension")
        norm = float(np.linalg.norm(axis))
        if norm == 0.0:
            raise ValueError("cone axis is degenerate (zero vector)")
        axis /= norm
        axis.setflags(write=False)
        self.axis = axis
        half_angle = float(half_angle)
        if not (math.isfinite(half_angle) and 0.0 < half_angle < math.pi / 2.0):
            raise ValueError(f"half_angle must lie strictly between 0 and pi/2, got {half_angle}")
        self.half_angle = half_angle
        height = float(height)
        if not (math.isfinite(height) and height > 0.0):
            raise ValueError(f"height must be positive and finite, got {height}")
        self.height = height
        self.dim = self.tip.shape[0]

    def __repr__(self) -> str:
        return (f"Cone(tip={self.tip.tolist()}, axis={self.axis.tolist()}, "
                f"half_angle={self.half_angle}, height={self.height})")


def cone_parameters(cone: Cone) -> float:
    """Shape ratio R = sin(half_angle) / (1 - sin(half_angle)) of a cone.

    R is the radius of the largest ball inscribed in the cone at unit
    distance from the tip, the quantity the escape-probability bound needs.
    A half-angle whose sine rounds to 1 has no finite R and is refused.
    """
    s = math.sin(cone.half_angle)
    if s == 1.0:
        raise ValueError(f"half_angle {cone.half_angle} is too close to pi/2 for a finite R")
    return s / (1.0 - s)


# --------------------------------------------------------------------------
# One grammar for domain, oracle and boundary data expressions: name(groups)
# with ',' between numbers and ';' between groups, as in ball(0,0;1); a file
# path, as in tabulated(f.csv); or diff(a, b).  Whitespace is ignored.
# --------------------------------------------------------------------------

class DomainParseError(ValueError):
    """Error in a domain, oracle or boundary data expression, with its column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


# A number (or a malformed one, whole), a name, punctuation, or else "bad".
_TOKEN = re.compile(r"\s*(?:(?P<number>[-+]?(?:inf|nan)\b|[-+.\d][\w.]*(?:(?<=[eE])[-+][\w.]*)?)"
                    r"|(?P<name>[^\W\d]\w*)|(?P<punct>[(),;])|(?P<bad>.|$))", re.S)
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)", re.ASCII)


class _TokenCursor:
    """Reads names, numbers and ( ) , ; on demand, so a file path is never
    tokenized.  inf and nan are numbers, which constructors refuse."""

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise TypeError(f"an expression must be a string, got {type(text).__name__}")
        self.text = text
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        """The next (kind, value, column) token, or None at the end."""
        m = _TOKEN.match(self.text, self.pos)
        kind, col = m.lastgroup, m.start(m.lastgroup)
        if kind != "bad":
            return kind, m.group(kind), col
        if col < len(self.text):
            raise DomainParseError(f"unexpected character {self.text[col]!r}", col)
        return None

    def next(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise DomainParseError("unexpected end of input", len(self.text))
        if tok[0] != kind or value not in (None, tok[1]):
            want = kind if value is None else repr(value)
            raise DomainParseError(f"expected {want}, got {tok[1]!r}", tok[2])
        self.pos = tok[2] + len(tok[1])
        return tok

    def number(self) -> float:
        _, value, col = self.next("number")
        if not _NUMBER.fullmatch(value):
            raise DomainParseError(f"bad number {value!r}", col)
        return float(value)

    def groups(self) -> list[list[float]]:
        """Numeric groups up to and including the closing ')'."""
        groups = [[self.number()]]
        while (sep := self.next("punct"))[1] != ")":
            if sep[1] == "(":
                raise DomainParseError("expected ',', ';' or ')', got '('", sep[2])
            if sep[1] == ";":
                groups.append([])
            groups[-1].append(self.number())
        return groups

    def path(self) -> str:
        """The raw text up to the last ')', stripped; the cursor moves past it."""
        close = self.text.rfind(")")
        if close < self.pos:
            raise DomainParseError("unexpected end of input", len(self.text))
        path, self.pos = self.text[self.pos:close].strip(), close + 1
        return path

    def end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise DomainParseError(f"unexpected trailing input {tok[1]!r}", tok[2])


def _call(cur: _TokenCursor, build, readers: dict):
    """build(name, args) for name(args); readers[name], if any, reads the args
    and ')', else groups() does.  A ValueError from build gets the name's column."""
    _, name, col = cur.next("name")
    cur.next("punct", "(")
    args = readers[name](cur) if name in readers else cur.groups()
    try:
        return build(name, args)
    except ValueError as exc:
        raise DomainParseError(str(exc), col) from exc


def _parse_call(text: str, build, readers: dict):
    """A whole expression that is one call; see _call."""
    cur = _TokenCursor(text)
    value = _call(cur, build, readers)
    cur.end()
    return value


# shape -> (constructor of its two groups, length of the second; 0: as the first)
_SHAPES = {
    "ball": (lambda c, r: Ball(c, r[0]), 1),
    "punctured_ball": (lambda c, r: PuncturedBall(c, r[0]), 1),
    "box": (Box, 0),
    "annulus": (lambda c, r: Annulus(c, r[0], r[1]), 2),
}


def _domain_from(name: str, args) -> Domain:
    if name == "diff":
        return Difference(*args)
    if name == "halfspaces":
        if any(len(g) < 2 for g in args):
            raise ValueError("each halfspace needs normal coordinates and an offset")
        return HalfspaceIntersection((g[:-1], g[-1]) for g in args)
    if name not in _SHAPES:
        raise ValueError(f"unknown shape {name!r}")
    make, tail = _SHAPES[name]
    tail = tail or len(args[0])
    if len(args) != 2:
        raise ValueError(f"{name} expects 2 ';'-separated groups, got {len(args)}")
    if len(args[1]) != tail:
        raise ValueError(f"{name} expects {tail} number(s) after ';', got {len(args[1])}")
    return make(*args)


def _diff_operands(cur: _TokenCursor) -> tuple[Domain, Domain]:
    """The a, b) of diff(a, b)."""
    a = _call(cur, _domain_from, _DOMAIN_READERS)
    cur.next("punct", ",")
    b = _call(cur, _domain_from, _DOMAIN_READERS)
    cur.next("punct", ")")
    return a, b


_DOMAIN_READERS = {"diff": _diff_operands}


def parse_domain(text: str) -> Domain:
    """Parse a domain expression like ``diff(box(0,0;1,1), ball(0.5,0.5;0.2))``."""
    return _parse_call(text, _domain_from, _DOMAIN_READERS)
