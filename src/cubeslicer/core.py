"""Cube domain types, crossing predicates, and the classical slicing constructions.

Vertices of the n-cube live in {-1,+1}^n and are stored as bit masks
(bit i set <=> coordinate i equals +1).  Hyperplanes come in two arithmetic
kinds: "exact" (Fraction coefficients, sign decisions by rational
arithmetic) and "float" (doubles, sign decisions with a scale-aware zero
tolerance).  Crossing semantics are "strict" (the plane meets the edge and
contains neither endpoint) or "relaxed" (the plane may additionally contain
exactly one endpoint).  Crossing is invariant under positive scaling of
(coefficients, threshold), so exact planes are stored unnormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    AllZeroCoefficients,
    DimensionMismatch,
    DimensionZero,
    MixedScalarKinds,
    NonFiniteScalar,
    UnknownConstruction,
)

EXACT = "exact"
FLOAT = "float"
STRICT = "strict"
RELAXED = "relaxed"

Scalar = Fraction | float


@dataclass(frozen=True)
class Vertex:
    """A point of {-1,+1}^n encoded as a sign bit mask."""

    n: int
    signs: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DimensionZero("vertex dimension must be >= 1")
        if self.signs >> self.n:
            raise ValueError("sign bits set above dimension")

    @classmethod
    def from_signs(cls, signs: Sequence[int]) -> "Vertex":
        mask = 0
        for i, s in enumerate(signs):
            if s == 1:
                mask |= 1 << i
            elif s != -1:
                raise ValueError("coordinates must be +1 or -1")
        return cls(len(signs), mask)

    def coord(self, i: int) -> int:
        return 1 if (self.signs >> i) & 1 else -1

    def coords(self) -> tuple[int, ...]:
        return tuple(self.coord(i) for i in range(self.n))

    def flip(self, k: int) -> "Vertex":
        return Vertex(self.n, self.signs ^ (1 << k))


@dataclass(frozen=True)
class Edge:
    """The cube edge incident to `base` and parallel to axis `axis` (0-based)."""

    base: Vertex
    axis: int

    def __post_init__(self):
        if not 0 <= self.axis < self.base.n:
            raise DimensionMismatch(f"axis {self.axis} outside dimension {self.base.n}")

    @property
    def n(self) -> int:
        return self.base.n


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : <coeffs, x> = threshold}, in exact or float arithmetic.

    norm_cache holds the Euclidean norm of the coefficient vector in float
    kind (recorded at construction, the plane itself stays unscaled).
    """

    coeffs: tuple
    threshold: Scalar
    kind: str
    norm_cache: float | None = None

    @property
    def n(self) -> int:
        return len(self.coeffs)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise NonFiniteScalar(f"non-finite scalar {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _as_float(x) -> float:
    try:
        v = float(Fraction(x)) if isinstance(x, str) else float(x)
    except OverflowError as exc:
        raise NonFiniteScalar(f"scalar {x!r} does not fit float range") from exc
    if not math.isfinite(v):
        raise NonFiniteScalar(f"non-finite scalar {x!r}")
    return v


def make_hyperplane(coeffs: Sequence, threshold, kind: str = EXACT) -> Hyperplane:
    """Validate and build a hyperplane in the requested arithmetic kind."""
    coeffs = list(coeffs)
    if len(coeffs) == 0:
        raise DimensionZero("hyperplane needs at least one coefficient")
    if kind == EXACT:
        cs = tuple(_as_fraction(c) for c in coeffs)
        if all(c == 0 for c in cs):
            raise AllZeroCoefficients("all coefficients are zero")
        return Hyperplane(cs, _as_fraction(threshold), EXACT, None)
    if kind == FLOAT:
        cs = tuple(_as_float(c) for c in coeffs)
        if all(c == 0.0 for c in cs):
            raise AllZeroCoefficients("all coefficients are zero")
        norm = math.sqrt(math.fsum(c * c for c in cs))
        return Hyperplane(cs, _as_float(threshold), FLOAT, norm)
    raise ValueError(f"unknown arithmetic kind {kind!r}")


@dataclass(frozen=True)
class Configuration:
    """An ordered list of same-dimension hyperplanes plus crossing semantics."""

    n: int
    planes: tuple[Hyperplane, ...]
    mode: str = STRICT

    def __post_init__(self):
        if self.mode not in (STRICT, RELAXED):
            raise ValueError(f"unknown crossing mode {self.mode!r}")
        for h in self.planes:
            if h.n != self.n:
                raise DimensionMismatch(f"plane of dimension {h.n} in a {self.n}-cube configuration")
        kinds = {h.kind for h in self.planes}
        if len(kinds) > 1:
            raise MixedScalarKinds("configuration mixes exact and float planes")

    @property
    def m(self) -> int:
        return len(self.planes)

    @property
    def kind(self) -> str:
        return self.planes[0].kind if self.planes else EXACT


def edge_endpoints(e: Edge) -> tuple[Vertex, Vertex]:
    """The two endpoints (u, u'), where u' is u with the edge-axis sign flipped."""
    return e.base, e.base.flip(e.axis)


def _side(h: Hyperplane, u: Vertex):
    """<coeffs, u> - threshold, in the plane's own arithmetic."""
    if h.n != u.n:
        raise DimensionMismatch(f"plane dimension {h.n} vs vertex dimension {u.n}")
    mask = u.signs
    total = 0
    for i, c in enumerate(h.coeffs):
        total = total + c if (mask >> i) & 1 else total - c
    return total - h.threshold


def zero_tolerance(coeffs, threshold):
    """Scale-aware zero tolerance for float-kind sign decisions:
    1e-12 * max(1, |t|, l1(v)).  Takes one plane's coefficients and threshold,
    or an (m, n) coefficient stack with m thresholds (one tolerance per plane)."""
    l1 = np.abs(np.asarray(coeffs, dtype=np.float64)).sum(axis=-1)
    return 1e-12 * np.maximum(1.0, np.maximum(np.abs(threshold), l1))


def _sign(value, tol) -> int:
    # tol is None in exact arithmetic: zero is decided exactly.
    if tol is not None and abs(value) < tol:
        return 0
    return (value > 0) - (value < 0)


def edge_crosses(h: Hyperplane, e: Edge, mode: str = STRICT) -> bool:
    """Does the edge cross the plane?

    With s = <v,u> - t and s' = <v,u'> - t over the endpoints: strict mode is
    s*s' < 0; relaxed mode additionally accepts exactly one of s, s' being
    zero.  Float kind treats |s| below the zero tolerance as zero.  This is
    the scalar reference; the array paths use sign_pair_crossings.
    """
    u, w = edge_endpoints(e)
    tol = None if h.kind == EXACT else zero_tolerance(h.coeffs, h.threshold)
    a = _sign(_side(h, u), tol)
    b = _sign(_side(h, w), tol)
    if mode == STRICT:
        return a * b < 0
    if mode == RELAXED:
        return a * b < 0 or (a == 0) != (b == 0)
    raise ValueError(f"unknown crossing mode {mode!r}")


def sign_pair_crossings(su: np.ndarray, sw: np.ndarray, tol=None, relaxed: bool = False) -> np.ndarray:
    """Crossing flags for edges whose endpoint side values are su and sw.

    The same rule as edge_crosses, elementwise: strict crossing needs both
    sides nonzero with opposite signs; relaxed also accepts exactly one zero
    side.  tol=None decides zero exactly; otherwise |s| < tol counts as zero,
    with an array tol broadcast against the last (plane) axis.
    """
    zu, zw = (su == 0, sw == 0) if tol is None else (np.abs(su) < tol, np.abs(sw) < tol)
    cross = ~(zu | zw) & ((su > 0) != (sw > 0))
    if relaxed:
        cross |= zu != zw
    return cross


def crossing_necessary(h: Hyperplane, e: Edge) -> bool:
    """Necessary condition for crossing: |<v,u> - t| < 2|v_k| on the edge axis."""
    s = _side(h, e.base)
    vk = h.coeffs[e.axis]
    return abs(s) < 2 * abs(vk)


def construction(name: str, n: int, kind: str = EXACT, mode: str = STRICT) -> Configuration:
    """Classical n-plane slicings: `axis` (coordinate planes x_i = 0) or
    `middle_layers` (planes orthogonal to the all-ones direction, one
    threshold strictly between every pair of adjacent weight levels)."""
    if n < 1:
        raise DimensionZero("construction needs n >= 1")
    key = name.replace("-", "_")
    if key == "axis":
        planes = []
        for i in range(n):
            coeffs = [0] * n
            coeffs[i] = 1
            planes.append(make_hyperplane(coeffs, 0, kind))
        return Configuration(n, tuple(planes), mode)
    if key == "middle_layers":
        planes = []
        for k in range(n):
            t = n - 2 * k - 1
            if kind == EXACT:
                planes.append(make_hyperplane([1] * n, t, EXACT))
            else:
                s = 1.0 / math.sqrt(n)
                planes.append(make_hyperplane([s] * n, t * s, FLOAT))
        return Configuration(n, tuple(planes), mode)
    raise UnknownConstruction(f"unknown construction {name!r}")


def total_edges(n: int) -> int:
    return n * (1 << (n - 1))


def canonical_base(k: int, comp):
    """Base vertex mask of the canonical axis-k edge with compressed index comp:
    comp's bits with a 0 re-inserted at position k.  Works on ints and arrays."""
    return ((comp >> k) << (k + 1)) | (comp & ((1 << k) - 1))


def iter_edges(n: int) -> Iterator[Edge]:
    """All edges once, in canonical form: base has coordinate -1 on the axis.

    Order is axis-major, then increasing compressed base index (the base mask
    with the axis bit removed), matching the exhaustive verifier.
    """
    for k in range(n):
        for comp in range(1 << (n - 1)):
            yield Edge(Vertex(n, canonical_base(k, comp)), k)


def _scalar_to_json(x, kind: str):
    if kind == EXACT:
        f = _as_fraction(x)
        return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return float(x)


def config_to_json_dict(c: Configuration) -> dict:
    return {
        "n": c.n,
        "mode": c.mode,
        "planes": [
            {
                "coeffs": [_scalar_to_json(v, h.kind) for v in h.coeffs],
                "threshold": _scalar_to_json(h.threshold, h.kind),
            }
            for h in c.planes
        ],
    }


def config_from_json_dict(d: dict) -> Configuration:
    """Parse the configuration schema.

    Scalars may be JSON numbers or strings "p/q"; a plane whose scalars are
    all integers or "p/q" strings is exact, any float scalar makes the plane
    float-kind.
    """
    n = int(d["n"])
    mode = d.get("mode", STRICT)
    planes = []
    for entry in d.get("planes", []):
        scalars = list(entry["coeffs"]) + [entry["threshold"]]
        exact = all(isinstance(s, (int, str)) for s in scalars)
        planes.append(
            make_hyperplane(entry["coeffs"], entry["threshold"], EXACT if exact else FLOAT)
        )
    return Configuration(n, tuple(planes), mode)
