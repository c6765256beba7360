"""Cube domain types, crossing predicates and slicing constructions.

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
    MalformedInput,
    MixedScalarKinds,
    NonFiniteScalar,
    UnknownConstruction,
)

EXACT = "exact"
FLOAT = "float"
STRICT = "strict"
RELAXED = "relaxed"
_TINY = np.finfo(np.float64).smallest_subnormal

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
        return tuple(((self.signs >> i) & 1) * 2 - 1 for i in range(self.n))

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
    """The set {x : <coeffs, x> = threshold}, in exact or float arithmetic."""

    coeffs: tuple
    threshold: Scalar
    kind: str

    @property
    def n(self) -> int:
        return len(self.coeffs)


def scalar_kind(xs) -> str:
    """EXACT when every entry is an int, a Fraction or a string (strings parse
    as rationals, "p/q"), else FLOAT."""
    return EXACT if all(isinstance(x, (int, Fraction, str)) for x in xs) else FLOAT


def as_scalar(x, kind: str) -> Scalar:
    """The one conversion of an input scalar: a Fraction in exact kind, a
    finite float in float kind.  Strings parse as rationals ("-2/7", "1.5",
    "1e-3").  NaN, infinities and float overflow raise NonFiniteScalar;
    any other string or type, bool included (JSON true is no number),
    raises MalformedInput."""
    if kind not in (EXACT, FLOAT):
        raise ValueError(f"unknown arithmetic kind {kind!r}")
    r = x
    if isinstance(x, bool):
        raise MalformedInput(f"not a number: {x!r}")
    if isinstance(x, str):
        try:
            r = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise MalformedInput(f"not a rational number: {x!r}") from None
    elif not isinstance(x, (float, int, Fraction)):
        raise MalformedInput(f"not an int, a float, a Fraction or a string: {x!r}")
    try:
        if kind == EXACT:
            return Fraction(r)  # NaN raises ValueError, infinities OverflowError
        v = float(r)  # rationals beyond the double range raise OverflowError
        if math.isfinite(v):
            return v
    except (ValueError, OverflowError):
        pass
    raise NonFiniteScalar(f"not a finite number: {x!r}")


def as_scalars(xs: Sequence, kind: str) -> tuple:
    """as_scalar over a sequence, as a tuple.  A list of plain finite floats
    in float kind is already converted and comes back as its tuple (a NaN or
    an infinity makes the sum non-finite); anything else goes entry by entry
    through as_scalar, with its errors."""
    if kind == FLOAT and type(xs) is list and set(map(type, xs)) <= {float} and math.isfinite(sum(xs)):
        return tuple(xs)
    return tuple(as_scalar(x, kind) for x in xs)


def make_hyperplane(coeffs: Sequence, threshold, kind: str = EXACT) -> Hyperplane:
    """Validate and build a hyperplane in the requested arithmetic kind."""
    cs = as_scalars(coeffs, kind)
    if not cs:
        raise DimensionZero("hyperplane needs at least one coefficient")
    if not any(cs):
        raise AllZeroCoefficients("all coefficients are zero")
    return Hyperplane(cs, as_scalar(threshold, kind), kind)


@dataclass(frozen=True)
class Configuration:
    """An ordered list of same-dimension hyperplanes plus crossing semantics."""

    n: int
    planes: tuple[Hyperplane, ...]
    mode: str = STRICT

    def __post_init__(self):
        if self.n < 1:
            raise DimensionZero("configuration dimension must be >= 1")
        if self.mode not in (STRICT, RELAXED):
            raise ValueError(f"unknown crossing mode {self.mode!r}")
        for h in self.planes:
            if h.n != self.n:
                raise DimensionMismatch(f"plane of dimension {h.n} in a {self.n}-cube configuration")
        kinds = {h.kind for h in self.planes}
        if len(kinds) > 1:
            raise MixedScalarKinds("configuration mixes exact and float planes")
        # the fields are frozen, so hash them once: cache lookups such as
        # sampler.bias_setup hash the configuration on every call
        object.__setattr__(self, "_hash", hash((self.n, self.planes, self.mode)))

    def __hash__(self) -> int:
        return self._hash

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
    """Scale-invariant zero tolerance for float-kind sign decisions:
    1e-12 * max(|t|, l1(v)), so scaling a plane by a power of two scales its
    side values and its tolerance alike.  It never underflows to 0 (the
    smallest subnormal is its floor), so an exact zero side stays zero.
    Takes one plane's coefficients and threshold, or an (m, n) coefficient
    stack with m thresholds (one tolerance per plane)."""
    l1 = np.abs(np.asarray(coeffs, dtype=np.float64)).sum(axis=-1)
    return np.maximum(1e-12 * np.maximum(np.abs(threshold), l1), _TINY)


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
    the scalar reference; the array paths use side_bits and crossing_bits
    (the verifier on packed words, lab through sign_pair_crossings).
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


def side_bits(side: np.ndarray, tol=None) -> tuple[np.ndarray, np.ndarray]:
    """Classify side values once: (positive, nonzero) boolean arrays.

    tol=None decides zero exactly; otherwise |s| < tol counts as zero, with
    an array tol broadcast against side.  positive is s > 0 (s >= tol with a
    tol), so it is set only where nonzero is.  Positive and negative
    (nonzero, not positive) are each monotone in s; the verifier's search
    for the class boundaries relies on that.
    """
    if tol is None:
        return np.greater(side, 0), np.not_equal(side, 0)
    pos = np.greater_equal(side, tol)
    nz = np.less_equal(side, -tol)
    nz |= pos
    return pos, nz


def crossing_bits(pu, nu, pw, nw, relaxed: bool = False, out=None):
    """The crossing rule on side classes (positive, nonzero) of the two
    endpoints: strict crossing needs both sides nonzero with opposite signs;
    relaxed also accepts exactly one zero side.  Works unchanged on boolean
    arrays and on bit-packed integer words.  out, if given, receives the
    result; it may be pw (read only by the first operation)."""
    cross = np.bitwise_xor(pu, pw, out=out)
    cross &= nu
    cross &= nw
    if relaxed:
        # exactly one zero side: disjoint from the strict term, which needs
        # both sides nonzero, so adding it is an exclusive or
        cross ^= nu
        cross ^= nw
    return cross


def sign_pair_crossings(su: np.ndarray, sw: np.ndarray, tol=None, relaxed: bool = False) -> np.ndarray:
    """Crossing flags for edges whose endpoint side values are su and sw:
    the rule of edge_crosses, elementwise, with the zero rule of side_bits."""
    return crossing_bits(*side_bits(su, tol), *side_bits(sw, tol), relaxed)


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


def _scalar_to_json(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def config_to_json_dict(c: Configuration) -> dict:
    return {
        "n": c.n,
        "mode": c.mode,
        "planes": [
            {
                "coeffs": [_scalar_to_json(v) for v in h.coeffs],
                "threshold": _scalar_to_json(h.threshold),
            }
            for h in c.planes
        ],
    }


def _json_array(x, name: str) -> list:
    if type(x) is not list:
        raise MalformedInput(f"{name} must be a JSON array, got {x!r}")
    return x


def config_from_json_dict(d: dict) -> Configuration:
    """Parse the configuration schema.

    Scalars may be JSON numbers or strings "p/q"; each plane takes the
    scalar_kind of its coefficients and threshold.  planes and every
    coeffs must be JSON arrays, not strings or objects (MalformedInput).
    """
    n = d["n"]
    if type(n) is not int:
        raise MalformedInput(f"n must be a JSON integer, got {n!r}")
    mode = d.get("mode", STRICT)
    planes = []
    for entry in _json_array(d.get("planes", []), "planes"):
        coeffs = _json_array(entry["coeffs"], "coeffs")
        kind = scalar_kind([*coeffs, entry["threshold"]])
        planes.append(make_hyperplane(coeffs, entry["threshold"], kind))
    return Configuration(n, tuple(planes), mode)
