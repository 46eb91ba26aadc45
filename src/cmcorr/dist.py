"""Finite joint distributions, derived distributions, and scored moments.

A :class:`JointPmf` is validated to total mass 1 within 1e-9 and then
renormalized exactly once at construction, so the spectral identities used
downstream (top singular value exactly 1) hold to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMarginal,
    DuplicateLabel,
    EmptyInput,
    MassNotOne,
    NegativeMass,
    NonFiniteValue,
    ShapeMismatch,
)
from .order import BlockPartition, Poset

MASS_TOL = 1e-9
_WITNESS_TOL = 1e-7  # how far check_report lets a witness's cov lie


def _frozen_array(a, ndim: int) -> np.ndarray:
    arr = np.array(a, dtype=float)
    if arr.ndim != ndim:
        raise ShapeMismatch(f"expected a {ndim}-d array, got {arr.ndim}-d")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class JointPmf:
    """Joint pmf over two finite alphabets, rows indexed by X, columns by Y.

    ``x_values``/``y_values`` are optional numeric embeddings of the labels
    (dimensionless scores) used by the moment-based measures.
    """

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    p: np.ndarray
    x_values: tuple[float, ...] | None = None
    y_values: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_labels", tuple(self.x_labels))
        object.__setattr__(self, "y_labels", tuple(self.y_labels))
        arr = np.array(self.p, dtype=float)
        if arr.ndim != 2:
            raise ShapeMismatch("pmf must be a matrix")
        if arr.shape != (len(self.x_labels), len(self.y_labels)):
            raise ShapeMismatch(
                f"pmf shape {arr.shape} does not match alphabets "
                f"({len(self.x_labels)}, {len(self.y_labels)})"
            )
        if len(set(self.x_labels)) != len(self.x_labels):
            raise DuplicateLabel("x labels must be distinct")
        if len(set(self.y_labels)) != len(self.y_labels):
            raise DuplicateLabel("y labels must be distinct")
        if not np.isfinite(arr).all():
            raise NonFiniteValue("pmf entries must be finite")
        if (arr < 0).any():
            raise NegativeMass("pmf entries must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise MassNotOne(f"total mass {total!r} not within {MASS_TOL} of 1")
        arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)
        for name, vals, k in (
            ("x_values", self.x_values, len(self.x_labels)),
            ("y_values", self.y_values, len(self.y_labels)),
        ):
            if vals is None:
                continue
            vals = tuple(float(v) for v in vals)
            if len(vals) != k:
                raise ShapeMismatch(f"{name} length {len(vals)} != {k}")
            if not all(math.isfinite(v) for v in vals):
                raise NonFiniteValue(f"{name} must be finite")
            object.__setattr__(self, name, vals)

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.shape

    def transpose(self) -> JointPmf:
        return JointPmf(
            x_labels=self.y_labels,
            y_labels=self.x_labels,
            p=self.p.T,
            x_values=self.y_values,
            y_values=self.x_values,
        )


def joint_pmf(p, x_labels=None, y_labels=None, x_values=None,
              y_values=None) -> JointPmf:
    """Convenience constructor with auto-generated labels."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 2:
        raise ShapeMismatch("pmf must be a matrix")
    m, n = arr.shape
    if x_labels is None:
        x_labels = tuple(f"x{i}" for i in range(m))
    if y_labels is None:
        y_labels = tuple(f"y{j}" for j in range(n))
    return JointPmf(x_labels=tuple(x_labels), y_labels=tuple(y_labels),
                    p=arr, x_values=x_values, y_values=y_values)


def marginal_x(j: JointPmf) -> np.ndarray:
    return j.p.sum(axis=1)


def marginal_y(j: JointPmf) -> np.ndarray:
    return j.p.sum(axis=0)


@dataclass(frozen=True, slots=True)
class ScoredPair:
    """A pair of real-valued functions on the X and Y alphabets."""

    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _frozen_array(self.f, 1))
        object.__setattr__(self, "g", _frozen_array(self.g, 1))


@dataclass(frozen=True)
class PairStats:
    mean_f: float
    mean_g: float
    var_f: float
    var_g: float
    cov: float


def pair_stats(j: JointPmf, sp: ScoredPair) -> PairStats:
    """Exact weighted moments of (f(X), g(Y)) under the joint pmf."""
    m, n = j.shape
    if sp.f.shape != (m,) or sp.g.shape != (n,):
        raise ShapeMismatch(
            f"scored pair shapes {sp.f.shape}/{sp.g.shape} do not match "
            f"pmf shape {(m, n)}"
        )
    px = marginal_x(j)
    py = marginal_y(j)
    mean_f = float(px @ sp.f)
    mean_g = float(py @ sp.g)
    var_f = max(float(px @ (sp.f * sp.f)) - mean_f * mean_f, 0.0)
    var_g = max(float(py @ (sp.g * sp.g)) - mean_g * mean_g, 0.0)
    cov = float(sp.f @ j.p @ sp.g) - mean_f * mean_g
    return PairStats(mean_f=mean_f, mean_g=mean_g, var_f=var_f,
                     var_g=var_g, cov=cov)


@dataclass(frozen=True, slots=True)
class CorrelationReport:
    """A measure's value plus witness functions and diagnostics.

    A report with ``diagnostics["no_witness"]`` set carries a NaN value:
    the candidate set certified nothing (possible in the literal
    enumeration mode; the extended mode always produces a value).
    """

    measure: str
    value: float
    witness: ScoredPair | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def has_witness(self) -> bool:
        return self.witness is not None


def check_report(j: JointPmf, report: CorrelationReport) -> None:
    """Assert the report invariants; raises AssertionError on breach."""
    if report.diagnostics.get("no_witness"):
        assert math.isnan(report.value)
        return
    assert -1.0 - 1e-9 <= report.value <= 1.0 + 1e-9, report.value
    if report.witness is not None:
        stats = pair_stats(j, report.witness)
        assert abs(stats.cov - report.value) <= _WITNESS_TOL, (
            stats.cov, report.value)


def restrict_to_support(j: JointPmf, message: str):
    """``j`` restricted to the symbols with positive marginal mass.

    Returns the reduced pmf and the kept original indices per side; when
    every symbol carries mass, ``j`` itself comes back.  Raises
    :class:`DegenerateMarginal` with ``message`` when fewer than two
    symbols carry mass on a side.
    """
    keep_x = tuple(i for i, w in enumerate(marginal_x(j)) if w > 0.0)
    keep_y = tuple(i for i, w in enumerate(marginal_y(j)) if w > 0.0)
    if len(keep_x) < 2 or len(keep_y) < 2:
        raise DegenerateMarginal(message)
    if len(keep_x) == j.shape[0] and len(keep_y) == j.shape[1]:
        return j, keep_x, keep_y
    sub = JointPmf(
        x_labels=tuple(j.x_labels[i] for i in keep_x),
        y_labels=tuple(j.y_labels[i] for i in keep_y),
        p=j.p[np.ix_(keep_x, keep_y)],
        x_values=None if j.x_values is None
        else tuple(j.x_values[i] for i in keep_x),
        y_values=None if j.y_values is None
        else tuple(j.y_values[i] for i in keep_y),
    )
    return sub, keep_x, keep_y


def strip_zero_support(j: JointPmf, px: Poset, py: Poset):
    """Drop symbols with zero marginal mass and restrict the orders.

    Because the relations are stored transitively closed, comparabilities
    through removed symbols survive the restriction.  Returns the reduced
    pmf, the two restricted posets, and the kept original indices per side;
    when every symbol carries mass, the inputs come back unchanged.
    """
    m, n = j.shape
    if px.size != m or py.size != n:
        raise ShapeMismatch("poset sizes do not match the pmf alphabets")
    sub, keep_x, keep_y = restrict_to_support(
        j, "fewer than two symbols carry positive mass on one side")
    if sub is j:
        return j, px, py, keep_x, keep_y

    def restrict(poset: Poset, keep: tuple[int, ...]) -> Poset:
        pos = {old: new for new, old in enumerate(keep)}
        pairs = frozenset(
            (pos[i], pos[k]) for i, k in poset.strict_pairs
            if i in pos and k in pos
        )
        return Poset(size=len(keep),
                     labels=tuple(poset.labels[i] for i in keep),
                     strict_pairs=pairs)

    return sub, restrict(px, keep_x), restrict(py, keep_y), keep_x, keep_y


def merge_pmf(j: JointPmf, bx: BlockPartition, by: BlockPartition) -> JointPmf:
    """Merge symbols within each block; block mass is the sum of members."""
    m, n = j.shape
    if bx.size != m or by.size != n:
        raise ShapeMismatch("partitions do not cover the pmf alphabets")
    zx = np.zeros((len(bx.blocks), m))
    for b, block in enumerate(bx.blocks):
        zx[b, list(block)] = 1.0
    zy = np.zeros((len(by.blocks), n))
    for b, block in enumerate(by.blocks):
        zy[b, list(block)] = 1.0
    merged = zx @ j.p @ zy.T
    return JointPmf(
        x_labels=tuple("+".join(j.x_labels[i] for i in blk)
                       for blk in bx.blocks),
        y_labels=tuple("+".join(j.y_labels[i] for i in blk)
                       for blk in by.blocks),
        p=merged,
    )


def product_pmf(j1: JointPmf, j2: JointPmf) -> JointPmf:
    """Independent product; row-major composite indexing on both sides."""
    return JointPmf(
        x_labels=tuple(f"({a},{b})" for a in j1.x_labels for b in j2.x_labels),
        y_labels=tuple(f"({a},{b})" for a in j1.y_labels for b in j2.y_labels),
        p=np.kron(j1.p, j2.p),
    )


def empirical_from_samples(rows) -> JointPmf:
    """Uniform distribution on the sample points, exact values as keys."""
    rows = list(rows)
    if not rows:
        raise EmptyInput("need at least one sample")
    pts = []
    for r in rows:
        x, y = float(r[0]), float(r[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteValue(f"non-finite sample {r!r}")
        pts.append((x, y))
    xs = sorted({x for x, _ in pts})
    ys = sorted({y for _, y in pts})
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    counts = np.zeros((len(xs), len(ys)))
    for x, y in pts:
        counts[xi[x], yi[y]] += 1.0
    return JointPmf(
        x_labels=tuple(repr(v) for v in xs),
        y_labels=tuple(repr(v) for v in ys),
        p=counts / len(pts),
        x_values=tuple(xs),
        y_values=tuple(ys),
    )
