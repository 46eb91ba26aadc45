"""Exact concordant monotone correlation (CMC) over finite posets.

The CMC is the maximum covariance of (f(X), g(Y)) over zero-mean,
unit-variance function pairs that are monotone with respect to the two
orders.  Every constrained optimum forces equality on some subset of strict
pairs; restricted to that equality pattern ("face") it is a stationary
point of the bilinear objective on unit spheres, hence a singular pair of
the merged problem's Witsenhausen matrix with covariance equal to plus or
minus one of its singular values.

At a monotone optimum every comparable pair that is not tight satisfies
f(a) < f(b), so the face of tight pairs has an acyclic quotient order.  The
engine therefore enumerates only faces whose blocks are connected through
strict pairs and whose quotient is acyclic (on a chain: the 2^(n-1)
interval partitions), solves the merged spectral problem on each face in
one serial pass, lifts singular-pair candidates back to the original
alphabets, and keeps every candidate whose lift is monotone.  Kept
candidates are feasible by construction, so the reported maximum never
overshoots the true value.  Instances with more than ``FACE_LIMIT`` faces
are refused before any spectral work.

Two candidate policies are supported:

* ``extended`` (default): all singular indices i >= 2 with both
  orientations (cov = +lambda_i and cov = -lambda_i), plus one structural
  fallback per face built from quotient depths, so negative and zero
  optima are certified as well.  This mode always returns a value.
* ``paper_faithful``: only the second singular pair in positive
  orientation, testing the pair and its global sign flip.  When no such
  candidate is monotone on any face, the report carries a NaN value and a
  ``no_witness`` diagnostic instead of a fabricated number.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .dist import (
    CorrelationReport,
    JointPmf,
    ScoredPair,
    marginal_x,
    marginal_y,
    merge_pmf,
    pair_stats,
    strip_zero_support,
)
from .errors import (
    DegenerateDenominator,
    EmptyInput,
    EnumerationTooLarge,
    InputError,
    MissingValues,
    NumericalFailure,
    SOutOfRange,
)
from .maxcorr import residual_singular_pairs
from .order import (
    BlockPartition,
    Poset,
    is_monotone,
    partition_from_blocks,
    reverse,
)

MODES = ("paper_faithful", "extended")

_FEASIBILITY_TOL = 1e-8
_VALUE_GUARD = 1e-8

# Largest face count |parts_x| * |parts_y| the engine will solve.
FACE_LIMIT = 2 ** 16


@dataclass(frozen=True)
class CmcOptions:
    """Knobs for the exact engine: the candidate policy and tolerances.

    The size guard is not an option: instances with more than
    ``FACE_LIMIT`` faces raise :class:`EnumerationTooLarge`.
    """

    mode: str = "extended"
    monotone_tol: float = 1e-9
    tie_tol: float = 1e-9

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.monotone_tol < 0 or self.tie_tol < 0:
            raise InputError("tolerances must be nonnegative")


@dataclass(frozen=True)
class Candidate:
    """A feasible monotone pair found on one face of the enumeration."""

    partition_x: BlockPartition
    partition_y: BlockPartition
    kind: str            # "svd" or "structural"
    index: int           # singular index i >= 2 for svd candidates, else 0
    orientation: int     # svd candidates satisfy cov ~ orientation*lambda_i
    pair: ScoredPair     # lifted to the support alphabets
    cov: float

    def sort_key(self):
        return (
            self.partition_x.blocks,
            self.partition_y.blocks,
            0 if self.kind == "svd" else 1,
            self.index,
            0 if self.orientation > 0 else 1,
        )


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def distinct_partitions(p: Poset) -> list[BlockPartition]:
    """The block partitions that can be the face of a monotone optimum.

    These are the partitions whose blocks are connected through strict
    pairs inside the block and whose quotient relation (block A -> block B
    when some a in A lies below some b in B) is acyclic.  They are exactly
    the partitions produced by peeling: repeatedly remove a non-empty
    connected down-set of the remaining elements and make it the next
    block.  Different peel orders can give the same partition, so results
    are deduplicated.  On a chain this yields the 2^(n-1) interval
    partitions.  Comparability components are partitioned independently,
    and every remainder is filled bottom-up without recursion.

    Raises :class:`EnumerationTooLarge` as soon as any count shows that
    this side alone has more than ``FACE_LIMIT`` partitions.  Every
    remainder is an up-set, and each of its partitions extends to a
    distinct partition of the whole order, so no count overshoots.
    """
    n = p.size
    below = [0] * n  # bitmask of the elements strictly below i
    near = [0] * n   # bitmask of the elements comparable to i
    for i, k in p.strict_pairs:
        below[k] |= 1 << i
        near[i] |= 1 << k
        near[k] |= 1 << i
    # bottom-up by the number of elements below, as Poset.linear_extension
    order = sorted(range(n), key=lambda i: (below[i].bit_count(), i))
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r

    def members(mask: int) -> list[int]:
        """The elements of ``mask`` bottom-up, minimal ones first."""
        return sorted(_bits(mask), key=rank.__getitem__)

    def check(count: int) -> int:
        if count > FACE_LIMIT:
            raise EnumerationTooLarge(
                f"a {n}-element order has more than {FACE_LIMIT} faces")
        return count

    # Grouping the elements by level (the longest chain ending there) and
    # cutting between any subset of the h levels gives 2^(h-1) distinct
    # faces, so tall orders are refused before anything is listed.
    rest, layers = (1 << n) - 1, 0
    while rest:
        check(1 << layers)
        rest &= ~sum(1 << i for i in _bits(rest) if not below[i] & rest)
        layers += 1

    def component(mask: int) -> int:
        """The comparability component of ``mask`` holding its lowest bit."""
        seen = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            grown = near[low.bit_length() - 1] & mask & ~seen
            seen |= grown
            frontier = (frontier ^ low) | grown
        return seen

    splits: dict[int, tuple[int, list[int]]] = {}

    def split(rest: int) -> tuple[int, list[int]]:
        """The component of ``rest`` holding its lowest bit and, when that
        is all of ``rest``, the non-empty connected down-sets of ``rest``
        (the blocks that can be peeled next)."""
        if rest not in splits:
            comp, sets = component(rest), [0]
            if comp == rest:  # a disconnected remainder is split instead
                for i in members(rest):
                    sets += [s | 1 << i for s in sets
                             if not below[i] & rest & ~s]
                    # each down-set but the empty and the full one is a
                    # face of its own: its components and its complement's
                    check(len(sets) - 1)
            splits[rest] = comp, [s for s in sets
                                  if s and component(s) == s]
        return splits[rest]

    def remainders(rest: int, low: int) -> list[int]:
        """What is left after peeling a block of ``rest`` that meets
        ``low``, or its two parts when ``rest`` is disconnected."""
        comp, blocks = split(rest)
        if comp != rest:
            return [comp, rest & ~comp]
        return [rest & ~b for b in blocks if b & low]

    def fill(memo: dict, root: int, low, combine):
        """``memo[root]``, computing every remainder it needs first; the
        peeled blocks considered are those meeting ``low(rest)``."""
        stack = [root]
        while stack:
            rest = stack[-1]
            if rest in memo:
                stack.pop()
                continue
            todo = [r for r in remainders(rest, low(rest)) if r not in memo]
            if todo:
                stack += todo
            else:
                memo[rest] = combine(rest)
        return memo[root]

    def first(rest: int) -> int:
        """A minimal element of ``rest``, as a bit."""
        return 1 << min(_bits(rest), key=rank.__getitem__)

    def count(rest: int) -> int:
        """A count of partitions of ``rest`` that never exceeds the total.

        Partitions whose first block holds a fixed minimal element differ
        in that block, so counting only them overcounts nothing; this cheap
        count refuses large orders before any partition is built.
        """
        got = [bounds[r] for r in remainders(rest, first(rest))]
        return check(math.prod(got) if split(rest)[0] != rest else sum(got))

    def partitions(rest: int) -> set[tuple[int, ...]]:
        """All partitions of ``rest``, each a sorted tuple of block masks."""
        comp, blocks = split(rest)
        if comp != rest:  # incomparable parts are partitioned independently
            one, other = faces[comp], faces[rest & ~comp]
            check(len(one) * len(other))
            return {tuple(sorted(a + b)) for a in one for b in other}
        out = {tuple(sorted(tail + (block,))) for block in blocks
               for tail in faces[rest & ~block]}
        check(len(out))
        return out

    comps, rest = [], (1 << n) - 1
    while rest:
        comps.append(component(rest))
        rest &= ~comps[-1]
    bounds = {0: 1}
    total = 1
    for comp in comps:
        total = check(total * fill(bounds, comp, first, count))
    faces = {0: {()}}
    parts = [()]
    for comp in comps:
        # every block of ``rest`` meets ``rest``: all of them are peeled
        own = fill(faces, comp, lambda rest: rest, partitions)
        check(len(parts) * len(own))
        parts = [a + b for a in parts for b in own]
    return sorted((partition_from_blocks(map(_bits, part), n)
                   for part in parts), key=lambda q: q.blocks)


def _quotient_scores(p: Poset, part: BlockPartition) -> np.ndarray:
    """A deterministic non-constant monotone block function.

    Uses longest-path depth over the cross-block order edges.  With no
    cross-block edges every block-constant function is monotone, so the
    indicator of the first block serves.  The quotient of every enumerated
    face is acyclic, so a longest path has fewer than ``nb`` edges and
    ``nb - 1`` relaxation sweeps reach it.
    """
    nb = len(part.blocks)
    edges = sorted({
        (part.block_of[i], part.block_of[k])
        for i, k in p.strict_pairs
        if part.block_of[i] != part.block_of[k]
    })
    if not edges:
        out = np.zeros(nb)
        out[0] = 1.0
        return out
    depth = np.zeros(nb)
    for _ in range(nb - 1):
        changed = False
        for a, b in edges:
            if depth[b] < depth[a] + 1.0:
                depth[b] = depth[a] + 1.0
                changed = True
        if not changed:
            break
    return depth


def _feasible(weights: np.ndarray, vec: np.ndarray) -> bool:
    mean = float(weights @ vec)
    var = float(weights @ (vec * vec)) - mean * mean
    return abs(mean) <= _FEASIBILITY_TOL and abs(var - 1.0) <= _FEASIBILITY_TOL


def _face_candidates(js: JointPmf, pxs: Poset, pys: Poset,
                     bx: BlockPartition, by: BlockPartition,
                     opts: CmcOptions):
    """Candidates from one partition pair: (kept, checked, degenerate)."""
    kept: list[Candidate] = []
    if len(bx.blocks) < 2 or len(by.blocks) < 2:
        return kept, 0, 0
    merged = merge_pmf(js, bx, by)
    pmx = marginal_x(merged)
    pmy = marginal_y(merged)
    values, left, right = residual_singular_pairs(merged)
    degenerate = int(
        (np.abs(np.diff(values)) <= opts.tie_tol).sum()
    ) if values.size > 1 else 0

    bx_idx = np.asarray(bx.block_of)
    by_idx = np.asarray(by.block_of)
    checked = 0
    indices = range(len(values)) if opts.mode == "extended" else range(
        min(1, len(values)))
    orientations = (1, -1) if opts.mode == "extended" else (1,)

    for t in indices:
        fblk = left[t] / np.sqrt(pmx)
        gblk = right[t] / np.sqrt(pmy)
        if not (_feasible(pmx, fblk) and _feasible(pmy, gblk)):
            continue  # degenerate zero-value direction, not a valid pair
        for orientation in orientations:
            gsig = gblk if orientation > 0 else -gblk
            for flip in (1.0, -1.0):
                fl = flip * fblk[bx_idx]
                gl = flip * gsig[by_idx]
                checked += 1
                if is_monotone(fl, pxs, opts.monotone_tol) and \
                        is_monotone(gl, pys, opts.monotone_tol):
                    pair = ScoredPair(f=fl, g=gl)
                    kept.append(Candidate(
                        partition_x=bx, partition_y=by, kind="svd",
                        index=t + 2, orientation=orientation,
                        pair=pair, cov=pair_stats(js, pair).cov,
                    ))
                    break  # the global flip has the same covariance

    if opts.mode == "extended":
        fn = _normalize(pmx, _quotient_scores(pxs, bx))
        gn = _normalize(pmy, _quotient_scores(pys, by))
        if fn is not None and gn is not None:
            fl = fn[bx_idx]
            gl = gn[by_idx]
            checked += 1
            if is_monotone(fl, pxs, opts.monotone_tol) and \
                    is_monotone(gl, pys, opts.monotone_tol):
                pair = ScoredPair(f=fl, g=gl)
                kept.append(Candidate(
                    partition_x=bx, partition_y=by, kind="structural",
                    index=0, orientation=1,
                    pair=pair, cov=pair_stats(js, pair).cov,
                ))
    return kept, checked, degenerate


def _normalize(weights: np.ndarray, vec: np.ndarray) -> np.ndarray | None:
    mean = float(weights @ vec)
    centered = vec - mean
    var = float(weights @ (centered * centered))
    if var <= 1e-24:
        return None
    return centered / math.sqrt(var)


def _extend_monotone(sub_values: np.ndarray, keep: tuple[int, ...],
                     poset: Poset) -> np.ndarray:
    """Extend a support witness to zero-mass symbols, preserving monotonicity.

    Each removed symbol gets the maximum witness value among support
    symbols strictly below it (the overall minimum when none are); the
    closure property of the stored relation makes this extension monotone
    at the same tolerance.
    """
    pos = {old: i for i, old in enumerate(keep)}
    floor = float(np.min(sub_values))
    full = np.empty(poset.size)
    for z in range(poset.size):
        if z in pos:
            full[z] = sub_values[pos[z]]
            continue
        below = [sub_values[pos[s]] for s in keep
                 if (s, z) in poset.strict_pairs]
        full[z] = max(below) if below else floor
    return full


def _clip_value(v: float) -> float:
    if not (-1.0 - _VALUE_GUARD <= v <= 1.0 + _VALUE_GUARD):
        raise NumericalFailure(f"candidate covariance {v!r} outside [-1, 1]")
    return min(max(v, -1.0), 1.0)


def cmc_exact(j: JointPmf, px: Poset, py: Poset,
              opts: CmcOptions = CmcOptions()) -> CorrelationReport:
    """Exact CMC of ``j`` with respect to the orders ``px`` and ``py``.

    Ties within ``tie_tol`` of the maximum are broken lexicographically by
    (canonical partition pair, singular index, orientation), which makes
    the report independent of the order in which faces are evaluated.
    Raises :class:`EnumerationTooLarge` when the instance has more than
    ``FACE_LIMIT`` faces, before any merge or spectral work.
    """
    start = time.perf_counter()
    js, pxs, pys, keep_x, keep_y = strip_zero_support(j, px, py)
    parts_x = distinct_partitions(pxs)
    parts_y = distinct_partitions(pys)
    n_faces = len(parts_x) * len(parts_y)
    if n_faces > FACE_LIMIT:
        raise EnumerationTooLarge(
            f"{len(parts_x)} x {len(parts_y)} = {n_faces} faces exceed the "
            f"limit {FACE_LIMIT}"
        )
    results = [_face_candidates(js, pxs, pys, bx, by, opts)
               for bx in parts_x for by in parts_y]

    candidates = [c for kept, _, _ in results for c in kept]
    diagnostics = {
        "mode": opts.mode,
        "partitions_enumerated": n_faces,
        "candidates_checked": sum(n for _, n, _ in results),
        "candidates_kept": len(candidates),
        "degenerate_spectra": sum(d for _, _, d in results),
    }

    if not candidates:
        diagnostics["no_witness"] = True
        diagnostics["explanation"] = (
            "no singular-pair candidate was monotone on any merge subset; "
            "the literal candidate set cannot certify this instance "
            "(its optimum is negative or degenerate); use extended mode"
        )
        diagnostics["runtime_seconds"] = time.perf_counter() - start
        return CorrelationReport(measure="cmc", value=float("nan"),
                                 witness=None, diagnostics=diagnostics)

    best_cov = max(c.cov for c in candidates)
    near = [c for c in candidates if c.cov >= best_cov - opts.tie_tol]
    best = min(near, key=Candidate.sort_key)
    diagnostics["tie_candidates"] = len(near)
    value = _clip_value(best.cov)

    witness = ScoredPair(
        f=_extend_monotone(best.pair.f, keep_x, px),
        g=_extend_monotone(best.pair.g, keep_y, py),
    )
    diagnostics["winning_partition_x"] = best.partition_x.blocks
    diagnostics["winning_partition_y"] = best.partition_y.blocks
    diagnostics["winning_kind"] = best.kind
    diagnostics["winning_index"] = best.index
    diagnostics["winning_orientation"] = best.orientation
    diagnostics["runtime_seconds"] = time.perf_counter() - start
    return CorrelationReport(measure="cmc", value=value, witness=witness,
                             diagnostics=diagnostics)


def cmc_plus(j: JointPmf, px: Poset, py: Poset,
             opts: CmcOptions = CmcOptions()) -> float:
    """CMC clipped at zero; NaN propagates from a no-witness report."""
    value = cmc_exact(j, px, py, opts).value
    if math.isnan(value):
        return value
    return max(0.0, value)


def cmc_x_reversed(j: JointPmf, px: Poset, py: Poset,
                   opts: CmcOptions = CmcOptions()) -> CorrelationReport:
    """CMC with the X order reversed (detects discordant dependence)."""
    report = cmc_exact(j, reverse(px), py, opts)
    return replace(report, measure="cmc_x_reversed")


def mgf_rhs(j: JointPmf, s1: float, s2: float,
            s_min: float = 1e-3) -> float:
    """Normalized moment-generating-function discrepancy at (s1, s2).

    |M_XY(s1, s2) - M_X(s1) M_Y(s2)| divided by the geometric mean of
    Var(e^{s1 X}) and Var(e^{s2 Y}); a lower bound certificate for
    max(cmc, cmc with X reversed) since x -> sgn(s) e^{s x} is increasing.
    """
    if j.x_values is None or j.y_values is None:
        raise MissingValues("mgf bound needs numeric embeddings")
    if abs(s1) < s_min or abs(s2) < s_min:
        raise SOutOfRange(f"|s| must be at least {s_min}")
    xv = np.asarray(j.x_values)
    yv = np.asarray(j.y_values)
    px = marginal_x(j)
    py = marginal_y(j)

    def m_x(s):
        return float(px @ np.exp(s * xv))

    def m_y(s):
        return float(py @ np.exp(s * yv))

    m_joint = float(np.sum(j.p * np.exp(s1 * xv[:, None] + s2 * yv[None, :])))
    dx = m_x(2 * s1) - m_x(s1) ** 2
    dy = m_y(2 * s2) - m_y(s2) ** 2
    floor_x = 1e-12 * (1.0 + abs(m_x(2 * s1)))
    floor_y = 1e-12 * (1.0 + abs(m_y(2 * s2)))
    if not all(map(math.isfinite, (m_joint, dx, dy))) or \
            dx <= floor_x or dy <= floor_y:
        raise DegenerateDenominator(
            f"degenerate or non-finite moments at ({s1}, {s2})"
        )
    return abs(m_joint - m_x(s1) * m_y(s2)) / math.sqrt(dx * dy)


def mgf_bound_sup(j: JointPmf, grid) -> float:
    """Maximum of :func:`mgf_rhs` over a grid of (s1, s2) points."""
    grid = list(grid)
    if not grid:
        raise EmptyInput("mgf grid must contain at least one point")
    return max(mgf_rhs(j, float(s1), float(s2)) for s1, s2 in grid)


def default_mgf_grid(scales=(0.25, 0.5, 1.0, 2.0)) -> list[tuple[float, float]]:
    """All sign combinations of the given scales: the set {+-a} x {+-b}."""
    pts = [s for a in scales for s in (a, -a)]
    return [(s1, s2) for s1 in pts for s2 in pts]
