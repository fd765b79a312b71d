"""Quantitative counting experiments on self-conformal Gibbs systems.

The module runs three families of orbit-counting experiments at desk scale
and reduces them to per-sample records:

* shrinking targets -- count visits ``T^n x`` to prescribed balls
  ``B(y_n, psi(n))`` whose radii shrink along the orbit;
* pure recurrence -- the target ball is centered at the orbit's own
  starting point, ``B(x, psi(n))``;
* measure-equalized recurrence -- the radius is replaced by the smallest
  radius whose ball at ``x`` carries measure ``psi(n)``, so every step is
  an event of measure exactly ``psi(n)``.

On top of the records it provides the square-root-with-log residual
normalization of quantitative Borel--Cantelli counting, exponential rate
fits, a pairwise-independence inequality check, product systems with
cube-event mixing coefficients, and four canned end-to-end analyses
(``run_named_example``) whose reports are the CLI's summary payload.

All randomness flows through per-sample counter-based streams keyed by
``(seed, sample_id)``: results are independent of chunking and thread
count, and reruns are byte-identical.
"""

from __future__ import annotations

import inspect
import itertools
import logging
import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .dynamics import (SymbolSource, _check_sample_ids, _key_word, _window_width,
                       project_windows, sample_symbol_block)
from .gibbs import (
    BernoulliBackend,
    ConformalPowerPotential,
    DensityBackend,
    MeasureBackend,
    SpectralBackend,
    _joint_masses,
    _pair_mass,
    cylinder_measure,
    eigen_solve,
    mixing_coeff_cylinders,
)
from .ifs import IfsSystem, _is_middle_third_cantor, builtin_system
from .measure import (
    CertificationError,
    ConstantRadius,
    PowerLogRadius,
    PowerRadius,
    RadiusFunction,
    _closed_form,
    _radial_mass,
    _radial_table,
    # the benchmark's span hook reads these two through this module
    ball_measure,
    cantor_cdf_bracket,  # noqa: F401
    hyperplane_decay_probe,
)
from .symbolic import FiniteWord, PointRd, as_point

__all__ = [
    "CountingRecord",
    "Checkpoint",
    "RateFit",
    "fit_exponential_rate",
    "default_checkpoints",
    "shrinking_target_run",
    "recurrence_pure_run",
    "recurrence_modified_run",
    "bc_residual",
    "pairwise_independence_check",
    "cylinder_event_crosscheck",
    "ProductSystem",
    "ProductBackend",
    "product_system",
    "product_cube_mixing",
    "product_mixing_bound",
    "gasket_tangency_doubling_bracket",
    "run_named_example",
    "NAMED_EXAMPLES",
    "records_to_rows",
    "write_results_csv",
    "summarize_records",
    "CSV_HEADER",
]

logger = logging.getLogger(__name__)

_LN3 = math.log(3.0)


# ---------------------------------------------------------------------------
# record and fit types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """Cumulative counting state at orbit length ``N``.

    ``psi_sum`` is the run's deterministic normalizer at ``N`` (sum of target
    measures for shrinking targets, sum of radii / measure quotas for the
    recurrence runs); ``ball_sum``, when present, is the sample-dependent sum
    of own-ball measures; ``flagged`` counts steps whose hit decision fell
    inside the boundary uncertainty band (counted by the midpoint rule).
    """

    N: int
    count: int
    psi_sum: float
    ball_sum: Optional[float] = None
    flagged: int = 0


@dataclass(frozen=True)
class CountingRecord:
    """Per-sample result of a counting run: checkpoints plus the start point."""

    sample_id: int
    checkpoints: Tuple[Checkpoint, ...]
    x0: PointRd

    def __post_init__(self):
        object.__setattr__(self, "checkpoints", tuple(self.checkpoints))
        prev_n, prev_c = 0, 0
        for cp in self.checkpoints:
            if cp.N <= prev_n and prev_n > 0:
                raise ValueError("checkpoints must be strictly increasing in N")
            if cp.count < prev_c:
                raise ValueError("count must be non-decreasing in N")
            if cp.count > cp.N:
                raise ValueError("count cannot exceed the number of steps")
            prev_n, prev_c = cp.N, cp.count

    @property
    def final(self) -> Checkpoint:
        return self.checkpoints[-1]


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ``log value`` against ``n``.

    ``gamma = exp(slope)`` is the fitted exponential rate and
    ``amplitude = exp(intercept)`` the fitted prefactor; ``mixing`` is True
    when the series genuinely decays (negative slope).
    """

    slope: float
    intercept: float
    r_squared: float
    window: Tuple[int, int]

    def __post_init__(self):
        if not (0.0 <= self.r_squared <= 1.0):
            raise ValueError("r_squared must lie in [0, 1]")
        if self.window[1] < self.window[0]:
            raise ValueError("fit window is empty")

    @property
    def gamma(self) -> float:
        return math.exp(self.slope)

    @property
    def amplitude(self) -> float:
        return math.exp(self.intercept)

    @property
    def mixing(self) -> bool:
        return self.slope < 0.0


def fit_exponential_rate(series: Sequence[Tuple[float, float]]) -> RateFit:
    """Fit ``value ~ amplitude * gamma^n`` by least squares on ``log value``.

    Parameters
    ----------
    series : sequence of (n, value)
        At least four strictly positive values.
    """
    pts = [(float(n), float(v)) for n, v in series]
    if len(pts) < 4:
        raise ValueError("need at least 4 points for a rate fit")
    if any(v <= 0.0 for _, v in pts):
        raise ValueError("rate fit requires strictly positive values")
    ns = np.array([n for n, _ in pts])
    logs = np.log(np.array([v for _, v in pts]))
    if np.allclose(logs, logs[0], rtol=0.0, atol=1e-15):
        # a constant series: rate exactly 1, perfect (degenerate) fit
        return RateFit(0.0, float(logs[0]), 1.0, (int(ns.min()), int(ns.max())))
    slope, intercept = np.polyfit(ns, logs, 1)
    pred = slope * ns + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r2 = min(1.0, max(0.0, r2))
    return RateFit(float(slope), float(intercept), r2, (int(ns.min()), int(ns.max())))


def default_checkpoints(N: int) -> List[int]:
    """Geometric checkpoint grid 10^k and 3*10^k capped at ``N`` (always ends at N)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    cps = []
    base = 1000
    while base <= N:
        cps.append(base)
        if 3 * base <= N:
            cps.append(3 * base)
        base *= 10
    if N > 0 and (not cps or cps[-1] != N):
        cps.append(N)
    if N == 0:
        cps = [0]
    return cps


# ---------------------------------------------------------------------------
# shared orbit machinery
# ---------------------------------------------------------------------------


def _point_distances(pos: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Euclidean distances along the step axis for 1-D or planar positions."""
    if pos.ndim == 2:
        return np.abs(pos - center)
    diff = pos - center
    return np.sqrt(np.einsum("...k,...k->...", diff, diff))


# ---------------------------------------------------------------------------
# counting engine
# ---------------------------------------------------------------------------

# the distance test flags decisions within psi(n)/_FLAG_DIVISOR of the boundary
_FLAG_DIVISOR = 1000.0


@dataclass(frozen=True)
class _RunSpec:
    """A counting run's resolved plan: everything a worker needs to compute
    records for a block of samples."""

    backend: MeasureBackend
    kind: str  # "shrink" | "pure" | "modified"
    seed: int
    radii: np.ndarray  # psi(1..N): step radii, or measure quotas
    cp_idx: np.ndarray  # step index of each checkpoint (N - 1)
    hit_mode: str  # "distance" | "symbolic" | "mass"
    depth: int  # projection depth of the orbit windows
    prec: float  # certified position precision at that depth
    length: int  # symbols drawn per sample
    psi_sums: np.ndarray  # per-checkpoint deterministic normalizer
    ball_budget: int
    ks: Optional[np.ndarray] = None  # symbolic only: psi(n) = 3^-ks[n-1]
    targets: Optional[np.ndarray] = None  # shrink only: (N,) or (N, d)

    @property
    def N(self) -> int:
        return self.radii.size


def _worker_blocks(ids: Sequence[int], threads: int) -> List[list]:
    """Split the ids into at most one block per worker: every block repeats
    each sequential chain step."""
    size = math.ceil(len(ids) / max(threads, 1))
    return [list(ids[i : i + size]) for i in range(0, len(ids), size)]


def _counting_chunk(spec: _RunSpec, ids: Sequence[int]) -> List[CountingRecord]:
    """Records for one worker block of sample ids (deterministic per id).

    The block's time axis is walked in windows of ``_window_width(rows)``
    columns. Each window's symbols continue one chain pass and one Philox
    stream per row (one ``sample_symbol_block`` call on the block's
    :class:`SymbolSource`); its orbit points are projected, hit-tested and
    added to the open checkpoint segments. Across windows only the symbols
    the next points still read (``depth - 1``, or the symbolic test's
    lookahead), the start points, a symbolic run's first ``kmax`` symbols and
    the segment counts are carried, so memory is O(rows x width + N) for any
    N. Every decision is elementwise and every count an integer, so the
    records do not depend on the window width.
    """
    backend, N = spec.backend, spec.N
    rows = len(ids)
    source = SymbolSource(backend, spec.seed, ids)
    span = spec.length - N  # symbols each orbit point reads
    counts = _CheckpointCounts(rows, spec.cp_idx)
    flags = _CheckpointCounts(rows, spec.cp_idx)  # stays 0 in a symbolic run
    width = _window_width(rows)
    syms = np.empty((rows, 0), dtype=np.int8)
    point = 0  # orbit point of the first symbol in syms
    for c0 in range(0, spec.length, width):
        window = sample_symbol_block(backend, spec.seed, ids, min(width, spec.length - c0),
                                     source=source)
        syms = np.concatenate([syms, window], axis=1)
        n_points = syms.shape[1] - span + 1
        if n_points <= 0:
            continue
        skip = 1 if point == 0 else 0  # point 0 is the start, not a step
        steps = slice(point + skip - 1, point + n_points - 1)
        if spec.hit_mode == "symbolic":
            if point == 0:
                x0s = project_windows(syms[:, : spec.depth], backend.system, spec.depth)[:, 0]
                head = syms[:, : int(spec.ks.max())].copy()
            if n_points > skip:
                counts.add(_symbolic_self_hits(syms[:, skip:], head, spec.ks[steps]))
        else:
            pos = project_windows(syms, backend.system, spec.depth)
            if point == 0:
                x0s = pos[:, 0].copy()
                tables = (_radial_table(backend, x0s, spec.prec, float(spec.radii.min()),
                                        spec.depth) if spec.hit_mode == "mass" else None)
            if n_points > skip:
                hit, flag = _step_hits(spec, pos[:, skip:], x0s, steps, tables)
                counts.add(hit)
                flags.add(flag)
        syms = syms[:, n_points:]
        point += n_points
    if spec.hit_mode == "symbolic":
        prefix, level_counts = _staircase_terms(backend.probs, head, spec.ks, spec.cp_idx + 1)
        # row by row: a matrix product's bits would depend on the block's row count
        ball_cum = np.einsum("ik,ck->ic", prefix, level_counts)
    else:
        ball_cum = _own_ball_sums(spec, x0s) if spec.kind == "pure" else None
    return _records(spec, ids, x0s, counts.totals(), flags.totals(), ball_cum)


def _step_hits(spec, pos, x0s, steps, tables):
    """Hit and flag marks of the orbit points ``pos`` of one window of steps;
    ``tables`` holds a measure-equalized run's radial tables of the start points."""
    radii = spec.radii[steps]
    if spec.kind == "shrink":
        center = spec.targets[steps]  # per-step centers in window coordinates
    else:
        center = x0s[:, None] if pos.ndim == 2 else x0s[:, None, :]
    dist = _point_distances(pos, center)
    if spec.hit_mode == "mass":  # mass comparison against the per-step measure quota
        return _mass_quota_hits(spec, x0s, dist, radii, tables)
    # a target center is exact; a start point is as uncertain as the orbit
    slack = spec.prec if spec.kind == "shrink" else 2.0 * spec.prec
    band = np.maximum(radii / _FLAG_DIVISOR, slack)
    return dist <= radii, np.abs(dist - radii) <= band


def _records(spec, ids, x0s, counts, flags, ball_cum) -> List[CountingRecord]:
    system, cp_idx = spec.backend.system, spec.cp_idx
    recs = []
    for i, sid in enumerate(ids):
        x0 = as_point(
            float(x0s[i]) if np.ndim(x0s[i]) == 0 else tuple(np.atleast_1d(x0s[i])),
            system.dim,
        )
        rows = []
        for c, last in enumerate(cp_idx):
            ball = None if ball_cum is None else float(ball_cum[i, c])
            rows.append(
                Checkpoint(
                    int(last) + 1,
                    int(counts[i, c]),
                    float(spec.psi_sums[c]),
                    ball,
                    int(flags[i, c]),
                )
            )
        recs.append(CountingRecord(int(sid), tuple(rows), x0))
    return recs


class _CheckpointCounts:
    """Each row's running count of marks at the checkpoint steps, fed one
    window of steps at a time.

    Segment ``c`` holds the marks of steps ``cp_idx[c-1] + 1 .. cp_idx[c]``
    (``cp_idx`` strictly increasing, ending at ``N - 1``). A window adds its
    marks to the segments it meets, the one still open included, counting in
    place into an int64 ``(rows, checkpoints)`` array; :meth:`totals`
    accumulates the segments. Integer counts are exact, so the totals equal
    ``np.cumsum(marks, axis=1)[:, cp_idx]`` of the whole mark matrix
    whatever the windows.
    """

    def __init__(self, rows: int, cp_idx: np.ndarray):
        self._cp_idx = cp_idx
        self._segments = np.zeros((rows, cp_idx.size), dtype=np.int64)
        self._step = 0  # first step of the next window
        self._open = 0  # segment that the next step falls in

    def add(self, marks: np.ndarray) -> None:
        """Count a ``(rows, w)`` window of marks for the next ``w`` steps."""
        start, end = self._step, self._step + marks.shape[1]
        while self._step < end:
            seg_end = int(self._cp_idx[self._open]) + 1
            stop = min(seg_end, end)
            self._segments[:, self._open] += np.count_nonzero(
                marks[:, self._step - start : stop - start], axis=1)
            if stop == seg_end:
                self._open += 1
            self._step = stop

    def totals(self) -> np.ndarray:
        return np.cumsum(self._segments, axis=1)


def _symbolic_self_hits(syms, head, ks):
    """Exact self-return hits on the ternary Cantor set, one window of steps.

    ``syms`` starts with the window's first step and ``head`` holds the
    start's first ``kmax`` symbols. A closed ball of radius 3^-k around the
    orbit's start contains the step-n point exactly when the two symbol
    streams agree on their first k entries (distinct depth-k cylinders are
    separated by gaps of at least 3^-k; the facing-endpoint configurations
    that could touch across a gap require eventually-constant tails, a
    measure-zero event). The hit test is therefore exact and nothing is
    flagged; only the hit marks are returned.
    """
    shape = (syms.shape[0], ks.size)
    hit = np.zeros(shape, dtype=bool)
    hit[:, ks == 0] = True
    alive = np.ones(shape, dtype=bool)
    for j in range(int(ks.max())):
        alive &= syms[:, j : j + ks.size] == head[:, j][:, None]
        sel = ks == j + 1
        if sel.any():
            hit[:, sel] = alive[:, sel]
        if not alive.any():
            break
    return hit


def _staircase_terms(probs, head, ks, stops):
    """Exact own-ball terms of the radius ladder 3^-ks[n] on the Cantor set.

    mu(B(x, 3^-k)) equals the mass of the depth-k cylinder containing x
    (the ball covers that cylinder and meets no other one), which is the
    product of the first k branch weights of the sample path; ``head`` holds
    each row's first ``kmax`` symbols. Returns ``prefix``, each row's
    cylinder masses at depths 0..kmax, and ``counts`` (float64), for each
    stop, how many of the first ``stop`` steps have each level: a row's
    own-ball sum over those steps is ``prefix[i] @ counts[c]``.
    """
    kmax = int(ks.max())
    w = np.asarray(probs)[np.asarray(head[:, :kmax], dtype=np.int64) - 1]
    prefix = np.concatenate([np.ones((head.shape[0], 1)), np.cumprod(w, axis=1)], axis=1)
    counts = np.zeros((len(stops), kmax + 1))
    for c, stop in enumerate(stops):
        counts[c] = np.bincount(ks[:stop], minlength=kmax + 1)
    return prefix, counts


def _own_ball_sums(spec, x0s):
    """Cumulative own-ball measures sum_{n<=N} mu(B(x0, psi(n))) at checkpoints
    (bracket midpoints), one oracle call per sample over the distinct radii."""
    uniq, inverse = np.unique(spec.radii, return_inverse=True)
    cp_idx = spec.cp_idx
    out = np.empty((x0s.shape[0], cp_idx.size))
    for i, x0 in enumerate(x0s):
        lo, hi = _radial_mass(spec.backend, x0, uniq, spec.ball_budget)
        out[i] = np.cumsum((0.5 * (lo + hi))[inverse])[cp_idx]
    return out


def _mass_quota_hits(spec, x0s, dist, radii, tables=None):
    """Hit/flag marks of one window of steps of a measure-equalized run.

    A step is a hit when the ball around the start point through the orbit
    point carries less measure than the step's quota ``psi(n)`` (equivalent
    to the distance lying below the measure-equalized radius, since the
    radial mass is monotone and continuous). Start and orbit points are each
    known to ``prec``, so the step is a definite miss when the ball at
    ``max(d - 2 prec, 0)`` carries at least the quota and a definite hit when
    the ball at ``d + 2 prec`` carries less. Each start point's radial table
    (``tables``, built here when not given) decides most steps with one
    ``searchsorted`` per test: a hit when ``F_hi(d + 2 prec)`` is below the
    quota, a miss when ``F_lo(max(d - 2 prec, 0))`` reaches it. The oracle's
    brackets lie inside the table's, so the steps the table leaves open take
    the oracle's balls lazily and decide as if no table had screened them:
    the inner ball, then the outer ball for the steps it does not miss, and
    the ball at ``d`` for the steps still open, which are flagged and counted
    by its bracket midpoint. The run has checked that the oracle has a closed
    form.
    """
    backend, budget, slack = spec.backend, spec.ball_budget, 2.0 * spec.prec
    quota = np.broadcast_to(radii, dist.shape)
    if tables is None:
        tables = _radial_table(backend, x0s, spec.prec, float(np.min(radii)), spec.depth)
    hit = np.zeros(dist.shape, dtype=bool)
    still_open = np.zeros(dist.shape, dtype=bool)
    for i, (dmin, f_hi, dmax, f_lo) in enumerate(tables):
        d, q = dist[i], quota[i]
        np.less_equal(d + slack, dmin[np.searchsorted(f_hi, q)], out=hit[i])
        missed = np.maximum(d - slack, 0.0) >= dmax[np.searchsorted(f_lo, q)]
        np.logical_not(hit[i] | missed, out=still_open[i])
    rows, cols = np.nonzero(still_open)
    x, d, q = np.asarray(x0s, dtype=float)[rows], dist[rows, cols], quota[rows, cols]
    live = _radial_mass(backend, x, np.maximum(d - slack, 0.0), budget)[0] < q
    decided = np.zeros(d.size, dtype=bool)
    decided[live] = _radial_mass(backend, x[live], d[live] + slack, budget)[1] < q[live]
    near = live & ~decided
    mid_lo, mid_hi = _radial_mass(backend, x[near], d[near], budget)
    decided[near] = 0.5 * (mid_lo + mid_hi) < q[near]
    hit[rows, cols] = decided
    flag = np.zeros(dist.shape, dtype=bool)
    flag[rows, cols] = near
    return hit, flag


def _shared_psi_sums(kind, backend, targets, radii, cp_idx, ball_budget):
    """Deterministic per-checkpoint normalizer shared by all samples."""
    if kind != "shrink":
        return np.cumsum(radii)[cp_idx]
    # shrinking targets: sum of target-ball measures over the distinct balls
    balls, inverse = np.unique(np.column_stack([targets.reshape(radii.size, -1), radii]),
                               axis=0, return_inverse=True)
    centers = balls[:, :-1].reshape((-1,) + targets.shape[1:])
    lo, hi = _radial_mass(backend, centers, balls[:, -1], ball_budget)
    mids = 0.5 * (lo + hi)
    wide = int(np.count_nonzero(hi - lo > 0.1 * np.maximum(mids, 1e-300)))
    if wide:
        logger.warning("%d target balls had wide measure brackets; midpoints used", wide)
    return np.cumsum(mids[inverse.reshape(-1)])[cp_idx]


def _resolve_checkpoints(N, checkpoints):
    if checkpoints is None:
        return tuple(default_checkpoints(N))
    cps = sorted({int(c) for c in checkpoints})
    if not cps or cps[0] < 1 or cps[-1] > N:
        raise ValueError("checkpoints must lie in [1, N]")
    if cps[-1] != N:
        cps.append(N)
    return tuple(cps)


_PRUNER_BALL_CAP = 20_000  # own-ball evaluations per run without a closed form


def _check_oracle_serves(kind, backend, radii, n_samples, ball_budget):
    """Refuse, before any sampling, a run the radial-mass oracle cannot serve.

    Without a closed-form CDF the oracle is the cylinder pruner. Measure-
    equalized runs compare masses at every step and cannot use it. The other
    runs can, to the table depth of a spectral backend; a pure run pays one
    pruner call per sample and distinct radius, capped per run whatever the
    chunking or worker count.
    """
    if _closed_form(backend) is not None:
        return
    if kind == "modified":
        raise CertificationError(
            "measure-equalized recurrence needs a closed-form radial mass; "
            "use a Bernoulli ternary-Cantor or density backend"
        )
    if isinstance(backend, SpectralBackend) and ball_budget > backend.max_depth:
        raise ValueError(
            f"ball budget {ball_budget} is beyond the spectral table depth "
            f"{backend.max_depth}; set depth_budgets.ball to at most {backend.max_depth}"
        )
    if kind == "pure":
        ordered = np.sort(radii, axis=None)  # np.unique would import numpy.ma
        n_radii = int(np.count_nonzero(ordered[1:] != ordered[:-1])) + 1
        if n_samples * n_radii > _PRUNER_BALL_CAP:
            raise CertificationError(
                f"own-ball sums through the cylinder pruner need {n_samples} samples x "
                f"{n_radii} distinct radii = {n_samples * n_radii} ball evaluations, "
                f"above the cap of {_PRUNER_BALL_CAP} per run; use fewer samples or "
                "radii, or a Bernoulli ternary-Cantor or density backend"
            )


def _cantor_levels(radii: np.ndarray) -> Optional[np.ndarray]:
    """The int16 levels ``k >= 0`` with ``radii = 3^-k`` (a positive double
    3^-k has k <= 678), else None. The first radius is tried alone; the
    N-long pass holds one float array, the levels and one bool per radius."""
    for part in (radii[:1], radii):
        work = np.log(part)
        np.rint(np.divide(work, -_LN3, out=work), out=work)
        ks = work.astype(np.int16)
        np.power(3.0, np.negative(ks, out=ks), out=work)
        np.negative(ks, out=ks)
        if ks.min() < 0 or not np.array_equal(work, part):
            return None
    return ks


def _canonical_targets(targets, N, dim):
    """Normalize a target spec (point, PointRd, or per-step array) to per-step
    centers in window coordinates: shape (N,) on the line, (N, dim) in the plane.
    A NaN or infinite coordinate is refused: its balls would hold everything
    or nothing."""
    if isinstance(targets, PointRd):
        targets = targets.coords
    t = np.asarray(targets, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("targets must be finite")
    if t.ndim == 0:
        t = t.reshape(1)
    if t.ndim == 1:
        if t.size == dim:
            t = np.broadcast_to(t.reshape(1, dim), (N, dim))
        elif dim == 1 and t.size == N:
            t = t.reshape(N, 1)
        else:
            raise ValueError("a single target must have one coordinate per dimension")
    elif t.shape != (N, dim):
        raise ValueError(f"per-step targets must have shape ({N}, {dim})")
    return (t[:, 0] if dim == 1 else t).copy()


def _run_counting(
    system,
    backend,
    kind,
    psi,
    N,
    samples,
    seed,
    targets=None,
    checkpoints=None,
    ball_budget=45,
    threads=1,
    sample_ids=None,
) -> List[CountingRecord]:
    if backend.system is not system:
        raise ValueError("backend was built for a different system")
    if N < 0 or samples < 0:
        raise ValueError("N and samples must be >= 0")
    N = int(N)
    _key_word(seed, "seed")
    ids = _check_sample_ids(range(samples) if sample_ids is None else sample_ids)
    if N == 0:
        x0 = as_point(system.base_point(), system.dim)
        return [CountingRecord(sid, (Checkpoint(0, 0, 0.0),), x0) for sid in ids]
    cps = _resolve_checkpoints(N, checkpoints)
    if not ids:
        return []
    with np.errstate(over="ignore"):  # an overflow to inf is refused next
        radii = psi.values(np.arange(1, N + 1))
    if not np.all((radii > 0.0) & (radii < np.inf)):  # NaN fails too
        raise ValueError("radius function must be strictly positive and finite")
    # the plan: the hit test follows from the run's kind, measure and radii
    ks = None
    if (kind == "pure" and isinstance(backend, BernoulliBackend)
            and _is_middle_third_cantor(system)):
        ks = _cantor_levels(radii)
    if kind == "modified":
        mode = "mass"
    else:
        mode = "distance" if ks is None else "symbolic"
    if mode == "distance":
        # clamp the working precision to what float coordinates can certify;
        # per-step flag bands are floored at that precision downstream
        scale = max(system.attractor_diameter[1], 1.0)
        band = min(max(float(radii.min()) / _FLAG_DIVISOR, 1e-12 * scale), scale)
    else:
        band = 1e-12
    depth = system.depth_for_diameter(band)
    prec = system.diameter_bound(depth)
    length = N + (depth if ks is None else max(int(ks.max()), depth))
    _check_oracle_serves(kind, backend, radii, len(ids), ball_budget)
    if kind == "shrink":
        if targets is None:
            raise ValueError("shrinking-target runs need targets")
        targets = _canonical_targets(targets, N, system.dim)
    cp_idx = np.asarray(cps, dtype=np.int64) - 1
    psi_sums = _shared_psi_sums(kind, backend, targets, radii, cp_idx, ball_budget)
    spec = _RunSpec(backend, kind, int(seed), radii, cp_idx, mode, depth, prec, length,
                    psi_sums, ball_budget, ks, targets)
    blocks = _worker_blocks(ids, threads)
    if len(blocks) == 1:
        records = _counting_chunk(spec, ids)
    else:
        # imported here: a run with one worker block never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            parts = list(pool.map(_counting_chunk, itertools.repeat(spec), blocks))
        records = [r for part in parts for r in part]
    records.sort(key=lambda r: r.sample_id)
    return records


def shrinking_target_run(
    system: IfsSystem,
    backend: MeasureBackend,
    targets,
    psi: RadiusFunction,
    N: int,
    samples: int,
    seed: int,
    *,
    checkpoints: Optional[Sequence[int]] = None,
    ball_budget: int = 45,
    threads: int = 1,
    sample_ids: Optional[Sequence[int]] = None,
) -> List[CountingRecord]:
    """Count orbit visits to the shrinking balls ``B(y_n, psi(n))``.

    ``targets`` is a single point (constant target) or an ``(N, d)`` array of
    per-step centers. ``psi_sum`` of each checkpoint accumulates the
    target-ball measures (bracket midpoints of the radial-mass oracle, one
    oracle call over the distinct balls; without a closed-form CDF that call
    is one batched pruner descent, and each ball stops at depth
    ``ball_budget``, which a spectral backend must cover, else ``ValueError``
    before sampling, or earlier at the pruner's node cap, keeping its
    certified bracket). Hits are decided on distances; a decision within the
    flag band ``max(psi(n)/1000, prec)`` of the boundary (``prec`` is the
    certified precision of the projected orbit; the target centers are
    exact) is taken by the midpoint rule and counted in ``flagged``.
    ``sample_ids`` replaces the default id range ``0..samples-1`` (each id's
    symbol stream is fixed by ``seed`` alone, so id blocks computed
    separately concatenate to the full run). The seed and the ids must be
    integers in ``[0, 2**64)``, the ids without repeats, else ``ValueError``
    before any set-up.
    """
    return _run_counting(system, backend, "shrink", psi, N, samples, seed,
                         targets=targets, checkpoints=checkpoints,
                         ball_budget=ball_budget, threads=threads,
                         sample_ids=sample_ids)


def recurrence_pure_run(
    system: IfsSystem,
    backend: MeasureBackend,
    psi: RadiusFunction,
    N: int,
    samples: int,
    seed: int,
    *,
    checkpoints: Optional[Sequence[int]] = None,
    ball_budget: int = 45,
    threads: int = 1,
    sample_ids: Optional[Sequence[int]] = None,
) -> List[CountingRecord]:
    """Count self-returns ``T^n x`` into ``B(x, psi(n))`` around the start point.

    ``ball_sum`` accumulates the sample's own-ball measures
    ``mu(B(x, psi(n)))``; ``psi_sum`` accumulates the raw radii. The hit test
    follows from the inputs. A Bernoulli measure on the ternary Cantor set
    with every radius a power ``3^-k`` (``k >= 0``) takes the exact symbolic
    test: a hit is agreement of the first ``k`` symbols, nothing is flagged,
    and the ball sums are exact cylinder-mass products. Every other run
    compares distances, takes decisions within the flag band
    ``max(psi(n)/1000, 2 prec)`` by the midpoint rule and counts them in
    ``flagged`` (the band is ``2 prec`` wide at least, since the center is
    itself a projected point); its ball sums are bracket midpoints of the
    radial-mass oracle. Without a closed-form CDF that oracle is the
    cylinder pruner, one batched descent over a sample's distinct radii,
    each ball stopped at depth ``ball_budget`` or earlier at the node cap
    with its certified bracket: before any sampling, the run raises
    ``ValueError`` when a spectral table is shallower than ``ball_budget``,
    and ``CertificationError`` when samples x distinct radii exceeds 20 000.
    ``sample_ids`` replaces the default id range, with the same checks.
    """
    return _run_counting(system, backend, "pure", psi, N, samples, seed,
                         checkpoints=checkpoints, ball_budget=ball_budget,
                         threads=threads, sample_ids=sample_ids)


def recurrence_modified_run(
    system: IfsSystem,
    backend: MeasureBackend,
    psi: RadiusFunction,
    N: int,
    samples: int,
    seed: int,
    *,
    checkpoints: Optional[Sequence[int]] = None,
    ball_budget: int = 45,
    threads: int = 1,
    sample_ids: Optional[Sequence[int]] = None,
) -> List[CountingRecord]:
    """Count self-returns into measure-equalized balls of measure ``psi(n)``.

    The target at step ``n`` is the ball around the start point whose measure
    is exactly ``psi(n)`` (radius capped at the attractor diameter when
    ``psi(n) >= 1``), so ``psi_sum`` is the exact expected count
    ``sum psi(n)``. A step is a hit when the radial mass through the orbit
    point lies below the quota, decided the same way for every backend by
    two balls around the start point that cover the position uncertainty
    ``2 prec`` of the observed distance ``d``: the step misses when the ball
    at ``max(d - 2 prec, 0)`` carries at least the quota and hits when the
    ball at ``d + 2 prec`` carries less. Each worker reads both balls first
    from one radial table per start point, built once; only the steps the
    table leaves open take the oracle's balls, whose brackets lie inside the
    table's, so the decisions are the oracle's. A step neither oracle ball
    decides is flagged and counted by the midpoint rule at ``d``. The
    comparison needs a closed-form CDF (density or weighted ternary-Cantor
    backends); other backends raise ``CertificationError`` before sampling.
    ``sample_ids`` replaces the default id range, with the same checks.
    """
    return _run_counting(system, backend, "modified", psi, N, samples, seed,
                         checkpoints=checkpoints, ball_budget=ball_budget,
                         threads=threads, sample_ids=sample_ids)


# ---------------------------------------------------------------------------
# residual normalization
# ---------------------------------------------------------------------------


def bc_residual(record: CountingRecord, epsilon: float = 0.1) -> List[Tuple[int, float]]:
    """Normalized counting residuals ``(count - S) / (sqrt(S) log(S+1)^{3/2+eps})``.

    ``S`` is the checkpoint's ``ball_sum`` when present (own-ball runs) and
    ``psi_sum`` otherwise; checkpoints with ``S <= 1`` are skipped.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    out = []
    for cp in record.checkpoints:
        s = cp.ball_sum if cp.ball_sum is not None else cp.psi_sum
        if s <= 1.0:
            continue
        norm = math.sqrt(s) * math.log(s + 1.0) ** (1.5 + epsilon)
        out.append((cp.N, (cp.count - s) / norm))
    return out


# ---------------------------------------------------------------------------
# pairwise independence inequality
# ---------------------------------------------------------------------------


def _event_word(event, n):
    if callable(event):
        return tuple(event(n))
    return tuple(event)


def pairwise_independence_check(
    system: IfsSystem,
    backend: MeasureBackend,
    event,
    a: int,
    b: int,
    *,
    kappa: float = 0.0,
    mc_samples: Optional[int] = None,
    seed: int = 0,
) -> dict:
    """Check ``sum_{m,n} mu(A_m inter A_n) <= (sum mu)^2 + (2 kappa + 1) sum mu``.

    Events are pullbacks ``A_n = T^-n E_n``. ``event`` is a cylinder word
    (constant across ``n``), a callable ``n -> word``, or, with
    ``mc_samples`` set, a ``(center, radius)`` ball estimated by Monte Carlo
    over that many sample orbits. Cylinder event masses and pair masses
    ``mu(A_m inter A_n)`` are read off level tables (``gibbs._pair_mass``),
    so on a spectral backend every event word and every pair must lie within
    the table; a deeper level is refused. The returned dict carries both
    sides, the error coefficient, and the verdict with the supplied ``kappa``.
    """
    if not (1 <= a <= b):
        raise ValueError("need 1 <= a <= b")
    if backend.system is not system:
        raise ValueError("backend belongs to a different system")
    if mc_samples is not None:
        return _pairwise_ball_mc(system, backend, event, a, b, kappa, mc_samples, seed)
    words = {n: FiniteWord(_event_word(event, n), system.m) for n in range(a, b + 1)}
    # the diagonal terms mu(A_n inter A_n) = mu(A_n) are the shift-0 pairs
    mus = {n: _pair_mass(backend, words[n], words[n], 0) for n in words}
    lhs = total = sum(mus.values())
    for m in range(a, b + 1):
        for n in range(m + 1, b + 1):
            lhs += 2.0 * _pair_mass(backend, words[m], words[n], n - m)
    rhs_main = total * total
    bound = rhs_main + (2.0 * kappa + 1.0) * total
    return {
        "lhs": lhs,
        "rhs_main": rhs_main,
        "rhs_error": total,
        "kappa": kappa,
        "bound": bound,
        "satisfied": lhs <= bound + 1e-12,
        "pairs": (b - a + 1) ** 2,
    }


def _pairwise_ball_mc(system, backend, event, a, b, kappa, mc_samples, seed):
    center, radius = event
    center = as_point(center, system.dim)
    depth = system.depth_for_diameter(max(radius, 1e-9) / 1000.0)
    block = sample_symbol_block(backend, seed, range(mc_samples), b + depth)
    pos = project_windows(block[:, a:], system, depth)  # the points of steps a..b
    c = np.asarray(center.coords)
    dist = _point_distances(pos, c if system.dim > 1 else c[0])
    H = dist <= radius
    freqs = H.mean(axis=0)
    total = float(freqs.sum())
    joint = (H.astype(float).T @ H.astype(float)) / mc_samples
    lhs = float(joint.sum() - np.trace(joint) + freqs.sum())
    rhs_main = total * total
    bound = rhs_main + (2.0 * kappa + 1.0) * total
    return {
        "lhs": lhs,
        "rhs_main": rhs_main,
        "rhs_error": total,
        "kappa": kappa,
        "bound": bound,
        "satisfied": lhs <= bound + 4.0 / math.sqrt(mc_samples),
        "pairs": (b - a + 1) ** 2,
        "mc_samples": mc_samples,
    }


def cylinder_event_crosscheck(
    system: IfsSystem,
    backend: MeasureBackend,
    words: Sequence[Tuple[int, ...]],
    n: int,
    samples: int,
    seed: int,
) -> List[dict]:
    """Monte-Carlo hit frequencies of ``T^-n`` cylinder pullbacks vs exact masses.

    For each word the orbit hits the cylinder at step ``n`` exactly when the
    path symbols at offsets ``n..n+|word|-1`` match the word, so frequencies
    are exact Bernoulli trials of the invariant cylinder mass.
    """
    if not words:
        raise ValueError("words must name at least one cylinder")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    maxlen = max(len(w) for w in words)
    block = sample_symbol_block(backend, seed, range(samples), n + maxlen)
    out = []
    for w in words:
        arr = np.asarray(w, dtype=np.int8)
        hitmat = block[:, n : n + len(w)] == arr[None, :]
        freq = float(hitmat.all(axis=1).mean())
        exact = cylinder_measure(backend, tuple(w))
        sigma = math.sqrt(max(exact * (1.0 - exact), 1e-300) / samples)
        out.append({
            "word": tuple(int(s) for s in w),
            "exact": exact,
            "freq": freq,
            "sigma": sigma,
            "z": (freq - exact) / sigma if sigma > 0 else 0.0,
        })
    return out


# ---------------------------------------------------------------------------
# product systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductSystem:
    """Product of factor systems under the max metric.

    Cylinders are pairs (one factor word each); the ambient dimension is the
    sum of factor dimensions and distances are the max of factor distances.
    """

    factors: Tuple[IfsSystem, ...]

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def branch_counts(self) -> Tuple[int, ...]:
        return tuple(f.m for f in self.factors)

    def distance(self, x: Sequence[float], y: Sequence[float]) -> float:
        dx, out = 0, 0.0
        for f in self.factors:
            d = f.dim
            a = np.asarray(x[dx : dx + d], dtype=float)
            b = np.asarray(y[dx : dx + d], dtype=float)
            out = max(out, float(np.linalg.norm(a - b)))
            dx += d
        return out


class ProductBackend:
    """Product measure over a :class:`ProductSystem`; cylinder = word pair."""

    def __init__(self, system: ProductSystem, backends: Sequence[MeasureBackend]):
        if len(system.factors) != len(backends):
            raise ValueError("one backend per factor required")
        for f, b in zip(system.factors, backends):
            if b.system is not f:
                raise ValueError("factor backend was built for a different system")
        self.system = system
        self.backends = tuple(backends)

    def cylinder_measure(self, words: Sequence[Tuple[int, ...]]) -> float:
        if len(words) != len(self.backends):
            raise ValueError("need one word per factor")
        out = 1.0
        for b, w in zip(self.backends, words):
            out *= cylinder_measure(b, tuple(w))
        return out

    def cube_joint(self, E, F, n: int) -> float:
        """mu((E1 x E2 ...) inter T^-n (F1 x F2 ...)): the factor joints multiply."""
        if len(E) != len(self.backends) or len(F) != len(self.backends):
            raise ValueError("need one word per factor")
        out = 1.0
        for f, b, e, g in zip(self.system.factors, self.backends, E, F):
            out *= _pair_mass(b, FiniteWord(tuple(e), f.m), FiniteWord(tuple(g), f.m), n)
        return out


def product_system(sysA, backendA, sysB, backendB) -> Tuple[ProductSystem, ProductBackend]:
    """Build the two-factor product system and its product-measure backend."""
    ps = ProductSystem((sysA, sysB))
    return ps, ProductBackend(ps, (backendA, backendB))


def product_cube_mixing(backend: ProductBackend, depth: int, n: int) -> float:
    """Mixing coefficient over cube events (per-factor depth-``depth`` cylinders).

    Maximizes ``|mu(E inter T^-n F)/mu(F) - mu(E)|`` over all cubes whose
    factor words have length ``depth``; requires ``n >= depth`` so the past
    and future blocks are disjoint (product measures then score exactly 0).
    Each factor's joint masses are one table,
    ``_joint_masses(b, depth, n - depth, depth)``, so every factor backend
    must serve level ``n + depth`` exactly (a spectral factor: within its
    table depth).
    """
    if n < depth:
        raise ValueError("need n >= depth so event blocks are disjoint")
    JA, JB = (_joint_masses(b, depth, n - depth, depth) for b in backend.backends)
    pA, pB = (b.level_table(depth) for b in backend.backends)
    ratio = np.einsum("ij,kl->ikjl", JA, JB) / np.einsum("j,l->jl", pA, pB)[None, None, :, :]
    ref = np.einsum("i,k->ik", pA, pB)[:, :, None, None]
    return float(np.abs(ratio - ref).max())


def product_mixing_bound(envelopes: Sequence[Tuple[float, float]], n: int) -> float:
    """Combined cube-mixing envelope ``2^k C^k gamma^n``.

    ``C`` and ``gamma`` are the worst (largest) factor constants; a factor
    with exact independence contributes envelope ``(0, 0)`` and drops out of
    the maxima.
    """
    k = len(envelopes)
    if k == 0:
        raise ValueError("need at least one factor envelope")
    C = max(e[0] for e in envelopes)
    g = max(e[1] for e in envelopes)
    return (2.0 ** k) * C ** k * g ** n


# ---------------------------------------------------------------------------
# construction-specific doubling brackets (weighted gasket tangency sequence)
# ---------------------------------------------------------------------------


def gasket_tangency_doubling_bracket(probs: Sequence[float], n: int) -> dict:
    """Certified doubling bracket at the bottom-edge tangency of a weighted gasket.

    The probe ball sits just right of the bottom-edge midpoint ``(1/2, 0)`` of
    the unit-gasket attractor: with ``eps = 2^-(n+1)``, ``m = floor(n ln 10 /
    ln(5/4))`` and ``rho = 2^-m``, the ball ``B((1/2 + eps, 0), eps + rho)``
    reaches exactly ``rho`` past the midpoint into the left half. Every
    cylinder it can meet lies on one of the two corner cascades converging to
    the midpoint from either side, so the mass brackets are explicit
    geometric series of corner-cylinder weights: the left contribution is a
    depth-``m`` cascade mass while the right contribution is a depth-``n``
    cascade mass, and doubling the radius promotes the left contribution by
    ``m - n`` levels -- the doubling ratio blows up like the weight ratio to
    that power. Returns lower/upper ratio bounds and their midpoint.
    """
    p1, p2, p3 = (float(p) for p in probs)
    if n < 2:
        raise ValueError("the probe sequence starts at n = 2")
    m = int(math.floor(n * math.log(10.0) / math.log(5.0 / 4.0)))
    if m < n + 2:
        raise ValueError("scale separation m >= n + 2 violated")
    eps = 2.0 ** -(n + 1)
    rho = 2.0 ** -m
    r = eps + rho
    geo = 1.0 / (1.0 - p3)
    small_lo = p2 * p1 ** (n - 1) * (p1 + p2) + p1 * p2 ** (m - 1)
    small_hi = p2 * p1 ** (n - 1) + p1 * p2 ** (m - 1) * geo + p2 * p2 * p1 ** (m - 2) * geo
    big_lo = p1 * p2 ** n + p2 * p1 ** (n - 1) * (1.0 + p2)
    big_hi = p1 * p2 ** (n - 1) * geo + p2 * (p1 ** (n - 2) * geo if n >= 3 else 1.0)
    return {
        "n": n,
        "m": m,
        "epsilon": eps,
        "rho": rho,
        "radius": r,
        "center": (0.5 + eps, 0.0),
        "small_ball": (small_lo, small_hi),
        "large_ball": (big_lo, big_hi),
        "ratio_lower": big_lo / small_hi,
        "ratio_upper": big_hi / small_lo,
        "ratio_mid": 0.5 * (big_lo / small_hi + big_hi / small_lo),
    }


# ---------------------------------------------------------------------------
# CSV / summary emission
# ---------------------------------------------------------------------------

CSV_HEADER = ("sample_id", "N", "count", "psi_sum", "ball_sum", "residual")


def records_to_rows(records: Sequence[CountingRecord], epsilon: float = 0.1) -> List[tuple]:
    """Flatten records into CSV rows (one per sample per checkpoint)."""
    rows = []
    for rec in records:
        res = dict(bc_residual(rec, epsilon)) if rec.checkpoints[-1].N > 0 else {}
        for cp in rec.checkpoints:
            rows.append((
                rec.sample_id,
                cp.N,
                cp.count,
                repr(float(cp.psi_sum)),
                "" if cp.ball_sum is None else repr(float(cp.ball_sum)),
                "" if cp.N not in res else repr(float(res[cp.N])),
            ))
    return rows


def write_results_csv(path, records: Sequence[CountingRecord], epsilon: float = 0.1) -> None:
    """Write the per-sample-per-checkpoint CSV with a stable header."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        w.writerows(records_to_rows(records, epsilon))


_QUANTILE_LEVELS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def _linear_quantiles(values: np.ndarray) -> np.ndarray:
    """``np.quantile(values, _QUANTILE_LEVELS)`` bit for bit: numpy's default
    linear rule on the sorted values, written out because ``np.quantile``
    imports numpy.ma (through ``np.unique``), about 20 ms of a counting run."""
    ordered = np.sort(values, axis=None)
    virtual = (ordered.size - 1) * _QUANTILE_LEVELS
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= ordered.size - 1  # numpy reads the last value there
    below[top] = above[top] = -1
    gamma = virtual - below
    a, b = ordered[below.astype(np.intp)], ordered[above.astype(np.intp)]
    step = b - a
    qs = a + step * gamma
    np.subtract(b, step * (1 - gamma), out=qs, where=gamma >= 0.5)
    if np.isnan(ordered[-1]):  # a NaN sorts last and makes every quantile NaN
        qs[:] = np.nan
    return qs


def _quantiles(values: np.ndarray) -> dict:
    if values.size == 0:
        return {}
    qs = _linear_quantiles(values)
    return {"min": float(qs[0]), "q25": float(qs[1]), "median": float(qs[2]),
            "q75": float(qs[3]), "max": float(qs[4]), "mean": float(values.mean())}


def summarize_records(records: Sequence[CountingRecord], epsilon: float = 0.1) -> dict:
    """Cross-sample summary at the final checkpoint (means, quantiles, flags)."""
    if not records:
        return {"samples": 0}
    finals = [r.final for r in records]
    counts = np.array([c.count for c in finals], dtype=float)
    residuals = []
    for r in records:
        rs = bc_residual(r, epsilon)
        if rs:
            residuals.append(rs[-1][1])
    flagged = sum(c.flagged for c in finals)
    total_hits = int(counts.sum())
    out = {
        "samples": len(records),
        "N": finals[0].N,
        "count": _quantiles(counts),
        "psi_sum": finals[0].psi_sum,
        "flagged_fraction": flagged / max(total_hits, 1),
        "residual": _quantiles(np.array(residuals)) if residuals else {},
    }
    if all(c.ball_sum is not None for c in finals):
        balls = np.array([c.ball_sum for c in finals])
        out["ball_sum"] = _quantiles(balls)
        out["count_over_ball_sum"] = _quantiles(counts / np.maximum(balls, 1e-300))
    return out


# ---------------------------------------------------------------------------
# named end-to-end examples
# ---------------------------------------------------------------------------

NAMED_EXAMPLES = {
    "7.1": "constant-radius recurrence on the ternary Cantor set (region limits 4/5 and 6/5)",
    "7.2": "four-branch interval system: spectral density check and sqrt-radius recurrence",
    "ABB": "weighted Cantor staircase radii: divergent measure sums with bounded counts",
    "B.2": "weighted gasket tangency doubling probe and line-supported non-decay series",
}

def run_named_example(name: str, overrides: Optional[Mapping[str, float]] = None, *,
                      seed: Optional[int] = None, threads: int = 1) -> dict:
    """Run one of the canned analyses and return its JSON-ready report.

    The report's ``"records"`` key (when the analysis runs sample orbits)
    holds :class:`CountingRecord` objects for CSV emission; everything else
    is JSON-serializable. ``overrides`` maps the example's own knobs (``N``,
    ``samples``, ``quadrature_samples``, ``tail_points``, ``mc_samples``,
    ...) to values that shrink the canonical configuration; a key the
    example does not take raises ``ValueError`` naming the ones it does.
    ``seed`` reseeds the sample orbits (B.2 draws none) and ``threads`` sizes
    the worker pool.
    """
    if name not in NAMED_EXAMPLES:
        raise ValueError(f"unknown example {name!r}; known: {sorted(NAMED_EXAMPLES)}")
    example, default_seed = _EXAMPLE_RUNNERS[name]
    knobs = list(inspect.signature(example).parameters)[2:]
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(knobs))
    if unknown:
        routes = {"seed": "experiment.seed (the seed argument)",
                  "threads": "--threads (the threads argument)"}
        notes = "".join(f"; set {k} through {routes[k]}" for k in unknown if k in routes)
        raise ValueError(
            f"example {name} takes no override {', '.join(unknown)} "
            f"(accepted: {', '.join(knobs) or 'none'}){notes}"
        )
    seed = default_seed if seed is None else int(seed)
    return example(threads, seed, **overrides)


def _example_constant_radius(threads, seed, N=100_000, samples=200, mc_samples=20_000):
    """Constant-radius recurrence on the uniform ternary Cantor set.

    The radius 5/9 makes the own-ball measure piecewise constant in the start
    point: 1/2 on the outer third-of-a-third cylinders, 3/4 on the inner
    ones, averaging to 5/8. Per-sample counts normalized by (5/8) N then
    split by region around 4/5 and 6/5.
    """
    system = builtin_system("middle_third_cantor")
    backend = BernoulliBackend(system, (0.5, 0.5))
    psi = ConstantRadius(5.0 / 9.0)
    records = recurrence_pure_run(system, backend, psi, N, samples, seed,
                                  threads=threads)
    # region of the start point from its first two branch choices
    block = sample_symbol_block(backend, seed, range(samples), 2)
    outer = (block[:, 0] == block[:, 1])  # branches 11 / 22 hug the endpoints
    norm = 0.625 * N
    ratios = np.array([r.final.count for r in records]) / norm
    mean_outer = float(ratios[outer].mean()) if outer.any() else float("nan")
    mean_middle = float(ratios[~outer].mean()) if (~outer).any() else float("nan")
    # exact own-ball masses at interior representatives of the two regions
    br_outer = ball_measure(backend, 0.0, 5.0 / 9.0)
    br_middle = ball_measure(backend, 0.25, 5.0 / 9.0)
    # independent Monte-Carlo estimate of the step-30 return probability
    mc_ids = range(2_000_000, 2_000_000 + mc_samples)
    depth = system.depth_for_diameter(5.0 / 9.0 / 1000.0)
    mc_block = sample_symbol_block(backend, seed, mc_ids, 30 + depth)
    # only the start and the step-30 point, each projected from its own window
    mc_x0 = project_windows(mc_block[:, :depth], system, depth)[:, 0]
    mc_x30 = project_windows(mc_block[:, 30:], system, depth)[:, 0]
    mc_hit = np.abs(mc_x30 - mc_x0) <= 5.0 / 9.0
    est = float(mc_hit.mean())
    sigma = math.sqrt(0.625 * 0.375 / mc_samples)
    summary = summarize_records(records)
    return {
        "example": "7.1",
        "description": NAMED_EXAMPLES["7.1"],
        "seed": seed,
        "N": N,
        "samples": samples,
        "radius": 5.0 / 9.0,
        "per_step_mean_measure": 0.625,
        "regions": {
            "outer": {"samples": int(outer.sum()), "mean_ratio": mean_outer,
                      "expected": 0.8, "band": [0.75, 0.85]},
            "middle": {"samples": int((~outer).sum()), "mean_ratio": mean_middle,
                       "expected": 1.2, "band": [1.15, 1.25]},
        },
        "ball_brackets": {
            "outer_at_0": [br_outer.lower, br_outer.upper],
            "middle_at_quarter": [br_middle.lower, br_middle.upper],
            "expected": [0.5, 0.75],
        },
        "mc_step30": {"samples": mc_samples, "estimate": est, "target": 0.625,
                      "sigma": sigma, "z": (est - 0.625) / sigma},
        "summary": summary,
        "records": records,
    }


_DENSITY_GRID = 1025  # points of [0, 1] where 7.2 reads the density error


def _example_interval_quartet(threads, seed, N=100_000, samples=100, eigen_depth=10,
                              mixing_depth=8):
    """Four-branch interval system: spectral cross-check plus recurrence limits.

    The invariant density is 1/(ln 2 (1 + x)); with radii n^(-1/2) the
    per-sample count over sum of radii converges to twice the density at the
    start point, i.e. (2 ln 2 / (1 + x0)) after the (ln 2)^2 normalization.
    """
    system = builtin_system("moebius_interval_quartet")
    report = eigen_solve(system, ConformalPowerPotential(1.0), eigen_depth)
    # sup |h - 1/(ln 2 (1 + x))| on a fixed grid; the mass table is never read
    grid = np.linspace(0.0, 1.0, _DENSITY_GRID)
    h_err = float(np.max(np.abs(report.h_at(grid) - 1.0 / (math.log(2.0) * (1.0 + grid)))))
    backend = DensityBackend(system, "reciprocal_log2")
    psi = PowerRadius(1.0, 0.5)
    records = recurrence_pure_run(system, backend, psi, N, samples, seed,
                                  threads=threads)
    ln2 = math.log(2.0)
    psi_total = records[0].final.psi_sum
    finals = np.array([r.final.count for r in records], dtype=float)
    x0 = np.array([r.x0.x for r in records])
    estimates = finals * ln2 * ln2 / psi_total
    targets = 2.0 * ln2 / (1.0 + x0)
    within = np.abs(estimates - targets) <= 0.15
    balls = np.array([r.final.ball_sum for r in records])
    ratio_within = np.abs(finals / balls - 1.0) <= 0.15
    # residual normalizations for tempered exponents (informational)
    eta_res = {}
    for eta in (0.0, 0.05, 0.1):
        s = float(np.sum(np.arange(1, N + 1) ** (-0.5 * (1.0 - eta))))
        vals = (finals - balls) / (math.sqrt(s) * math.log(s + 1.0) ** 1.6)
        eta_res[f"{eta}"] = _quantiles(np.abs(vals))
    coeffs = [(n, mixing_coeff_cylinders(backend, mixing_depth, n))
              for n in range(2, 7)]
    fit = fit_exponential_rate(coeffs)
    summary = summarize_records(records)
    return {
        "example": "7.2",
        "description": NAMED_EXAMPLES["7.2"],
        "seed": seed,
        "N": N,
        "samples": samples,
        "eigen": {
            "depth": eigen_depth,
            "nodes": report.nodes,
            "eigenvalue": report.eigenvalue,
            "eigenvalue_gap": abs(report.eigenvalue - 1.0),
            "density_sup_error": h_err,
            "density_form": "1/(ln2 * (1+x))",
        },
        "limit": {
            "normalizer": psi_total / (ln2 * ln2),
            "fraction_within_band": float(within.mean()),
            "band": 0.15,
            "required_fraction": 0.85,
            "estimates": _quantiles(estimates),
        },
        "ratio_to_ball_sum": {"fraction_within_band": float(ratio_within.mean()),
                              "band": 0.15},
        "tempered_residuals": eta_res,
        "mixing": {
            "depth": mixing_depth,
            "coefficients": [[n, c] for n, c in coeffs],
            "gamma": fit.gamma,
            "amplitude": fit.amplitude,
            "r_squared": fit.r_squared,
        },
        "summary": summary,
        "records": records,
    }


def _staircase_alpha_window(probs: Sequence[float]) -> Tuple[float, float]:
    """Exponent window for the Cantor staircase radii 3^(-floor(alpha ln n)).

    Below the lower endpoint (inverse entropy) the typical own-ball series
    diverges; above the upper endpoint (inverse collision exponent) the mean
    own-ball series converges. Strictly inside, the mean diverges while the
    typical series converges -- counts stay bounded despite divergent sums.
    "Bounded" means finite for mu-almost every start point, not uniform
    across samples: the mean count follows the divergent mean sum.
    """
    p = np.asarray(probs, dtype=float)
    entropy = float(-(p * np.log(p)).sum())
    collision = float(-math.log(float((p * p).sum())))
    return 1.0 / entropy, 1.0 / collision


def _example_staircase(threads, seed, N=1_000_000, samples=200, quadrature_samples=4096,
                       tail_points=20, tail_split=100_000):
    """Weighted Cantor with staircase radii at the midpoint exponent.

    Own-ball measures at radius 3^-k equal the depth-k cylinder mass of the
    start point, so every series here is an exact prefix-product sum; hits
    are the exact symbolic self-matches. The mean measure sum diverges while
    per-sample counts stay bounded, that is finite for mu-almost every start
    point; no bound holds uniformly across samples, since each count tracks
    its own-ball sum and the largest count grows with the mean sum.
    The tail probe reads the first ``tail_points`` quadrature samples past
    step ``tail_split``, so it refuses ``tail_split >= N`` and
    ``tail_points > quadrature_samples`` before any sampling.
    """
    if tail_split >= N:
        raise ValueError(f"tail_split {tail_split} must be below N {N}")
    if tail_points > quadrature_samples:
        raise ValueError(f"tail_points {tail_points} must be at most "
                         f"quadrature_samples {quadrature_samples}")
    probs = (0.2, 0.8)
    system = builtin_system("middle_third_cantor")
    backend = BernoulliBackend(system, probs)
    lo, hi = _staircase_alpha_window(probs)
    alpha = 0.5 * (lo + hi)
    psi = PowerLogRadius(alpha)
    records = recurrence_pure_run(system, backend, psi, N, samples, seed,
                                  threads=threads)
    finals = np.array([r.final.count for r in records])
    cps = [cp.N for cp in records[0].checkpoints]
    # quadrature over an independent sample set: mean own-ball sums
    ks = _cantor_levels(psi.values(np.arange(1, N + 1)))
    qids = range(1_000_000, 1_000_000 + quadrature_samples)
    qblock = sample_symbol_block(backend, seed, qids, int(ks.max()))
    prefix, counts = _staircase_terms(probs, qblock, ks, cps + [tail_split])
    integral = [float((prefix @ cnt).mean()) for cnt in counts[:-1]]
    # per-point tail probe: largest summand past the split, realized tails
    k_split = int(math.floor(alpha * math.log(tail_split + 1)))
    tails_max = prefix[:tail_points, k_split]
    realized = prefix[:tail_points] @ (counts[-2] - counts[-1])
    summary = summarize_records(records)
    return {
        "example": "ABB",
        "description": NAMED_EXAMPLES["ABB"],
        "seed": seed,
        "N": N,
        "samples": samples,
        "probs": list(probs),
        "alpha_window": [lo, hi],
        "alpha": alpha,
        "integral_sum": {
            "quadrature_samples": quadrature_samples,
            "checkpoints": cps,
            "values": integral,
            "final": integral[-1],
            "exceeds_10": integral[-1] > 10.0,
            "increasing": all(b > a for a, b in zip(integral, integral[1:])),
        },
        "run": {
            "max_final_count": int(finals.max()),
            "count": _quantiles(finals.astype(float)),
        },
        "tail_probe": {
            "points": tail_points,
            "split": tail_split,
            "max_summand_past_split": [float(v) for v in tails_max],
            "all_below_1e-3": bool(np.all(tails_max < 1e-3)),
            "realized_tail_sums": [float(v) for v in realized],
        },
        "summary": summary,
        "records": records,
    }


def _example_gasket_probe(threads, seed) -> dict:
    """Weighted gasket doubling blow-up and line-supported non-decay probe.

    Every quantity is a certified bracket, so the example draws no samples
    and runs serially: ``threads`` and ``seed`` are unused.
    """
    probs = (0.1, 0.8, 0.1)
    rows = [gasket_tangency_doubling_bracket(probs, n) for n in range(2, 9)]
    mids = [r["ratio_mid"] for r in rows]
    line_system = builtin_system("two_line_cantor")
    line_backend = BernoulliBackend(line_system, (0.5, 0.5))
    center = line_system.base_point()
    hyper = []
    for k in range(3, 11):
        probe = hyperplane_decay_probe(line_backend, center, 0.4, 3.0 ** -k,
                                       (1.0, 0.0), 0.0)
        hyper.append({"rho": 3.0 ** -k, "ratio_lower": probe["ratio_low"],
                      "ratio_upper": probe["ratio_high"]})
    return {
        "example": "B.2",
        "description": NAMED_EXAMPLES["B.2"],
        "probs": list(probs),
        "doubling": [{k: (list(v) if isinstance(v, tuple) else v)
                      for k, v in r.items()} for r in rows],
        "doubling_midpoints": mids,
        "doubling_monotone": all(b > a for a, b in zip(mids, mids[1:])),
        "final_ratio_lower": rows[-1]["ratio_lower"],
        "exceeds_100": rows[-1]["ratio_lower"] > 100.0,
        "hyperplane": {
            "series": hyper,
            "min_ratio_lower": min(h["ratio_lower"] for h in hyper),
            "threshold": 0.4,
        },
        "records": [],
    }


# name -> (runner, default seed)
_EXAMPLE_RUNNERS = {
    "7.1": (_example_constant_radius, 7101),
    "7.2": (_example_interval_quartet, 7201),
    "ABB": (_example_staircase, 311),
    "B.2": (_example_gasket_probe, 82),
}
