"""Cluster block bootstrap of regression coefficients and scenario projections.

Each replicate draws G cluster keys with replacement and refits the
original design by least squares with each row weighted by its cluster's
multiplicity in the draw: the same fit as stacking the drawn clusters' rows
(duplicates kept) and rebuilding the fixed-effect dummies on them
(Cameron, Gelbach & Miller 2008), without copying rows or forming dummies.
Replicate b draws its clusters as ``default_rng((seed, b))`` would, so draws
are identical under any execution order; ``_replicate_streams`` seeds these
streams, and the Monte Carlo study's, in array passes.  Replicates are solved from
``ClusterMoments``, a block of them as one stack of views, their draws scattered.
A scenario is the (years × p) map ``M`` of its yearly mean design rows
(``ScenarioPath``), so a projection is ``M @ draw`` per draw.  Read-outs
take every column at once, with the bits of a column read alone; intervals
come from ``read_intervals``, which alone applies the ``min_draws`` rule.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .panel import (ClusterScheme, DesignMatrix, ModelSpec, PanelDataset, assign_clusters,
                    build_design, check_level)
from .regression import ClusterMoments, FitResult, ols_fit


# SeedSequence's hash constants, (init, mult) of each chain and the mix
# (numpy/random/bit_generator.pyx; NEP 19 keeps SeedSequence and PCG64 fixed)
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT, _MASK32, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**32 - 1, 2**128 - 1
_SEED_ROWS = 4096  # streams seeded per array pass: bounds its arrays and Python ints


def _hash_chain(init: int, mult: int, calls: int) -> np.ndarray:
    """h_0 = init, h_(k+1) = h_k mult: the uint32 column of ``calls`` hash calls."""
    return np.array([init] + [mult] * calls, dtype=np.uint32).cumprod(dtype=np.uint32)[:, None]


def _hashmix(v: np.ndarray, h: np.ndarray, into: np.ndarray | None = None) -> np.ndarray:
    """Hash calls along axis 0, call k xoring h[k] and multiplying by h[k + 1],
    then mixed ``into`` pool words when given; uint32 arrays wrap as C does."""
    v = (v ^ h[:-1]) * h[1:]
    v ^= v >> _XSHIFT
    if into is not None:
        v = _MIX_L * into - _MIX_R * v
        v ^= v >> _XSHIFT
    return v


def check_seed(seed) -> list[int]:
    """The 32-bit words of ``seed``, a non-negative integer or a tuple of them,
    each integer's low first; any other seed fails by name, before any set-up."""
    words = []
    for part in seed if isinstance(seed, tuple) else (seed,):
        if isinstance(part, bool) or not isinstance(part, (int, np.integer)) or part < 0:
            raise ValueError(f"seed must be a non-negative integer or a tuple of them: {seed!r}")
        words += [int(part) >> s & _MASK32 for s in range(0, max(int(part).bit_length(), 1), 32)]
    return words


def _replicate_streams(seed, reps: range | None = None) -> Iterator[np.random.Generator]:
    """One generator, set in turn to the state of ``default_rng(seed)`` if
    ``reps`` is None, else of ``default_rng((seed, rep))`` for each rep: the
    same object each time, so take a stream's draws before the next.  The
    SeedSequence pool mixing and ``generate_state(4, np.uint64)`` of many
    entropy rows (``check_seed``'s words) run as uint32 array operations;
    PCG64 seeds as ``pcg_setseq_128_srandom_r`` does, in Python ints.  A bad
    seed (``check_seed``) or a rep past 2**32 - 1 fails by name."""
    entropy = np.array([check_seed(seed)], dtype=np.uint32)
    if reps is not None:
        if len(reps) and not 0 <= min(reps[0], reps[-1]) <= max(reps[0], reps[-1]) <= _MASK32:
            raise ValueError(f"replicates {reps} reach outside [0, 2**32)")
        entropy = np.column_stack([entropy.repeat(len(reps), axis=0),
                                   np.arange(reps.start, reps.stop, reps.step, dtype=np.uint32)])
    gen, w = np.random.Generator(np.random.PCG64(0)), entropy.shape[1]
    a = _hash_chain(*_HASH_A, 16 + 4 * max(0, w - 4))
    for first in range(0, len(entropy), _SEED_ROWS):
        rows = entropy[first:first + _SEED_ROWS]
        pool = np.zeros((4, len(rows)), dtype=np.uint32)  # pool word by row
        pool[: min(w, 4)] = rows[:, :4].T
        pool = _hashmix(pool, a[:5])
        for src in range(4):  # every pool word into each other one
            dst = [d for d in range(4) if d != src]
            pool[dst] = _hashmix(pool[src], a[4 + 3 * src:8 + 3 * src], into=pool[dst])
        for src in range(4, w):  # each entropy word past the pool into all four
            pool = _hashmix(rows[:, src], a[4 * src:4 * src + 5], into=pool)
        out = _hashmix(np.vstack([pool, pool]), _hash_chain(*_HASH_B, 8)).astype(np.uint64)
        for high, low, seq_high, seq_low in (out[0::2] | out[1::2] << np.uint64(32)).T.tolist():
            inc = (seq_high << 65 | seq_low << 1 | 1) & _MASK128
            state = ((inc + (high << 64 | low)) * _PCG_MULT + inc) & _MASK128
            gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": state, "inc": inc}}
            yield gen


@dataclass(frozen=True)
class BootstrapSample:
    """Coefficient draws aligned to the original design's columns.

    Entries are NaN for columns whose meaning changed in a replicate: dummy
    levels absent from the resample, and the intercept plus the dummies of
    any effect whose reference level was absent (forcing re-referencing).
    ``failed_refits`` counts rank-deficient resamples (excluded from draws).
    ``design`` is ``base_fit.design``: it names the columns and is a scenario path template.
    """

    draws: np.ndarray
    scheme: ClusterScheme
    B: int
    seed: int
    failed_refits: int
    base_fit: FitResult

    def __post_init__(self):
        self.draws.setflags(write=False)

    @property
    def design(self) -> DesignMatrix:
        return self.base_fit.design

    def sd(self) -> np.ndarray:
        """Column-wise standard deviation over finite draws, as ``nanstd``
        of each column alone: a contiguous reduction per row of the transpose.
        NaN, without numpy's degrees-of-freedom warning, below 2 finite draws."""
        columns = np.ascontiguousarray(self.draws.T)
        usable = (~np.isnan(columns)).sum(axis=1) > 1
        sd = np.full(len(columns), math.nan)
        with np.errstate(invalid="ignore"):
            sd[usable] = np.nanstd(columns[usable], axis=1, ddof=1)
        return sd


def block_bootstrap(
    dataset: PanelDataset,
    spec: ModelSpec,
    scheme: ClusterScheme,
    B: int,
    seed: int,
) -> BootstrapSample:
    """Pairs-cluster bootstrap: resample whole clusters of observations and
    refit the design of ``spec``, its moderator alignment and lag ceiling too.

    Aborts when more than half of the replicates fail to refit (persistent
    rank deficiency).
    """
    check_seed(seed)
    if B < 1:
        raise ValueError(f"B must be at least 1, got {B}")
    design = build_design(dataset, spec)
    base_fit = ols_fit(design)
    clusters = assign_clusters(design, scheme)
    G = clusters.n_clusters
    if G < 2:
        raise ValueError(f"block bootstrap needs at least 2 clusters; the {scheme.label} "
                         f"scheme has G={G}")
    moments, cols = ClusterMoments(design, clusters.row_cluster), range(design.X.shape[1])
    intercept = [0] if spec.intercept else []
    draws, deficient = np.full((B, design.p), math.nan), np.zeros(B, dtype=bool)
    streams = _replicate_streams(seed, range(B))
    for start in range(0, B, moments.block):
        block = slice(start, min(B, start + moments.block))
        views = moments.weighted([np.bincount(gen.integers(0, G, size=G), minlength=G)
                                  for _, gen in zip(range(B)[block], streams)])
        theta, deficient[block], effects = views.solve(cols)
        out = draws[block]  # a view of draws, filled by the scatters below
        out[:, : len(cols)] = theta
        for effect, slots in design.fe_slots.items():
            out[:, slots] = effects[effect][:, 1:]
            # a re-referenced effect changes the meaning of its dummies and the intercept's
            out[np.ix_(~views.present[effect][:, 0], [*intercept, *slots])] = math.nan
    failed = int(deficient.sum())
    if failed > B / 2:
        raise RuntimeError(
            f"block bootstrap aborted: {failed}/{B} replicates were rank deficient "
            f"under scheme {scheme.label} (G={G})"
        )
    return BootstrapSample(draws=draws[~deficient], scheme=scheme, B=B, seed=seed,
                           failed_refits=failed, base_fit=base_fit)


@functools.lru_cache(maxsize=None)
def min_draws(level: float) -> int:
    """Fewest finite draws that resolve a two-sided ``level`` interval:
    max(20, ceil(2/(1-level))), with ``level`` taken as the decimal it prints
    as, so that level 0.9 needs 20 draws, not the 21 that the binary
    rounding of 1 - 0.9 would give."""
    check_level(level)
    return max(20, math.ceil(2 / (1 - Fraction(repr(float(level))))))


def column_quantiles(values: np.ndarray, qs) -> tuple[np.ndarray, np.ndarray]:
    """Each column's quantiles ``qs`` over its finite entries, (len(qs),
    columns) and NaN for a column without any, and the finite counts.  The
    columns are sorted once, non-finite entries last, and those of one count
    share an ``np.quantile(axis=0)`` of their finite heads: the same order
    statistics and interpolation as ``np.quantile`` of one column's finite
    entries, so the same bits."""
    finite = np.isfinite(values)
    counts = finite.sum(axis=0)
    ordered = np.sort(np.where(finite, values, math.nan), axis=0)
    out = np.full((len(qs), values.shape[1]), math.nan)
    for count in np.unique(counts[counts > 0]):
        cols = counts == count
        out[:, cols] = np.quantile(ordered[:count, cols], qs, axis=0)
    return out, counts


def read_intervals(values: np.ndarray, levels, need) -> tuple[np.ndarray, np.ndarray]:
    """Each column's lower, median and upper quantile at every two-sided level
    over its finite entries, (levels, 3, columns), and the finite counts.  With
    fewer than ``min_draws(level)`` draws an interval is NaN, or raises for a
    column that ``need`` (a bool or a mask) marks: the first, in column order."""
    qs = [q for level in levels for q in (0.5 - level / 2.0, 0.5, 0.5 + level / 2.0)]
    quantiles, used = column_quantiles(values, qs)
    short = used < np.array([min_draws(level) for level in levels], dtype=int)[:, None]
    for j, i in np.argwhere((short & need).T)[:1]:  # the first, in column order
        raise ValueError(f"B={used[j]} usable draws too small for level {levels[i]}; "
                         f"need at least {min_draws(levels[i])}")
    bounds = quantiles.reshape(len(levels), 3, values.shape[1])
    return np.where(short[:, None], math.nan, bounds), used


@dataclass(frozen=True)
class ScenarioPath:
    """One scenario as the linear read-out it is: year ``years[t]`` of a
    coefficient draw is ``M[t] @ draw``, with ``M[t]`` the year's weighted
    mean design row, dummies included, over ``column_names``.  ``read`` holds
    the columns some row reads, whatever its weight: the intercept and term
    columns, and the dummy of each level a row has.  The reference level and
    levels unseen when the model was fitted read no column; ``unseen_levels``
    counts the rows' unseen levels."""

    label: str
    years: tuple[int, ...]
    M: np.ndarray  # (years, p)
    read: np.ndarray
    column_names: tuple[str, ...]
    unseen_levels: int

    def __post_init__(self):
        self.M.setflags(write=False)
        self.read.setflags(write=False)


def _level_codes(values: np.ndarray, levels: tuple) -> np.ndarray:
    """Index of each value in the sorted ``levels``, -1 where it is not one."""
    lv = np.asarray(levels)
    i = np.minimum(np.searchsorted(lv, values), len(lv) - 1)
    return np.where(lv[i] == values, i, -1)


def build_scenario_path(
    future: PanelDataset,
    spec: ModelSpec,
    template: DesignMatrix,
    label: str,
    *,
    start_year: int | None = None,
    aggregation: str = "mean",
    weights: Mapping[str, float] | None = None,
) -> ScenarioPath:
    """The read-out map of future predictor paths, encoded against a fitted design.

    Term columns are built as usual, under ``spec``'s moderator alignment (the
    file must include enough history for differences and lags); fixed effects
    use the template's levels, so levels unseen when the model was fitted
    contribute through the reference level and are counted.  Each year
    averages its rows, under ``weighted`` by region weight: a region without
    a weight weighs 0; a weight for a region without rows, a negative or
    non-finite one, and weights under ``mean`` raise.
    """
    if aggregation not in ("mean", "weighted"):
        raise ValueError(f"unknown aggregation {aggregation!r}; use 'mean' or 'weighted'")
    if aggregation == "mean" and weights is not None:
        raise ValueError("region weights need aggregation 'weighted', not 'mean'")
    core = build_design(future, replace(spec, fixed_effects=()), require_outcome=False)
    ri, ti = core.cells
    regions, years = np.array(future.regions)[ri], ti + future.first_year
    keep = np.ones(core.n, dtype=bool) if start_year is None else years >= start_year
    if not keep.any():
        raise ValueError(f"no scenario rows at or after {start_year}")
    regions, years = regions[keep], years[keep]
    row_weights = np.ones(len(years))
    if aggregation == "weighted":
        if not weights:
            raise ValueError("weighted aggregation needs region weights")
        held, which = np.unique(regions, return_inverse=True)
        unknown = sorted(set(weights).difference(held.tolist()))
        if unknown:
            raise ValueError(f"weight for region {unknown[0]!r}, which has no rows "
                             f"in scenario {label!r}")
        for r, w in weights.items():
            if not (math.isfinite(w) and w >= 0):
                raise ValueError(f"weight for region {r!r} must be finite and >= 0, got {w}")
        row_weights = np.array([weights.get(r, 0.0) for r in held.tolist()], dtype=float)[which]
    codes = {effect: _level_codes(regions if effect == "region" else years, levels)
             for effect, levels in template.fe_levels.items()}
    names = core.column_names + template.column_names[template.X.shape[1]:]
    if names != template.column_names:
        raise ValueError(
            f"scenario columns {names} do not match the fitted design {template.column_names}"
        )
    years, at = np.unique(years, return_inverse=True)
    total = np.bincount(at, row_weights)
    if (total <= 0).any():
        raise ValueError(f"no positive weights for year {years[np.argmax(total <= 0)]}")
    # each row's columns (-1: no dummy, read as column 0 with entry 0) and
    # entries; code 0 (the reference) and -1 (unseen) read no column
    k, p = core.X.shape[1], len(names)
    cols = np.column_stack([np.tile(np.arange(k), (len(at), 1)),
                            *(np.array((-1, *template.fe_slots[effect]))[np.maximum(code, 0)]
                              for effect, code in codes.items())])
    x = np.column_stack([core.X[keep], cols[:, k:] >= 0]) * row_weights[:, None]
    M = np.bincount((at[:, None] * p + np.maximum(cols, 0)).ravel(), x.ravel(), len(years) * p)
    return ScenarioPath(label, tuple(years.tolist()), M.reshape(-1, p) / total[:, None],
                        np.unique(cols[cols >= 0]), names,
                        unseen_levels=sum(int((c < 0).sum()) for c in codes.values()))


@dataclass(frozen=True)
class Projection:
    """Per-draw, per-year aggregated outcome under one scenario."""

    label: str
    years: tuple[int, ...]
    values: np.ndarray  # (draws, years)

    def __post_init__(self):
        self.values.setflags(write=False)


def project_scenarios(sample: BootstrapSample, path: ScenarioPath) -> Projection:
    """The path's read-out of every coefficient draw: year t is ``M[t] @ draw``
    over the columns the path reads.  A draw with a NaN in one of them is NaN
    in every year, and a warning counts those."""
    if path.column_names != sample.design.column_names:
        ours, theirs = set(sample.design.column_names), set(path.column_names)
        raise ValueError("scenario columns do not match the bootstrap sample; "
                         f"missing {sorted(ours - theirs)}, extra {sorted(theirs - ours)}")
    draws = sample.draws[:, path.read]
    values = draws @ path.M[:, path.read].T
    dropped = np.isnan(draws).any(axis=1)
    values[dropped] = math.nan
    if dropped.any():
        warnings.warn(f"scenario {path.label!r}: {dropped.sum()} of {len(dropped)} draws dropped; "
                      "each lacks the intercept or a fixed effect that the path reads")
    return Projection(label=path.label, years=path.years, values=values)


def first_discernible_year(
    outcomes_a: Projection, outcomes_b: Projection, alpha: float = 0.05
) -> int | None:
    """Earliest year whose paired-difference percentile interval excludes zero.

    Differences pair draws by index; the two-sided interval has coverage
    1 - alpha.  Returns None when no year is discernible.  No ``min_draws``
    rule applies: at alpha 0.05 it needs 40 finite draws, and the benchmark's
    panel_fe runs ``project`` at B=24; adding it waits for ROADMAP item 2.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if outcomes_a.years != outcomes_b.years:
        spans = [f"{p.label!r} {p.years[0]}..{p.years[-1]} ({len(p.years)} years)"
                 for p in (outcomes_a, outcomes_b)]
        raise ValueError(f"projections cover different years: {' and '.join(spans)}")
    if outcomes_a.values.shape != outcomes_b.values.shape:
        raise ValueError("projections carry different draw counts")
    (lo, hi), counts = column_quantiles(outcomes_a.values - outcomes_b.values,
                                        [alpha / 2.0, 1.0 - alpha / 2.0])
    hits = np.flatnonzero((counts > 0) & ((lo > 0.0) | (hi < 0.0)))
    return int(outcomes_a.years[hits[0]]) if len(hits) else None
