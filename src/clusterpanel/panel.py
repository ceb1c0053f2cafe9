"""Region-country-year panel data model, design matrices, and cluster assignment.

Datasets are stored as columns: one region x calendar-year grid per
variable, plus per-region country membership, optional centroids and
free-form group tags.  Design matrices are built from term specifications
(first differences, distributed lags, moderator interactions) as shifts along
the year axis.  Fixed effects are never a matrix: each row carries its region
and year codes, and the fit absorbs both effects (``regression.Absorbed``).
A design row is a cell of its dataset's grids, so residuals trace back to
observations and every per-row key (region, year, country, custom string) is
an array lookup.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0
DEFAULT_MAX_LAG_CEILING = 10

_MISSING_TOKENS = ("", "NA")
_BLOCK_ROWS = 256  # CSV rows parsed at a time
CACHE_ENTRIES = 32  # entries ``load_cached`` keeps in its directory; the oldest go first


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _shift(grid: np.ndarray, lag: int) -> np.ndarray:
    """``grid`` moved ``lag`` years later along the year axis, NaN-filled."""
    out = np.full(grid.shape, math.nan)
    if lag < grid.shape[1]:
        out[:, lag:] = grid[:, : grid.shape[1] - lag]
    return out


def _check_unpadded(what: str, values) -> None:
    """Reject a string with leading or trailing whitespace, which ``load_csv``
    would strip; each distinct value is checked once."""
    bad = sorted(v for v in map(str, set(values)) if v != v.strip())
    if bad:
        raise ValueError(f"{what} {bad[0]!r} has leading or trailing whitespace")


class PanelDataset:
    """Validated region x year panel stored as columns.

    Sorted regions index the rows of every grid and the calendar years
    ``first_year`` .. ``first_year + T - 1`` its columns, so a lag is a shift
    along the year axis and a missing year is a NaN cell.  ``present`` marks
    the observed cells; ``outcome`` and each ``predictors[name]`` are (R, T)
    float grids with NaN for absent or missing cells; ``custom[name]`` holds
    a free string column per cell ("" where absent).  ``countries``,
    ``centroids`` ((R, 2) lat/lon, NaN for none) and ``groups`` (tag sets)
    are per region.

    The constructor takes long-format columns, one entry per observation:
    region, country and year, the outcome, predictor values by name, and
    optionally lat/lon (NaN for no centroid), tag sets and custom strings.
    It enforces at least one observation, equal column lengths, unique
    (region, year) keys, a single country per region, centroids with both
    coordinates or neither and in range, consistent centroids and group
    tags per region, no region, country, tag or custom string with leading
    or trailing whitespace (which ``load_csv`` strips), and no empty tag or
    tag holding ';' (the CSV tag separator).  It is the only place a panel
    is validated.  Grids it already accepted (cache entries) or that hold by
    construction (the generator's) enter unchecked through ``_from_grids``.
    """

    __slots__ = (
        "regions",
        "countries",
        "first_year",
        "present",
        "outcome",
        "predictors",
        "predictor_names",
        "custom",
        "custom_names",
        "centroids",
        "groups",
        "_index",
    )

    def __init__(
        self,
        region: Sequence[str],
        country: Sequence[str],
        year: Sequence[int],
        outcome: Sequence[float],
        predictors: Mapping[str, Sequence[float]],
        *,
        lat: Sequence[float] | None = None,
        lon: Sequence[float] | None = None,
        tags: Sequence[Iterable[str]] | None = None,
        custom: Mapping[str, Sequence[str]] | None = None,
    ):
        n = len(region)
        if n == 0:
            raise ValueError("dataset needs at least one observation")
        if (lat is None) != (lon is None):
            raise ValueError("lat and lon must be given together")
        custom = {name: custom[name] for name in sorted(custom or {})}
        columns = [("country", country), ("year", year), ("outcome", outcome), ("lat", lat),
                   ("lon", lon), ("tags", tags), *predictors.items(), *custom.items()]
        for name, values in columns:
            if values is not None and len(values) != n:
                raise ValueError(f"column {name!r} has {len(values)} values, expected {n}")

        names, rcode = np.unique(np.asarray(region, dtype=str), return_inverse=True)
        year = np.asarray(year, dtype=np.int64)
        first = int(year.min())
        R, T = len(names), int(year.max()) - first + 1
        key = rcode * T + (year - first)
        order = np.argsort(key, kind="stable")
        dup = np.flatnonzero(key[order][1:] == key[order][:-1])
        if dup.size:
            r, t = divmod(int(key[order][dup[0]]), T)
            raise ValueError(f"duplicate (region, year) observation: {(str(names[r]), first + t)}")

        # per-region values come from the region's first row in (region, year)
        # order; ``head`` maps each sorted row to that row
        rs = rcode[order]
        starts = np.flatnonzero(np.r_[True, rs[1:] != rs[:-1]])
        head = starts[rs]
        cs = np.asarray(country, dtype=str)[order]
        ll = np.full((n, 2), math.nan) if lat is None else np.column_stack([lat, lon]).astype(float)
        ll = ll[order]
        half = np.isnan(ll[:, 0]) != np.isnan(ll[:, 1])
        if half.any():
            region_id = str(names[rs[np.argmax(half)]])
            raise ValueError(f"region {region_id!r} has a half-missing centroid")
        _check_coordinates(*ll[~np.isnan(ll[:, 0])].T)
        groups = np.fromiter(
            (frozenset(t) for t in tags) if tags is not None else (frozenset(),) * n,
            dtype=object, count=n,
        )[order]
        differs = (
            ("country", cs != cs[head]),
            ("centroids", ((ll != ll[head]) & ~(np.isnan(ll) & np.isnan(ll[head]))).any(axis=1)),
            ("group tags", groups != groups[head]),
        )
        for what, bad in differs:
            if bad.any():
                i = int(np.argmax(bad))
                region_id = str(names[rs[i]])
                if what == "country":
                    raise ValueError(
                        f"region {region_id!r} maps to multiple countries: "
                        f"{str(cs[head[i]])!r} and {str(cs[i])!r}"
                    )
                raise ValueError(f"region {region_id!r} carries inconsistent {what}")
        _check_unpadded("region", names)
        _check_unpadded("country", cs[starts])
        all_tags = frozenset().union(*groups[starts])
        _check_unpadded("tag", all_tags)
        split = sorted(t for t in all_tags if not t or ";" in t)
        if split:
            raise ValueError(f"tag {split[0]!r} is empty or holds ';', the CSV tag separator")
        for name, values in custom.items():
            _check_unpadded(f"custom {name!r} value", values)

        cells = (rcode, year - first)

        def grid(values, fill, dtype):
            g = np.full((R, T), fill, dtype=dtype)
            g[cells] = np.asarray(values, dtype=dtype)
            return g

        self._set_grids(names.tolist(), cs[starts].tolist(), first,
                        grid(np.ones(n, dtype=bool), False, bool), grid(outcome, math.nan, float),
                        {name: grid(v, math.nan, float) for name, v in predictors.items()},
                        {name: grid(v, "", object) for name, v in custom.items()},
                        ll[starts], groups[starts])

    @classmethod
    def _from_grids(cls, *grids) -> "PanelDataset":
        """The panel of grids the program already trusts, as ``_set_grids`` takes them."""
        return object.__new__(cls)._set_grids(*grids)

    def _set_grids(self, regions, countries, first_year, present, outcome, predictors, custom,
                   centroids, groups) -> "PanelDataset":
        """Set every slot, unchecked; the (R, T) and (R, 2) grids become read-only in place."""
        for a in (present, outcome, centroids, *predictors.values(), *custom.values()):
            a.setflags(write=False)
        self.regions, self.countries = tuple(regions), tuple(countries)
        self.first_year, self.groups = int(first_year), tuple(groups)
        self.present, self.outcome, self.centroids = present, outcome, centroids
        self.predictors, self.predictor_names = dict(predictors), tuple(predictors)
        self.custom, self.custom_names = dict(custom), tuple(custom)
        self._index = {r: i for i, r in enumerate(self.regions)}
        return self

    @property
    def years(self) -> tuple[int, ...]:
        """Calendar years with at least one observation."""
        return tuple((self.first_year + np.flatnonzero(self.present.any(axis=0))).tolist())

    def country_of(self, region_id: str) -> str:
        return self.countries[self._index[region_id]]

    def centroid_of(self, region_id: str) -> tuple[float, float] | None:
        lat, lon = self.centroids[self._index[region_id]].tolist()
        return None if math.isnan(lat) else (lat, lon)

    def predictor_median(self, name: str) -> float:
        """Median of a predictor over all non-missing cells."""
        grid = self.predictors[name]
        vals = grid[np.isfinite(grid)]
        if not vals.size:
            raise ValueError(f"predictor {name!r} has no finite values")
        return float(np.median(vals))


@dataclass(frozen=True)
class TermSpec:
    """One regression term: a variable, optionally first-differenced, with a
    distributed lag 0..max_lag and an optional moderator interaction."""

    variable: str
    differenced: bool = True
    moderator: str | None = None
    max_lag: int = 0


@dataclass(frozen=True)
class ModelSpec:
    """Terms plus fixed effects and intercept.  An empty term list is the
    trivial model (intercept/fixed effects only).  ``moderator_alignment``
    reads a moderator at the row's year ("contemporaneous") or the lagged one
    ("lag_aligned"); every term's ``max_lag`` lies in 0..``max_lag_ceiling``."""

    terms: tuple[TermSpec, ...] = ()
    fixed_effects: tuple[str, ...] = ()
    intercept: bool = True
    moderator_alignment: str = "contemporaneous"
    max_lag_ceiling: int = DEFAULT_MAX_LAG_CEILING

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.moderator_alignment not in ("contemporaneous", "lag_aligned"):
            raise ValueError(f"unknown moderator_alignment {self.moderator_alignment!r}")
        for term in self.terms:
            if not 0 <= term.max_lag <= self.max_lag_ceiling:
                raise ValueError(f"max_lag {term.max_lag} outside 0..{self.max_lag_ceiling} "
                                 f"for {term.variable!r}")
        fe = tuple(self.fixed_effects)
        bad = set(fe) - {"region", "year"}
        if bad:
            raise ValueError(f"unknown fixed effects {sorted(bad)}; use 'region' and/or 'year'")
        if len(set(fe)) != len(fe):
            raise ValueError("duplicate fixed effect")
        # canonical order: region before year
        object.__setattr__(
            self, "fixed_effects", tuple(e for e in ("region", "year") if e in fe)
        )


def term_label(term: TermSpec) -> str:
    """Canonical short label: 'd.<var>' for differenced variables, else '<var>'."""
    return f"d.{term.variable}" if term.differenced else term.variable


# each scheme kind and what its argument names; None for a kind without one
_SCHEME_ARGS = {"region": None, "region_year": None, "country": None, "country_year": None,
                "year": None, "custom": "a custom column"}


@dataclass(frozen=True)
class ClusterScheme:
    """A rule partitioning design rows into clusters, written ``kind`` or
    ``kind:arg``; ``_SCHEME_ARGS`` says which kinds take an argument."""

    kind: str
    arg: str | None = None

    def __post_init__(self):
        if self.kind not in _SCHEME_ARGS:
            raise ValueError(
                f"unknown cluster scheme {self.kind!r}; use one of {tuple(_SCHEME_ARGS)}")
        needs = _SCHEME_ARGS[self.kind]
        if needs and not self.arg:
            raise ValueError(f"cluster scheme {self.kind!r} needs {needs}: '{self.kind}:<arg>'")
        if not needs and self.arg is not None:
            raise ValueError(f"cluster scheme {self.kind!r} takes no argument, got {self.label!r}")
        if needs and ("/" in self.arg or "\0" in self.arg):  # the label names output files
            raise ValueError(f"cluster scheme {self.label!r}: an argument may not hold '/' or NUL")

    @property
    def label(self) -> str:
        return self.kind if self.arg is None else f"{self.kind}:{self.arg}"

    @classmethod
    def parse(cls, text: str) -> "ClusterScheme":
        kind, colon, arg = text.partition(":")
        return cls(kind, arg if colon else None)


def check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")


def check_correction(correction: str) -> None:
    if correction not in ("CR0", "CR1"):
        raise ValueError(f"unknown correction {correction!r}; use 'CR0' or 'CR1'")


REGION = ClusterScheme("region")
REGION_YEAR = ClusterScheme("region_year")
COUNTRY = ClusterScheme("country")
COUNTRY_YEAR = ClusterScheme("country_year")
YEAR = ClusterScheme("year")


@dataclass(frozen=True)
class ColumnLabel:
    """Provenance of one column of a design's ``X``."""

    kind: str  # intercept | base | interaction
    term: str | None = None
    lag: int | None = None
    moderator: str | None = None

    @property
    def name(self) -> str:
        if self.kind == "intercept":
            return "intercept"
        if self.kind == "base":
            return f"{self.term}.l{self.lag}"
        return f"{self.term}.l{self.lag}:{self.moderator}"


@dataclass(frozen=True)
class DesignMatrix:
    """Built design with row provenance.

    Row i is the (region index, year index) cell ``(cells[0][i], cells[1][i])``
    of ``dataset``, the panel it was built from: ``grid[design.cells]`` reads
    any of its (R, T) grids at the rows.
    ``X`` holds the intercept and the term columns only, ``column_labels`` one
    label each.  Both fixed effects are absorbed, not encoded: ``fe_codes``
    gives each row's level of every effect, an index into ``fe_levels``
    (reference level first).  Each other level still counts as a column after
    those of ``X``, in ``fe_levels`` order (region before year): ``p`` counts it,
    ``column_names`` names it ``effect=level`` and ``fe_slots`` gives its position.
    Rows requiring unavailable lagged or differenced values are dropped and
    their (region, year) keys recorded in ``dropped_rows``.
    """

    X: np.ndarray
    y: np.ndarray
    cells: tuple[np.ndarray, np.ndarray]
    dataset: PanelDataset = field(repr=False)
    column_labels: tuple[ColumnLabel, ...]
    fe_levels: Mapping[str, tuple]
    dropped_rows: tuple[tuple[str, int], ...]
    fe_codes: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for a in (self.X, self.y, *self.cells):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1] + sum(map(len, self.fe_slots.values()))

    @property
    def column_names(self) -> tuple[str, ...]:
        return (*(lab.name for lab in self.column_labels),
                *(f"{effect}={level}" for effect, levels in self.fe_levels.items()
                  for level in levels[1:]))

    @property
    def fe_slots(self) -> dict[str, range]:
        """Per fixed effect, the positions in ``column_names`` of its absorbed
        dummies, in level order (codes 1, 2, ...)."""
        slots, start = {}, self.X.shape[1]
        for effect, levels in self.fe_levels.items():
            slots[effect] = range(start, start + len(levels) - 1)
            start = slots[effect].stop
        return slots


class RankDeficientError(ValueError):
    """A design is numerically rank deficient: ``columns`` names its dependent columns."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__("rank-deficient design; offending columns: " + ", ".join(self.columns))


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of design rows under a scheme: row i is in cluster ``row_cluster[i]``,
    a code in [0, n_clusters) (``assign_clusters`` numbers clusters in the sorted
    order of their keys).  ``sizes`` is worked out as the codes' bincount; none is 0."""

    scheme: ClusterScheme
    row_cluster: np.ndarray
    n_clusters: int
    sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        G, codes = self.n_clusters, self.row_cluster
        if codes.ndim != 1 or ((codes < 0) | (codes >= G)).any():
            raise ValueError(f"row_cluster must be a 1-D array of codes in [0, {G})")
        sizes = np.bincount(codes, minlength=G)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            raise ValueError(f"cluster {empty[0]} of {G} has no rows")
        codes.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_rows(self) -> int:
        return len(self.row_cluster)


# ---------------------------------------------------------------------------
# CSV input / output
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for CSV ingestion.

    ``predictors`` maps predictor names to CSV columns.  ``groups`` lists
    columns holding semicolon-separated tags.  ``custom`` maps custom key
    names to string columns.  ``outcome`` may be None for files without an
    outcome column (scenario predictor paths).
    """

    region: str
    country: str
    year: str
    outcome: str | None
    predictors: Mapping[str, str]
    lat: str | None = None
    lon: str | None = None
    groups: Sequence[str] = ()
    custom: Mapping[str, str] = field(default_factory=dict)
    delimiter: str = ","

    @classmethod
    def canonical(cls, predictor_names: Sequence[str], with_centroids: bool = False,
                  with_groups: bool = False, custom_names: Sequence[str] = ()) -> "CsvSchema":
        """Schema matching save_csv's canonical layout."""
        return cls(region="region", country="country", year="year", outcome="outcome",
                   predictors={name: name for name in predictor_names},
                   lat="lat" if with_centroids else None, lon="lon" if with_centroids else None,
                   groups=("groups",) if with_groups else (),
                   custom={name: name for name in custom_names})

    def columns(self) -> list[str]:
        """The file columns this schema reads, in save_csv's canonical order."""
        return [c for c in (self.region, self.country, self.year, self.outcome,
                            *self.predictors.values(), self.lat, self.lon, *self.groups,
                            *self.custom.values()) if c is not None]


def _floats(cells: Sequence[str], column: str, first_row: int) -> np.ndarray:
    """A numeric column's cells as floats, NaN for a missing token."""
    try:
        try:  # numpy's cast takes and rejects what float() does, and fails on a missing token
            return np.array(cells, dtype=float)
        except ValueError:
            return np.array([math.nan if c.strip() in _MISSING_TOKENS else float(c) for c in cells])
    except ValueError:
        i = _rejected(cells, lambda c: c.strip() in _MISSING_TOKENS or float(c))
        raise ValueError(f"unparseable numeric cell {cells[i]!r} in column {column!r}, "
                         f"row {first_row + i}") from None


def _years(cells: Sequence[str], first_row: int) -> np.ndarray:
    try:
        return np.array(cells, dtype=np.int64)  # numpy's cast takes and rejects what int() does
    except ValueError:
        i = _rejected(cells, int)
        raise ValueError(f"unparseable year {cells[i].strip()!r} in row {first_row + i}") from None


def _rejected(cells: Sequence[str], parse) -> int:
    """Index of the first cell that ``parse`` rejects."""
    for i, c in enumerate(cells):
        try:
            parse(c)
        except ValueError:
            return i


def _blocks(reader, width: int):
    """(CSV row number of the first row, columns) per block of up to ``_BLOCK_ROWS``
    rows, each of ``width`` cells.  Blank lines are skipped and not numbered,
    as by ``csv.DictReader``; the header is row 1."""
    rows = filter(None, reader)
    first = 2
    while block := list(itertools.islice(rows, _BLOCK_ROWS)):
        if set(map(len, block)) != {width}:
            i = next(i for i, row in enumerate(block) if len(row) != width)
            raise ValueError(f"row {first + i} has {len(block[i])} cells, expected {width}")
        yield first, list(zip(*block))
        first += len(block)


def load_csv(path, schema: CsvSchema) -> PanelDataset:
    """Load a panel from a delimited UTF-8 file with a header row.

    The file is read once with ``csv.reader``, so a quoted cell may hold the
    delimiter, and blank lines are skipped.  Rows are transposed into columns
    block by block.  Missing numeric cells (empty or 'NA') become NaN.  A
    ragged row, an unparseable number or year names its CSV row (the header
    is row 1); every other check is the ``PanelDataset`` constructor's.
    """
    # per-block arrays, each list seeded empty so a file without rows concatenates
    years = [np.empty(0, dtype=np.int64)]
    numbers = {c: [np.empty(0)] for c in (schema.outcome, *schema.predictors.values(), schema.lat,
                                          schema.lon) if c is not None}
    strings, tags = {c: [] for c in (schema.region, schema.country, *schema.custom.values())}, []
    parsed = {}  # tag set of each distinct row of group cells; tags are constant per region
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        header = next(reader, [])
        missing = [c for c in schema.columns() if c not in header]
        if missing:
            raise ValueError(f"columns missing from {path}: {missing}")
        at = {name: j for j, name in enumerate(header)}  # a repeated name reads its last column
        for first, cells in _blocks(reader, len(header)):
            years.append(_years(cells[at[schema.year]], first))
            for c in numbers:
                numbers[c].append(_floats(cells[at[c]], c, first))
            for c in strings:
                strings[c] += [s.strip() for s in cells[at[c]]]
            rows = list(zip(*(cells[at[c]] for c in schema.groups)))
            parsed.update((row, frozenset(t.strip() for t in ";".join(row).split(";")) - {""})
                          for row in set(rows).difference(parsed))
            tags += map(parsed.__getitem__, rows)
    floats = {c: np.concatenate(parts) for c, parts in numbers.items()}
    year = np.concatenate(years)
    return PanelDataset(
        strings[schema.region], strings[schema.country], year,
        floats[schema.outcome] if schema.outcome is not None else np.full(len(year), math.nan),
        {name: floats[c] for name, c in schema.predictors.items()},
        lat=floats.get(schema.lat), lon=floats.get(schema.lon),  # None when not mapped
        tags=tags if schema.groups else None,
        custom={name: strings[c] for name, c in schema.custom.items()},
    )


def _str_array(values) -> np.ndarray:
    """``values`` as a numpy str array; ValueError if a string would not round-trip."""
    out = np.array(values, dtype=str)
    if out.tolist() != np.asarray(values, dtype=object).tolist():
        raise ValueError("a string does not round-trip through numpy")  # e.g. a trailing NUL
    return out


def _entry_arrays(ds: PanelDataset) -> dict[str, np.ndarray]:
    """The presence mask, a float stack (first year, predictor and custom counts, outcome,
    predictors, centroids) and a str stack (regions, countries, tags, names, custom)."""
    custom = [v for name in ds.custom_names for v in ds.custom[name].ravel().tolist()]
    floats = [[ds.first_year, len(ds.predictor_names), len(ds.custom_names)], ds.outcome,
              *(ds.predictors[n] for n in ds.predictor_names), ds.centroids]
    floats = np.concatenate([np.ravel(a) for a in floats])
    if int(floats[0]) != ds.first_year:
        raise ValueError(f"first year {ds.first_year} does not round-trip through a float")
    return {"present": ds.present, "floats": floats,
            "strings": _str_array([*ds.regions, *ds.countries,
                                   *(";".join(sorted(tags)) for tags in ds.groups),
                                   *ds.predictor_names, *ds.custom_names, *custom])}


def _from_entry(entry) -> PanelDataset:
    """A cache entry's dataset, unchecked: entries are written only from accepted datasets."""
    present, floats, strings = entry["present"], entry["floats"], entry["strings"]
    (R, T), P, C = present.shape, int(floats[1]), int(floats[2])
    cells, custom_at = 3 + R * T * (P + 1), 3 * R + P  # where centroids, custom names start
    head = strings[:custom_at + C].tolist()
    return PanelDataset._from_grids(
        head[:R], head[R:2 * R], floats[0], present, floats[3:3 + R * T].reshape(R, T),
        dict(zip(head[3 * R:custom_at], floats[3 + R * T:cells].reshape(P, R, T), strict=True)),
        dict(zip(head[custom_at:], strings[custom_at + C:].astype(object).reshape(C, R, T),
                 strict=True)),
        floats[cells:].reshape(R, 2), (frozenset(t.split(";")) - {""} for t in head[2 * R:3 * R]))


def load_cached(path, schema: CsvSchema) -> PanelDataset:
    """``load_csv`` through an on-disk cache in ``$XDG_CACHE_HOME/clusterpanel``, or
    ``~/.cache/clusterpanel`` without that variable.  An entry is keyed by the sha256 of
    the file's bytes, ``repr(schema)`` and this module's source; an unreadable entry is
    parsed again and rewritten, and a failed write is skipped."""
    import hashlib  # here, so that a command which loads no CSV does not start OpenSSL

    try:
        parts = (Path(path).read_bytes(), repr(schema).encode(), Path(__file__).read_bytes())
        key = hashlib.sha256(b"".join(hashlib.sha256(part).digest() for part in parts))
        home = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
        entry = Path(home) / "clusterpanel" / f"{key.hexdigest()}.npz"
    except (OSError, RuntimeError):  # an unreadable file, which load_csv reports, or no home
        return load_csv(path, schema)
    with contextlib.suppress(Exception), open(entry, "rb") as fh:  # no or a bad entry: parse
        with np.load(fh, allow_pickle=False) as arrays:
            return _from_entry(arrays)
    ds = load_csv(path, schema)
    # an unwritable directory, or a string numpy would change, writes no entry
    with contextlib.suppress(OSError, ValueError):
        arrays = _entry_arrays(ds)
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, entry)
        finally:
            Path(tmp).unlink(missing_ok=True)
        for old in sorted(entry.parent.glob("*.npz"), key=os.path.getmtime)[:-CACHE_ENTRIES]:
            old.unlink(missing_ok=True)
    return ds


def _fmt(values: np.ndarray) -> list[str]:
    """Floats at full repr precision, 'NA' for a non-finite value."""
    return [repr(x) if math.isfinite(x) else "NA" for x in values.tolist()]


def save_csv(dataset: PanelDataset, path, delimiter: str = ",") -> CsvSchema:
    """Write a dataset in the canonical column layout; returns the matching schema.

    Floats are written with full repr precision so save/load round-trips
    bit-identically.
    """
    with_centroids, with_groups = not np.isnan(dataset.centroids).all(), any(dataset.groups)
    schema = replace(CsvSchema.canonical(dataset.predictor_names, with_centroids, with_groups,
                                         dataset.custom_names), delimiter=delimiter)
    ri, ti = np.nonzero(dataset.present)
    columns = [
        np.array(dataset.regions, dtype=object)[ri].tolist(),
        np.array(dataset.countries, dtype=object)[ri].tolist(),
        (ti + dataset.first_year).tolist(),
        _fmt(dataset.outcome[ri, ti]),
        *(_fmt(dataset.predictors[name][ri, ti]) for name in dataset.predictor_names),
    ]
    columns += [_fmt(dataset.centroids[ri, j]) for j in (0, 1) if with_centroids]
    if with_groups:
        columns.append(np.array([";".join(sorted(g)) for g in dataset.groups], dtype=object)[ri])
    columns += [dataset.custom[name][ri, ti] for name in dataset.custom_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(schema.columns())
        writer.writerows(zip(*columns))
    return schema


# ---------------------------------------------------------------------------
# Design matrix construction
# ---------------------------------------------------------------------------


def _cell_codes(dataset: PanelDataset, cells, key: str,
                column: str | None = None) -> tuple[tuple, np.ndarray]:
    """The sorted distinct years, custom ``column`` values, regions or
    countries of the rows at ``cells``, and each row's index among them: the
    rows' indices into the dataset's sorted labels, renumbered over the
    labels present."""
    ri, ti = cells
    if key == "year":
        labels, code = dataset.first_year + np.arange(dataset.present.shape[1]), ti
    elif key == "custom":
        if column not in dataset.custom:
            raise ValueError(f"custom cluster column {column!r} not in dataset")
        labels, code = np.unique(dataset.custom[column][cells].astype(str), return_inverse=True)
    else:  # a region-level key: labels and one code per region
        if key == "region":
            labels, of_region = np.array(dataset.regions), np.arange(len(dataset.regions))
        else:
            labels, of_region = np.unique(dataset.countries, return_inverse=True)
        code = of_region[ri]
    present = np.bincount(code, minlength=len(labels)) > 0
    return tuple(labels[present].tolist()), (np.cumsum(present) - 1)[code]


def fixed_effect_levels(dataset: PanelDataset, cells, effects: Sequence[str]):
    """Levels and row codes of the fixed ``effects`` at the design rows ``cells``.

    Every effect gets its sorted levels among the rows and per-row codes
    (indices into the levels, 0 for the reference).  No effect becomes a
    matrix or a label: both are absorbed in the fit (``regression.Absorbed``),
    and ``DesignMatrix`` names the dummies from the levels.

    Returns (levels, codes).
    """
    levels, codes = {}, {}
    for effect in effects:
        levels[effect], codes[effect] = _cell_codes(dataset, cells, effect)
    return levels, codes


# the name under which bench/tracer.py times the encoding
fixed_effect_dummies = fixed_effect_levels


def build_design(
    dataset: PanelDataset,
    spec: ModelSpec,
    *,
    keep_rows: np.ndarray | None = None,
    require_outcome: bool = True,
) -> DesignMatrix:
    """Build the design matrix for a model spec.

    Per term, columns are the base value at lags 0..max_lag and, when a
    moderator is given, the base value times the moderator.  The moderator
    enters undifferenced, at the year ``spec.moderator_alignment`` picks.
    Rows with any missing required value are dropped and recorded.
    ``keep_rows``, a boolean grid shaped like ``dataset.present``, restricts
    the result to its cells without recording the exclusions as drops.
    """
    for term in spec.terms:
        for role, name in (("predictor", term.variable), ("moderator", term.moderator)):
            if name is not None and name not in dataset.predictors:
                raise ValueError(f"unknown {role} {name!r} in term spec")
    rows = dataset.present
    if keep_rows is not None:
        if np.asarray(keep_rows).dtype != bool or np.shape(keep_rows) != rows.shape:
            raise ValueError(f"keep_rows must be a {rows.shape} boolean grid like dataset.present")
        rows = rows & keep_rows
    ok = np.isfinite(dataset.outcome) if require_outcome else np.ones_like(rows)

    labels: list[ColumnLabel] = []
    grids: list[np.ndarray] = []
    if spec.intercept:
        labels.append(ColumnLabel(kind="intercept"))
        grids.append(np.ones(rows.shape))
    for term in spec.terms:
        lbl = term_label(term)
        lags = range(term.max_lag + 1)
        v = dataset.predictors[term.variable]
        # base value: the variable, or its difference against calendar year-1
        base = v - _shift(v, 1) if term.differenced else v
        lagged = [_shift(base, lag) for lag in lags]
        for lag, b in zip(lags, lagged):
            ok = ok & np.isfinite(b)
            labels.append(ColumnLabel(kind="base", term=lbl, lag=lag, moderator=term.moderator))
        grids += lagged
        if term.moderator is not None:
            m = dataset.predictors[term.moderator]
            for lag, b in zip(lags, lagged):
                # the moderator enters undifferenced, at the row's year or the lagged one
                mod = m if spec.moderator_alignment == "contemporaneous" else _shift(m, lag)
                ok = ok & np.isfinite(mod)
                labels.append(
                    ColumnLabel(kind="interaction", term=lbl, lag=lag, moderator=term.moderator)
                )
                grids.append(b * mod)

    ri, ti = np.nonzero(rows & ok)
    di, dt = np.nonzero(rows & ~ok)
    if not ri.size:
        raise ValueError("empty design after lag trimming")
    X = np.stack(grids, axis=-1)[ri, ti] if grids else np.empty((ri.size, 0))
    fe_levels, fe_codes = fixed_effect_levels(dataset, (ri, ti), spec.fixed_effects)
    dropped = zip(np.array(dataset.regions)[di].tolist(), (dt + dataset.first_year).tolist())
    return DesignMatrix(X=X, y=dataset.outcome[ri, ti], cells=(ri, ti), dataset=dataset,
                        column_labels=tuple(labels), fe_levels=fe_levels,
                        dropped_rows=tuple(dropped), fe_codes=fe_codes)


def assign_clusters(design: DesignMatrix, scheme: ClusterScheme) -> ClusterAssignment:
    """Partition design rows into clusters under a scheme.

    Deterministic: clusters are numbered in the sorted order of their keys.
    Each key part is coded by ``_cell_codes``; a (country or region, year) key
    is coded as one integer from its parts' codes, which sorts as the pairs do.
    """
    if design.n == 0:
        raise ValueError("design is empty")
    first, _, second = scheme.kind.partition("_")
    keys, code = _cell_codes(design.dataset, design.cells, first, scheme.arg)
    if second:  # the keys become the pairs' integer codes
        years, year_code = _cell_codes(design.dataset, design.cells, "year")
        keys, code = np.unique(code * len(years) + year_code, return_inverse=True)
    return ClusterAssignment(scheme, np.array(code, dtype=np.intp), len(keys))


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def _check_coordinates(lat: np.ndarray, lon: np.ndarray) -> None:
    """Reject the first out-of-range (lat, lon) point of two like-shaped arrays
    (NaN is out of range)."""
    lat, lon = np.ravel(lat), np.ravel(lon)
    bad = ~((np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0))
    if bad.any():
        i = int(np.argmax(bad))
        if not abs(lat[i]) <= 90.0:
            raise ValueError(f"latitude {float(lat[i])} outside [-90, 90]")
        raise ValueError(f"longitude {float(lon[i])} outside [-180, 180]")


def haversine_km(a, b):
    """Great-circle distance in km between (lat, lon) points, R = 6371 km.

    ``a`` and ``b`` are (lat, lon) pairs, or arrays whose last axis is
    (lat, lon); they broadcast, and a pair of points gives a float.
    """
    (lat1, lon1), (lat2, lon2) = (np.moveaxis(np.asarray(p, dtype=float), -1, 0) for p in (a, b))
    _check_coordinates(lat1, lon1)
    _check_coordinates(lat2, lon2)
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2 - lon1)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    return float(d) if d.ndim == 0 else d
