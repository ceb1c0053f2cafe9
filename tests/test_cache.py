"""The on-disk dataset cache: ``panel.load_cached`` against ``load_csv``, its
oracle, and the CLI's outputs with a cold and a warm cache."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from clusterpanel import panel
from clusterpanel.cli import main
from clusterpanel.panel import CsvSchema, PanelDataset, load_cached, load_csv, save_csv

from conftest import assert_same_dataset
from test_cli import _compare_dirs
from test_panel import SAMPLE_DIR, SAMPLE_SCHEMA

ROOT = Path(__file__).resolve().parent.parent
# the commands that load a CSV; simulate reads none
LOADING = ("fit", "corr", "cv", "ic", "bootstrap", "project")


@pytest.fixture
def parses(monkeypatch):
    """The paths ``load_cached`` hands to ``load_csv``: its misses."""
    seen = []

    def counting(path, schema):
        seen.append(Path(path).name)
        return load_csv(path, schema)

    monkeypatch.setattr(panel, "load_csv", counting)
    return seen


@pytest.fixture
def cache():
    """The test's cache directory, under the empty XDG_CACHE_HOME that the
    autouse fixture gave it."""
    return Path(os.environ["XDG_CACHE_HOME"]) / "clusterpanel"


def _entries(cache: Path) -> list[Path]:
    return sorted(cache.glob("*.npz"))


def _gappy_tagged(tmp_path) -> tuple[Path, CsvSchema]:
    """A saved panel with late entry, gaps, NaN outcomes, tags, a custom
    column and a region without a centroid."""
    ds = PanelDataset(
        ["R2", "R1", "R1", "R3", "R3", "R3", "R2"], ["B", "A", "A", "B", "B", "B", "B"],
        [2003, 2000, 2002, 2001, 2004, 2005, 2004],
        [0.5, np.nan, 1 / 3, -2.5e-300, np.nan, 7.0, 1.5e300],
        {"x": [1.0, 2.0, np.nan, 4.0, 5.0, -0.0, 6.0], "z": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]},
        lat=[48.9, 52.0, 52.0, np.nan, np.nan, np.nan, 48.9],
        lon=[2.4, 13.4, 13.4, np.nan, np.nan, np.nan, 2.4],
        tags=[{"EU"}, {"EU", "G 7"}, {"EU", "G 7"}, set(), set(), set(), {"EU"}],
        custom={"note": ['a, "q" b', "c", "", "d;e", "f", "g", "h"], "zone": list("uvwxyzu")},
    )
    path = tmp_path / "gappy.csv"
    return path, save_csv(ds, path)


def _assert_read_only(ds: PanelDataset):
    grids = [ds.present, ds.outcome, ds.centroids, *ds.predictors.values(), *ds.custom.values()]
    assert not any(g.flags.writeable for g in grids)
    assert all(isinstance(t, tuple) for t in (ds.regions, ds.countries, ds.groups,
                                               ds.predictor_names, ds.custom_names))
    assert all(g.dtype == object for g in ds.custom.values())


@pytest.mark.parametrize("case", ["sample", "sample_scenario", "gappy_tagged"])
def test_hit_equals_miss_equals_load_csv(case, tmp_path, parses, cache):
    if case == "gappy_tagged":
        path, schema = _gappy_tagged(tmp_path)
    else:
        path = SAMPLE_DIR / ("panel.csv" if case == "sample" else "scenario_low.csv")
        schema = SAMPLE_SCHEMA if case == "sample" else replace(SAMPLE_SCHEMA, outcome=None)
    oracle = load_csv(path, schema)
    miss = load_cached(path, schema)
    hit = load_cached(path, schema)
    assert parses == [path.name] and len(_entries(cache)) == 1
    for ds in (miss, hit):
        assert_same_dataset(ds, oracle)
        _assert_read_only(ds)
        assert ds.years == oracle.years
        assert [ds.country_of(r) for r in ds.regions] == list(oracle.countries)
    assert np.isnan(hit.centroids).any() == (case == "gappy_tagged")
    assert any(hit.groups) and hit.custom_names == oracle.custom_names


def test_default_directory_follows_xdg_cache_home(tmp_path, monkeypatch, parses):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    load_cached(SAMPLE_DIR / "panel.csv", SAMPLE_SCHEMA)
    assert len(_entries(tmp_path / "xdg" / "clusterpanel")) == 1
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    load_cached(SAMPLE_DIR / "panel.csv", SAMPLE_SCHEMA)
    assert len(_entries(tmp_path / "home" / ".cache" / "clusterpanel")) == 1
    assert len(parses) == 2


def test_edited_bytes_and_another_schema_miss(tmp_path, parses, cache):
    path = tmp_path / "scenario.csv"
    text = (SAMPLE_DIR / "scenario_low.csv").read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8")
    scenario = replace(SAMPLE_SCHEMA, outcome=None)
    first = load_cached(path, scenario)
    load_cached(path, scenario)
    assert len(parses) == 1
    # the scenario schema reads the same bytes into its own entry
    sample = SAMPLE_DIR / "panel.csv"
    load_cached(sample, SAMPLE_SCHEMA)
    load_cached(sample, scenario)
    assert len(parses) == 3 and len(_entries(cache)) == 3
    path.write_text(text.replace("\n", "\n\n", 1), encoding="utf-8")  # a blank line
    assert_same_dataset(load_cached(path, scenario), first)
    assert len(parses) == 4 and len(_entries(cache)) == 4


def test_edited_module_source_misses(tmp_path, monkeypatch, parses, cache):
    # the key covers panel.py's bytes, so a change to the parser or the
    # validating constructor reads no entry an older version wrote
    source = tmp_path / "panel.py"
    source.write_bytes(Path(panel.__file__).read_bytes())
    monkeypatch.setattr(panel, "__file__", str(source))
    for _ in range(2):
        load_cached(SAMPLE_DIR / "panel.csv", SAMPLE_SCHEMA)
    source.write_bytes(source.read_bytes() + b"# edited\n")
    load_cached(SAMPLE_DIR / "panel.csv", SAMPLE_SCHEMA)
    assert len(parses) == 2 and len(_entries(cache)) == 2


@pytest.mark.parametrize("damage", ["truncated", "garbage", "foreign"])
def test_unreadable_entry_is_parsed_and_rewritten(damage, tmp_path, parses, cache):
    path = SAMPLE_DIR / "panel.csv"
    expected = load_cached(path, SAMPLE_SCHEMA)
    (entry,) = _entries(cache)
    good = entry.read_bytes()
    if damage == "truncated":
        entry.write_bytes(good[: len(good) // 2])
    elif damage == "garbage":
        entry.write_bytes(b"not an npz file")
    else:
        with open(entry, "wb") as fh:
            np.savez(fh, regions=np.array(["R1"]))
    assert_same_dataset(load_cached(path, SAMPLE_SCHEMA), expected)
    assert entry.read_bytes() == good
    assert_same_dataset(load_cached(path, SAMPLE_SCHEMA), expected)
    assert len(parses) == 2


def test_invalid_csv_raises_every_time_and_writes_nothing(tmp_path, parses, cache):
    path = tmp_path / "bad.csv"
    path.write_text("region,country,year,outcome,x\nR1,A,2000,0.1,1\nR1,B,2001,0.2,2\n",
                    encoding="utf-8")
    schema = CsvSchema(region="region", country="country", year="year", outcome="outcome",
                       predictors={"x": "x"})
    for _ in range(2):
        with pytest.raises(ValueError, match="maps to multiple countries"):
            load_cached(path, schema)
    with pytest.raises(FileNotFoundError):
        load_cached(tmp_path / "absent.csv", schema)
    assert len(parses) == 3 and not _entries(cache)


def test_string_numpy_would_change_writes_no_entry(tmp_path, parses, cache):
    # a trailing NUL is a character the constructor accepts and a numpy str
    # array drops
    path = tmp_path / "nul.csv"
    path.write_text("region,country,year,outcome,x,note\nR1,A,2000,0.1,1,a\x00\n",
                    encoding="utf-8")
    schema = CsvSchema(region="region", country="country", year="year", outcome="outcome",
                       predictors={"x": "x"}, custom={"note": "note"})
    for _ in range(2):
        assert load_cached(path, schema).custom["note"].tolist() == [["a\x00"]]
    assert len(parses) == 2 and not _entries(cache)


def test_year_a_float_would_change_writes_no_entry(tmp_path, parses, cache):
    # the first year is kept in the entry's float stack
    path = tmp_path / "far.csv"
    path.write_text(f"region,country,year,outcome,x\nR1,A,{2**53 + 1},0.1,1\n", encoding="utf-8")
    schema = CsvSchema(region="region", country="country", year="year", outcome="outcome",
                       predictors={"x": "x"})
    for _ in range(2):
        assert load_cached(path, schema).first_year == 2**53 + 1
    assert len(parses) == 2 and not _entries(cache)


def test_entry_holds_three_members(tmp_path, cache):
    # a hit reads one header per member: the presence mask, a float and a str stack
    path, schema = _gappy_tagged(tmp_path)
    load_cached(path, schema)
    (entry,) = _entries(cache)
    with np.load(entry, allow_pickle=False) as arrays:
        assert sorted(arrays.files) == ["floats", "present", "strings"]
        assert arrays["floats"].dtype == float and arrays["present"].dtype == bool


def test_entry_bound_drops_the_oldest(tmp_path, monkeypatch, cache):
    monkeypatch.setattr(panel, "CACHE_ENTRIES", 3)
    text = (SAMPLE_DIR / "panel.csv").read_text(encoding="utf-8")
    written = []
    for i in range(5):
        path = tmp_path / f"panel{i}.csv"
        path.write_text(text + "\n" * i, encoding="utf-8")  # blank lines: same data, new bytes
        load_cached(path, SAMPLE_SCHEMA)
        (new,) = set(_entries(cache)) - set(written)
        os.utime(new, ns=(i, i))  # oldest first, whatever the clock's resolution
        written.append(new)
    assert _entries(cache) == sorted(written[-3:])


def test_unwritable_cache_leaves_outputs_unchanged(tmp_path, monkeypatch, capsys):
    # XDG_CACHE_HOME names a file, so the cache directory cannot be made
    home = tmp_path / "not_a_directory"
    home.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    monkeypatch.chdir(ROOT)
    for command in ("fit", "project"):
        out = tmp_path / command
        assert main([command, "--config", "sample/config.yaml", "--out", str(out)]) == 0
        _compare_dirs(out, ROOT / "sample" / "golden" / command)
    assert capsys.readouterr().err == ""


def test_second_round_of_processes_hits_with_identical_outputs(tmp_path, cache):
    # the command processes inherit the test's XDG_CACHE_HOME
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    stamps = []
    for round_ in ("cold", "warm"):
        for command in LOADING:
            proc = subprocess.run(
                [sys.executable, "-m", "clusterpanel.cli", command, "--config",
                 "sample/config.yaml", "--out", str(tmp_path / round_ / command)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        # a miss would rewrite its entry through a new file
        stamps.append({p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in _entries(cache)})
    assert len(stamps[0]) == 3  # the panel and the two scenario files
    assert stamps[1] == stamps[0]
    for command in LOADING:
        _compare_dirs(tmp_path / "warm" / command, tmp_path / "cold" / command)
        _compare_dirs(tmp_path / "warm" / command, ROOT / "sample" / "golden" / command)
