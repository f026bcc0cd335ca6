"""The pair runner's summary (tools/bench_pairs.py) on canned run outputs; no git
and no benchmark run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(items_per_s, rss, failed=0):
    """The last line of `perfbench/run.py --trace 0` for one workload, as parsed JSON."""
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }


BOUNDS = {"items_per_s": ("higher", 0.25), "peak_rss_mb": ("lower", 0.05)}


def test_summary_of_five_pairs(pairs):
    base = [_run(v, 20.0) for v in (100, 110, 90, 105, 95)]
    change = [_run(v, r) for v, r in [(130, 20.5), (100, 20.5), (125, 21.5), (140, 19.0), (120, 20.0)]]
    out = pairs.summarize({"base": {"pipeline": base}, "change": {"pipeline": change}}, BOUNDS)
    row = out["pipeline"]
    assert row["attempted"] == {"base": 500, "change": 500}
    assert row["failed"] == {"base": 0, "change": 0}
    items = row["metrics"]["items_per_s"]
    assert items["base"] == {"median": 100, "q1": 95, "q3": 105, "runs": [100, 110, 90, 105, 95]}
    assert items["change"]["median"] == 125
    assert items["change_better_pairs"] == "4/5"  # pair 1 reads 100 against 110
    assert items["median_change"] == pytest.approx(0.25)
    assert items["within_bound"] and items["gain_beyond_base_iqr"]  # 25 > 105 - 95
    assert (items["unit"], items["better"], items["bound"]) == ("1/s", "higher", 0.25)
    rss = row["metrics"]["peak_rss_mb"]
    assert rss["change_better_pairs"] == "1/5"  # a tie (pair 4) counts for neither side
    assert rss["median_change"] == pytest.approx(0.025)
    assert rss["within_bound"] and not rss["gain_beyond_base_iqr"]


def test_worse_than_the_bound(pairs):
    base = [_run(100, 20.0), _run(100, 20.0)]
    change = [_run(70, 21.5), _run(80, 21.5)]
    metrics = pairs.summarize({"base": {"corpus": base}, "change": {"corpus": change}}, BOUNDS)["corpus"]["metrics"]
    assert metrics["items_per_s"]["median_change"] == pytest.approx(-0.25)
    assert metrics["items_per_s"]["within_bound"]  # exactly at the bound
    assert not metrics["peak_rss_mb"]["within_bound"]  # +7.5 % against 5 %
    assert metrics["items_per_s"]["change_better_pairs"] == "0/2"


def test_one_pair_has_its_run_as_quartiles(pairs):
    assert pairs.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "runs": [3.0]}


def test_failed_items_are_summed(pairs):
    out = pairs.summarize({"base": {"search": [_run(1, 1)]}, "change": {"search": [_run(1, 1, failed=2)]}}, BOUNDS)
    assert out["search"]["failed"] == {"base": 0, "change": 2}


def test_bounds_come_from_the_benchmark_spec(pairs):
    bounds = pairs.read_bounds(ROOT / "BENCHMARK.json")
    assert bounds["items_per_s"] == ("higher", 0.25)
    assert bounds["peak_rss_mb"] == ("lower", 0.05)
    assert set(bounds) == {"setup_s", "items_per_s", "item_s.p50", "peak_rss_mb"}


def test_seed_ranges(pairs):
    assert pairs.parse_seeds("3101-3104") == [3101, 3102, 3103, 3104]
    assert pairs.parse_seeds("7") == [7]
