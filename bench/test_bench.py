"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

import json

import pytest

import run
import workloads
from tracing import PER_LAYER

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNTS = ("function_model.eval_points", "function_model.points_per_node",
          "classify.calls", "generators.chiral_inner_points_per_eval",
          "laurent.quad_points", "laurent.class_check_points")


def bench(capsys, workload, trace=0, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace), "--tiny"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_workload_passes_its_oracle(capsys, workload):
    result = bench(capsys, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["catalog-sweep", "composed-functions",
                                      "laurent-window"])
def test_traced_counts_repeat_exactly(capsys, workload):
    first, second = (bench(capsys, workload, trace=1) for _ in range(2))
    assert list(first["metrics"]) == [name for name, _ in PER_LAYER]
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_traced_counts_match_the_stencils(capsys):
    metrics = bench(capsys, "catalog-sweep", trace=1)["metrics"]
    # 15 samples per node under central differences, 29 under Richardson,
    # and the sweep runs each scheme on the same grids
    assert metrics["function_model.points_per_node"]["value"] == (15 + 29) / 2
    metrics = bench(capsys, "composed-functions", trace=1)["metrics"]
    # three axes times the two central offsets of the inner stencil
    assert metrics["generators.chiral_inner_points_per_eval"]["value"] == 6


def _flip_catalog(monkeypatch):
    monkeypatch.setitem(workloads.THEORY_VERDICTS, "rho",
                        dict(workloads.THEORY_VERDICTS["rho"], class_III=True))


def _flip_composed(monkeypatch):
    monkeypatch.setitem(workloads.COMPOSED_EXPECT, "chiral", {"regular": "fail"})


def _flip_verify(monkeypatch):
    monkeypatch.setattr(workloads, "VERIFY_CHECKS", workloads.VERIFY_CHECKS[::-1])


def _flip_laurent(monkeypatch):
    exact = workloads.taylor_coefficients
    monkeypatch.setattr(workloads, "taylor_coefficients",
                        lambda terms, center, orders: {
                            k: a + (1e-3 if k == 0 else 0)
                            for k, a in exact(terms, center, orders).items()})


@pytest.mark.parametrize("workload, flip", [
    ("catalog-sweep", _flip_catalog), ("composed-functions", _flip_composed),
    ("verify-props", _flip_verify), ("laurent-window", _flip_laurent)])
def test_a_flipped_expectation_fails(capsys, monkeypatch, workload, flip):
    flip(monkeypatch)
    result = bench(capsys, workload)
    assert not result["correct"] and 0 < result["failed"] <= result["attempted"]


def test_tail_has_ten_samples_beyond_it():
    times = list(range(30))
    value, percentile = run.tail(times)
    assert sum(t > value for t in times) == 10 and percentile == pytest.approx(200 / 3)
    assert run.tail(times[:20]) == (19, 100.0)


def test_taylor_coefficients_of_a_pole():
    # 1/z about c = i: a_k = (-1)**k c**(-k-1)
    got = workloads.taylor_coefficients([(-1, 1.0)], 1j, range(-2, 4))
    for k, a in got.items():
        assert a == pytest.approx((-1) ** k * 1j ** (-k - 1) if k >= 0 else 0)


def test_speed_clock_scales_by_the_reference_and_excludes_it(monkeypatch):
    import time
    import speed
    # a machine on which reference() takes half its nominal time
    monkeypatch.setattr(speed, "reference", lambda: time.sleep(speed.REF_S / 2))
    clock = speed.SpeedClock()
    raw, normalized, value = clock.time(lambda: time.sleep(0.6) or 7)
    during = len(clock.samples) - 2
    assert value == 7 and during == int(0.6 / speed.SAMPLE_EVERY_S)
    # sleep keeps its deadline, so the samples taken during it come out of it
    assert raw == pytest.approx(0.6 - during * speed.REF_S / 2, abs=0.004)
    assert normalized == pytest.approx(2 * raw, rel=0.1)
