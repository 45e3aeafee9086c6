"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hopfcyclic as hc  # noqa: E402
from hopfcyclic import cocyclic, linalg  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402


def _z2_plain_jobs(expected_hh0):
    algebra = hc.group_algebra(hc.cyclic_group_table(2)).algebra
    return workloads.Workload("test", "test", workloads._cohomology_jobs(
        "plain Z/2", lambda ctx: hc.plain_algebra_cocyclic(algebra, degree_cap=2),
        2, [expected_hh0, 0], [2, 0], "the test"))


def test_wrong_expected_dimension_counts_as_failure():
    record, _, _ = run_pass(_z2_plain_jobs(expected_hh0=3), None)
    assert [(f["job"], f["layer"]) for f in record["failures"]] == \
        [("HH^0 plain Z/2", "cocyclic")]
    record, _, _ = run_pass(_z2_plain_jobs(expected_hh0=2), None)
    assert record["failures"] == []


def test_closed_form_agrees_with_engine_on_z2_cap_2():
    table = hc.cyclic_group_table(2)
    module = hc.plain_algebra_cocyclic(hc.group_algebra(table).algebra, degree_cap=2)
    engine = ([hc.hochschild_cohomology(module, n).dim for n in range(2)],
              [hc.cyclic_cohomology(module, n).dim for n in range(2)])
    assert workloads.group_dims(table, 2) == engine == ([2, 0], [2, 0])


def test_conjugacy_classes_survive_relabelling():
    import random
    table, _ = workloads.relabel(hc.symmetric_group_table(3), random.Random(5))
    assert workloads.conjugacy_classes(table) == 3
    assert workloads.conjugacy_classes(workloads.klein_four_table()) == 4


def test_every_entry_point_resolves_and_is_restored():
    original = linalg.rref
    t = tracer.Tracer()
    t.install()
    try:
        assert linalg.rref is not original
        assert cocyclic.rref is linalg.rref  # imported names are replaced too
        assert hc.verify_cocyclic is cocyclic.verify_cocyclic
    finally:
        t.uninstall()
    assert linalg.rref is original and cocyclic.rref is original


def test_missing_entry_point_fails_loudly(monkeypatch):
    points = dict(tracer.ENTRY_POINTS)
    points["linalg.elim"] = points["linalg.elim"] + ("linalg:no_such_kernel",)
    monkeypatch.setattr(tracer, "ENTRY_POINTS", points)
    original = linalg.rref
    with pytest.raises(tracer.MissingEntryPoint, match="no_such_kernel"):
        tracer.Tracer().install()
    assert linalg.rref is original


def test_traced_pass_matches_untraced_and_accounts_self_time():
    workload = _z2_plain_jobs(expected_hh0=2)
    _, plain, _ = run_pass(workload, None)
    t = tracer.Tracer()
    t.install()
    try:
        record, traced, _ = run_pass(workload, t)
    finally:
        t.uninstall()
    assert traced == plain and record["failures"] == []
    own, top = tracer.self_times(t.spans)
    assert t.calls["cocyclic.hh"] == 2 and t.calls["linalg.elim"] > 0
    assert 0 < sum(own.values()) <= top * (1 + 1e-9)
    assert top <= sum(record["times"].values())


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    passes = [{"traced": traced, "times": {"job": 1.0}, "calibration": [1.0, 1.0],
               "failures": []} for traced in (False, True)]
    result = {"passes": passes, "mismatches": [], "peak_rss_mb": 1.0,
              "operations": {"job": "job"}, "calibration_kind": "fraction",
              "layers": [{"self_s": {}, "calls": {}, "counts": {}, "top_s": 1.0,
                          "wall_s": 1.0}]}
    assert sorted(m["name"] for m in spec["per_layer"]) == list(run.per_layer(result))
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(result, [{"reference_s": 1.0}]))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
