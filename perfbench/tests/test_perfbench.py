"""Tests of the benchmark harness itself (run: python3 -m pytest perfbench/tests)."""

import json
import math
from pathlib import Path

import pytest

import instrument
import nvlab.analysis
import nvlab.paths
import workloads
from spans import Span, Tracer, self_times, traced

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_of_nested_call():
    ticks = iter([0, 10, 30, 35, 50, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = traced(tracer, "inner", lambda: None)

    def body():
        inner()
        inner()

    traced(tracer, "outer", body)()
    spans = tracer.drain()
    outer = next(s for s in spans if s.name == "outer")
    assert (outer.start, outer.end, outer.parent) == (0, 100, 0)
    assert [(s.start, s.end, s.parent) for s in spans if s.name == "inner"] == [
        (10, 30, outer.id),
        (35, 50, outer.id),
    ]
    own = self_times(spans)
    assert own[outer.id] == 100 - 20 - 15
    assert sorted(own[s.id] for s in spans if s.name == "inner") == [15, 20]


def test_self_time_counts_overlapping_children_once():
    # two pool tasks overlap in time; one also outlives its parent's interval
    spans = [
        Span(1, "parent", 0, 100, 0, 1),
        Span(2, "task", 10, 60, 1, 2),
        Span(3, "task", 40, 80, 1, 3),
        Span(4, "task", 90, 120, 1, 2),
        Span(5, "grandchild", 20, 30, 2, 2),
    ]
    own = self_times(spans)
    assert own == {1: 100 - 70 - 10, 2: 40, 3: 40, 4: 30, 5: 10}


def _rate_payload(order):
    ladder = (8, 16, 32, 64)
    rows = [{"N": N, "err": N**-order, "stderr": 0.01 * N**-order} for N in ladder]
    return {"rows": rows, "fit": {"r_squared": 1.0}}


def _limit_payload(var_scheme):
    zero = {"coord": 1, "var_scheme": 0.0, "var_limit": 0.0, "ks_pvalue": 1.0}
    coord2 = {"coord": 2, "var_scheme": var_scheme, "var_limit": 0.5, "ks_pvalue": 0.3}
    return {"rows": [zero, coord2]}


def _source_payload(var_est):
    row = {"N": 4, "t": 1.0, "theory": 0.5, "var_est": var_est, "stderr": 0.005}
    return {"rows": [row], "metadata": {"config": {"substeps": 64}}}


@pytest.mark.parametrize(
    "check, good, bad",
    [
        (workloads.check_rate(0.35, 0.65, 0.95), _rate_payload(0.5), _rate_payload(1.0)),
        (workloads.check_rate(0.85, 1.15), _rate_payload(1.0), _rate_payload(0.5)),
        (workloads.check_limit_law(1000), _limit_payload(0.5), _limit_payload(1.0)),
        (workloads.check_source_term(10000), _source_payload(0.492), _source_payload(0.45)),
        (
            workloads.check_mlmc(0.7, 1.4),
            {"rows": [], "beta_fit": 1.0},
            {"rows": [], "beta_fit": 2.0},
        ),
    ],
)
def test_check_flags_perturbed_statistic(check, good, bad):
    assert check(good) == []
    assert check(bad) != []


def test_check_flags_nonzero_heisenberg_first_coordinate():
    payload = _limit_payload(0.5)
    payload["rows"][0]["var_scheme"] = 1e-12
    assert workloads.check_limit_law(1000)(payload) != []


def _tiny_ops(threads, out):
    common = ["--seed", "7", "--threads", str(threads)]
    conv = ["convergence", "--problem", "heisenberg", "--nladder", "4,8,16"]
    conv += ["--paths", "200", "--refine", "4"] + common
    mlmc = ["mlmc", "--problem", "diag-comm", "--payoff", "norm2", "--levels", "3"]
    mlmc += ["--paths-per-level", "300"] + common
    source = ["source-term", "--N", "4", "--paths", "400", "--substeps", "8"] + common
    none = lambda payload: []
    return [
        workloads.cli_op("convergence", conv, out, "rate", none),
        workloads.cli_op("mlmc", mlmc, out, "mlmc", none),
        workloads.cli_op("source-term", source, out, "sourceterm", none),
        workloads.gap_op(8, 7, last=False),
    ]


def _digest(ops):
    problems, digests = workloads.verify(ops, workloads.run_ops(ops))
    assert problems == [""] * len(ops)
    assert all(digests)
    return workloads.workload_digest(ops, digests)


def test_csv_digest_identical_at_one_and_two_threads(tmp_path):
    one = _digest(_tiny_ops(1, tmp_path / "t1"))
    two = _digest(_tiny_ops(2, tmp_path / "t2"))
    assert one == two


def test_tracing_keeps_outputs_and_restores_bindings(tmp_path):
    ops = _tiny_ops(2, tmp_path)
    plain = _digest(ops)

    def bindings():
        return (
            nvlab.analysis.strong_error,
            nvlab.paths.StreamPool.seek,
            workloads.catalog_module.get_problem,
        )

    originals = bindings()
    tracer = Tracer()
    with instrument.instrument(tracer):
        assert nvlab.analysis.strong_error is not originals[0]
        traced_digest = _digest(ops)
    assert bindings() == originals
    assert traced_digest == plain

    spans = tracer.drain()
    names = {s.name for s in spans}
    expected = {"cli.main", "paths.bundle", "paths.seek", "schemes.nv", "catalog.exact"}
    expected |= {"flows.flow", "analysis.strong_error.task", "mlmc.level0", "models.field"}
    assert expected <= names
    # pool tasks hang under the run_batches span that submitted them
    by_id = {s.id: s for s in spans}
    tasks = [s for s in spans if s.name.endswith(".task")]
    assert tasks and all(by_id[s.parent].name == "util.run_batches" for s in tasks)


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = [Span(1, "cli.main", 0, 100, 0, 1), Span(2, "paths.bundle", 10, 60, 1, 1, 500)]
    metrics = instrument.layer_metrics(spans, 120)
    assert set(metrics) | {"trace.overhead_frac"} == {m["name"] for m in spec["per_layer"]}
    assert metrics["paths.ns_per_normal"] == 50 / 500
    assert math.isclose(metrics["share.paths"] + metrics["share.cli"], 1.0)
    assert math.isclose(metrics["trace.unattributed_frac"], 20 / 120)
    assert {m["name"] for m in spec["workloads"]} == set(workloads.WORKLOADS)
