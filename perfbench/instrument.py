"""Outside-in tracing of nvlab, and the per-layer metrics derived from it.

:func:`instrument` wraps each layer's public functions in spans by rebinding
the names that nvlab's modules import from one another, so that calls between
layers pass through the wrappers. Nothing in the package changes: leaving the
context restores every binding. Coefficient callables (the models layer) are
wrapped on a ``dataclasses.replace`` copy of each catalog problem, handed out
by a rebound ``get_problem``.

Span names are ``<layer>.<what>``; a span's self time is charged to its
layer. Pool tasks are named after the estimator that submitted them, so their
self time (per-chunk glue such as norms) stays with that estimator's layer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import sys
from collections import defaultdict

import nvlab.analysis
import nvlab.cli
import nvlab.flows
import nvlab.mlmc
import nvlab.models
import nvlab.paths
import nvlab.report
import nvlab.schemes
import nvlab.util
from nvlab.models import BracketTable
from nvlab.paths import PathBundle

from spans import Span, Tracer, self_times, traced

# the package re-exports the catalog() function under the submodule's name
catalog_module = importlib.import_module("nvlab.catalog")

LAYERS = (
    "paths", "catalog", "schemes", "flows", "models", "analysis", "mlmc", "util", "cli", "report",
)


def _path_steps(traj, *args, **kwargs):
    return traj.states.shape[0] * (traj.states.shape[1] - 1)


def _exact_name(problem, *args, **kwargs):
    # without a closed form the reference is an nv march at the bundle's fine resolution
    return "schemes.proxy" if problem.exact_solution is None else "schemes.exact"


def _exact_steps(traj, problem, bundle, *args, **kwargs):
    return traj.states.shape[0] * bundle.n_fine if problem.exact_solution is None else 0


def _coarsen_bytes(view, source, *args, **kwargs):
    """Bytes read and written by one aggregation (computed from array sizes)."""
    if not isinstance(source, PathBundle):
        return 0  # re-dispatches to the finest data; the inner span counts it
    return source.dW.nbytes + view.dW.nbytes + 2 * view.eta.nbytes


def _file_bytes(_result, path, *args, **kwargs):
    return path.stat().st_size


def _argument(fn, name):
    sig = inspect.signature(fn)

    def get(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


_limit_n_fine = _argument(nvlab.analysis.simulate_limit_sde, "n_fine")
_level = _argument(nvlab.mlmc.level_difference_samples, "level")

# (module, attribute, span name or name function, work count function)
FUNCTIONS = (
    (nvlab.paths, "make_bundle_batch", "paths.bundle", lambda b, *a, **k: b.dW.size),
    (nvlab.paths, "coarsen", "paths.coarsen", _coarsen_bytes),
    (nvlab.flows, "flow_unchecked", "flows.flow", None),
    (nvlab.schemes, "nv_trajectory", "schemes.nv", _path_steps),
    (nvlab.schemes, "discrete_nv_trajectory", "schemes.discrete-nv", _path_steps),
    (nvlab.schemes, "exact_trajectory", _exact_name, _exact_steps),
    (nvlab.analysis, "strong_error", "analysis.strong_error", None),
    (nvlab.analysis, "scheme_gap", "analysis.scheme_gap", None),
    (nvlab.analysis, "normalized_error_samples", "analysis.error_samples", None),
    (
        nvlab.analysis,
        "simulate_limit_sde",
        "analysis.limit_sde",
        lambda v, *a, **k: v.shape[0] * _limit_n_fine(*a, **k),
    ),
    (nvlab.analysis, "limit_law_study", "analysis.limit_law", None),
    (nvlab.analysis, "source_term_variance", "analysis.source_term", None),
    (nvlab.analysis, "fit_rate", "analysis.reduce", None),
    (nvlab.analysis, "compare_distributions", "analysis.reduce", None),
    # private, but they are the batch-statistics reduction every estimator ends in
    (nvlab.analysis, "_batch_mean_se", "analysis.reduce", None),
    (nvlab.analysis, "_batch_var_se", "analysis.reduce", None),
    (
        nvlab.mlmc,
        "level_difference_samples",
        lambda *a, **k: "mlmc.level0" if _level(*a, **k) == 0 else "mlmc.level",
        lambda v, *a, **k: v.shape[0],
    ),
    (nvlab.mlmc, "mlmc_estimate", "mlmc.estimate", None),
    (nvlab.report, "guard_output_dir", "report.write", None),
    (nvlab.report, "run_metadata", "report.write", None),
    (nvlab.report, "write_csv", "report.write", _file_bytes),
    (nvlab.report, "write_json", "report.write", _file_bytes),
    (nvlab.cli, "main", "cli.main", None),
)


def traced_problem(tracer: Tracer, problem):
    """A copy of ``problem`` whose coefficient callables and closed form record spans."""
    f = problem.fields
    fields = dataclasses.replace(
        f,
        b=traced(tracer, "models.field", f.b),
        sigma=tuple(traced(tracer, "models.field", s) for s in f.sigma),
        jac_b=traced(tracer, "models.jacobian", f.jac_b),
        jac_sigma=tuple(traced(tracer, "models.jacobian", j) for j in f.jac_sigma),
    )
    exact = problem.exact_solution
    if exact is not None:
        exact = traced(tracer, "catalog.exact", exact)
    return dataclasses.replace(problem, fields=fields, exact_solution=exact)


def _traced_run_batches(tracer: Tracer, run_batches):
    def wrapper(worker, specs, threads=1):
        task_name = tracer.current()[1] + ".task"
        workers = 1 if len(specs) <= 1 else min(nvlab.util.resolve_threads(threads), len(specs))
        token = tracer.enter("util.run_batches")
        batch_id = tracer.current()[0]

        def task(spec):
            # pool threads start with an empty stack: name the parent explicitly
            t = tracer.enter(task_name, parent=batch_id)
            try:
                return worker(spec)
            finally:
                tracer.exit(t, spec[1])

        try:
            return run_batches(task, specs, threads)
        finally:
            tracer.exit(token, workers)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on nvlab for the duration of the block."""
    undo = []

    def rebind(owner, attr, replacement):
        original = getattr(owner, attr)
        for name, module in list(sys.modules.items()):
            if name == "nvlab" or name.startswith("nvlab."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, replacement)

    try:
        for module, attr, name, count in FUNCTIONS:
            rebind(module, attr, traced(tracer, name, getattr(module, attr), count))
        rebind(nvlab.util, "run_batches", _traced_run_batches(tracer, nvlab.util.run_batches))

        seek = nvlab.paths.StreamPool.seek
        undo.append((nvlab.paths.StreamPool, "seek", seek))
        nvlab.paths.StreamPool.seek = traced(tracer, "paths.seek", seek)

        build_table = nvlab.models.build_bracket_table

        def build_bracket_table(fields):
            entries = build_table(fields).entries.items()
            return BracketTable({k: traced(tracer, "models.bracket", fn) for k, fn in entries})

        rebind(nvlab.models, "build_bracket_table", build_bracket_table)

        get_problem = catalog_module.get_problem
        copies = {}

        def traced_get_problem(name):
            if name not in copies:
                copies[name] = traced_problem(tracer, get_problem(name))
            return copies[name]

        rebind(catalog_module, "get_problem", traced_get_problem)
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def layer_metrics(spans: list[Span], wall_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition lasting ``wall_ns``."""
    self_of = self_times(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    incl_ns = defaultdict(int)
    work = defaultdict(int)
    layer_ns = defaultdict(int)
    tasks = task_ns = chunk_max = capacity_ns = root_ns = 0
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += self_of[s.id]
        incl_ns[s.name] += s.end - s.start
        work[s.name] += s.count
        layer_ns[s.name.split(".", 1)[0]] += self_of[s.id]
        if s.name.endswith(".task"):
            tasks += 1
            task_ns += s.end - s.start
            chunk_max = max(chunk_max, s.count)
        if s.name == "util.run_batches":
            capacity_ns += (s.end - s.start) * s.count
        if s.parent == 0:
            root_ns += s.end - s.start

    def own(name):  # a span's self time plus that of the pool tasks it submitted
        return self_ns[name] + self_ns[name + ".task"]

    def sec(*names):
        return sum(own(n) for n in names) / 1e9

    def per(ns, count, scale=1.0):
        return ns / scale / count if count else 0.0

    models = [n for n in calls if n.startswith("models.")]
    total_ns = sum(layer_ns.values())
    metrics = {
        "paths.bundle_s": sec("paths.bundle"),
        "paths.normals": work["paths.bundle"],
        "paths.ns_per_normal": per(self_ns["paths.bundle"], work["paths.bundle"]),
        "paths.seek_s": sec("paths.seek"),
        "paths.seeks": calls["paths.seek"],
        "paths.us_per_seek": per(self_ns["paths.seek"], calls["paths.seek"], 1e3),
        "paths.coarsen_s": sec("paths.coarsen"),
        "paths.coarsen_bytes": work["paths.coarsen"],
        "catalog.exact_s": sec("catalog.exact"),
        "schemes.nv.march_s": sec("schemes.nv"),
        "schemes.nv.path_steps": work["schemes.nv"],
        "schemes.nv.ns_per_path_step": per(own("schemes.nv"), work["schemes.nv"]),
        "schemes.proxy.march_s": sec("schemes.proxy"),
        "schemes.proxy.ns_per_path_step": per(own("schemes.proxy"), work["schemes.proxy"]),
        "schemes.discrete-nv.march_s": sec("schemes.discrete-nv"),
        "schemes.discrete-nv.ns_per_path_step": per(
            own("schemes.discrete-nv"), work["schemes.discrete-nv"]
        ),
        "flows.calls": calls["flows.flow"],
        "flows.s": sec("flows.flow"),
        "models.coeff_evals": sum(calls[n] for n in models),
        "models.coeff_s": sec(*models),
        "analysis.limit_sde_s": sec("analysis.limit_sde"),
        "analysis.limit_sde.ns_per_path_step": per(
            own("analysis.limit_sde"), work["analysis.limit_sde"]
        ),
        "analysis.source_term_s": sec("analysis.source_term"),
        "analysis.reduce_s": sec("analysis.reduce"),
        "mlmc.level_s": sec("mlmc.level", "mlmc.level0"),
        "mlmc.us_per_path_level0": per(incl_ns["mlmc.level0"], work["mlmc.level0"], 1e3),
        "util.chunks": tasks,
        "util.chunk_paths_max": chunk_max,
        "util.busy_frac": task_ns / capacity_ns if capacity_ns else 0.0,
        "util.task_wait_s": (capacity_ns - task_ns) / 1e9,
        "cli.overhead_s": sec("cli.main"),
        "report.write_s": sec("report.write"),
        "report.bytes": work["report.write"],
        "trace.unattributed_frac": (wall_ns - root_ns) / wall_ns,
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = layer_ns[layer] / total_ns if total_ns else 0.0
    return metrics
