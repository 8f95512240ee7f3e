"""Command-line front end: orchestrates studies and deterministic file emission.

Commands: problems, convergence, limit-law, source-term, mlmc.
Global flags: --seed, --threads, --out, --format, --force, --config. A
key=value config file supplies defaults; explicit flags override it.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .analysis import fit_rate, limit_law_study, source_term_variance, strong_error
from .catalog import catalog, get_problem
from .config import (
    FILE_KEYS,
    FORMATS,
    RunConfig,
    apply_file_values,
    load_config_file,
    parse_ladder,
)
from .flows import FlowExplosionError
from .mlmc import mlmc_estimate
from .report import guard_output_dir, run_metadata, write_csv, write_json
from .schemes import SCHEME_IDS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through the exit-code contract
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed (default 42)")
    common.add_argument("--threads", type=int, default=None, help="worker threads, 0 = auto")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--format", choices=FORMATS, default=None)
    common.add_argument("--force", action="store_true", help="overwrite mismatched outputs")
    common.add_argument("--config", type=str, default=None, help="key=value config file")

    parser = _Parser(prog="nvlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nvlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("problems", parents=[common], help="list catalog problems as JSON")

    p = sub.add_parser("convergence", parents=[common], help="strong-error rate study")
    p.add_argument("--problem", type=str, default=None)
    p.add_argument("--scheme", type=str, default=None)
    p.add_argument("--nladder", type=str, default=None, help="comma-separated step counts")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--p", type=int, default=None, help="moment order (L^{2p} error)")
    p.add_argument("--refine", type=int, default=None, help="reference refinement factor")

    p = sub.add_parser("limit-law", parents=[common], help="rescaled error vs limiting SDE")
    p.add_argument("--problem", type=str, default=None)
    p.add_argument("--N", dest="N", type=int, default=None, help="scheme step count")
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--nfine", type=int, default=None, help="limit-SDE Euler steps")
    p.add_argument("--refine", type=int, default=None)

    p = sub.add_parser("source-term", parents=[common], help="bracket source-term variance")
    p.add_argument("--N", dest="N", type=int, default=None)
    same_law = "; every pair 1 <= m < j is identical in law and gives the same estimate"
    p.add_argument("--j", type=int, default=None, help="outer Brownian index j" + same_law)
    p.add_argument("--m", type=int, default=None, help="inner Brownian index m < j" + same_law)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--substeps", type=int, default=None)

    p = sub.add_parser("mlmc", parents=[common], help="multilevel estimator and level variances")
    p.add_argument("--problem", type=str, default=None)
    p.add_argument("--payoff", type=str, default=None)
    p.add_argument("--levels", type=int, default=None)
    p.add_argument("--paths-per-level", dest="paths_per_level", type=int, default=None)
    p.add_argument("--n0", type=int, default=None)

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        apply_file_values(cfg, load_config_file(args.config))
    for key, attr in FILE_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, attr, parse_ladder(value) if attr == "n_ladder" else value)
    if getattr(args, "force", False):
        cfg.force = True
    return cfg


def _emit(cfg: RunConfig, stem: str, columns, rows, extra: dict | None = None):
    if cfg.out is None:
        return
    outdir = guard_output_dir(cfg.out, cfg)
    meta = run_metadata(cfg)
    if cfg.format in ("csv", "both"):
        write_csv(outdir / f"{stem}.csv", columns, rows, meta)
    if cfg.format in ("json", "both"):
        payload = {
            "metadata": meta,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        if extra:
            payload.update(extra)
        write_json(outdir / f"{stem}.json", payload)


def cmd_problems(cfg: RunConfig) -> int:
    descriptors = [prob.descriptor() for prob in catalog()]
    print(json.dumps(descriptors, indent=2))
    rows = [
        [d["id"], d["n"], d["d"], d["T"], ";".join(str(v) for v in d["x0"]), d["commutative_flag"]]
        for d in descriptors
    ]
    _emit(cfg, "problems", ["id", "n", "d", "T", "x0", "commutative_flag"], rows)
    return EXIT_OK


def cmd_convergence(cfg: RunConfig) -> int:
    problem = get_problem(cfg.problem)
    if cfg.scheme not in SCHEME_IDS:
        raise UsageError(f"unknown scheme {cfg.scheme!r}; known: {', '.join(SCHEME_IDS)}")
    points = strong_error(
        problem,
        cfg.scheme,
        cfg.n_ladder,
        cfg.paths,
        cfg.seed,
        p=cfg.p,
        refine_factor=cfg.refine,
        threads=cfg.threads,
    )
    fit = fit_rate(points, T=problem.T)
    rows = [
        [problem.name, cfg.scheme, pt.N, problem.T / pt.N, pt.err, pt.stderr, pt.p]
        for pt in points
    ]
    print(f"convergence: problem={problem.name} scheme={cfg.scheme} paths={cfg.paths}")
    for pt in points:
        print(f"  N={pt.N:<6d} err={pt.err:.6e} stderr={pt.stderr:.2e}")
    print(f"  slope={fit.slope:.4f} r2={fit.r_squared:.4f}")
    _emit(
        cfg,
        "rate",
        ["problem", "scheme", "N", "h", "err", "stderr", "p"],
        rows,
        extra={
            "fit": {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
                "excluded": list(fit.excluded),
            }
        },
    )
    return EXIT_OK


def cmd_limit_law(cfg: RunConfig) -> int:
    problem = get_problem(cfg.problem)
    rep = limit_law_study(
        problem,
        N=cfg.N,
        paths=cfg.paths,
        master_seed=cfg.seed,
        n_fine_limit=cfg.nfine,
        refine_factor=cfg.refine,
        threads=cfg.threads,
    )
    rows = []
    print(f"limit law: problem={problem.name} N={cfg.N} paths={cfg.paths}")
    for i in range(problem.n):
        rows.append(
            [
                problem.name,
                cfg.N,
                i + 1,
                rep.mean_scheme[i],
                rep.mean_limit[i],
                rep.cov_scheme[i, i],
                rep.cov_limit[i, i],
                rep.ks_stat[i],
                rep.ks_pvalue[i],
            ]
        )
        print(
            f"  coord {i + 1}: var_scheme={rep.cov_scheme[i, i]:.4e} "
            f"var_limit={rep.cov_limit[i, i]:.4e} ks_p={rep.ks_pvalue[i]:.4f}"
        )
    _emit(
        cfg,
        "limitlaw",
        [
            "problem",
            "N",
            "coord",
            "mean_scheme",
            "mean_limit",
            "var_scheme",
            "var_limit",
            "ks_stat",
            "ks_pvalue",
        ],
        rows,
    )
    return EXIT_OK


def cmd_source_term(cfg: RunConfig) -> int:
    est = source_term_variance(
        N=cfg.N,
        j=cfg.j,
        m=cfg.m,
        t=cfg.t,
        paths=cfg.paths,
        master_seed=cfg.seed,
        substeps=cfg.substeps,
        threads=cfg.threads,
    )
    print(
        f"source term: N={est.N} j={est.j} m={est.m} t={est.t} "
        f"var={est.var_est:.5f} (theory {est.theory:.5f}, stderr {est.stderr:.2e})"
    )
    rows = [[est.N, est.j, est.m, est.t, est.var_est, est.stderr, est.theory]]
    _emit(cfg, "sourceterm", ["N", "j", "m", "t", "var_est", "stderr", "theory"], rows)
    return EXIT_OK


def cmd_mlmc(cfg: RunConfig) -> int:
    problem = get_problem(cfg.problem)
    rep = mlmc_estimate(
        problem,
        cfg.payoff,
        L_max=cfg.levels,
        paths_per_level=cfg.paths_per_level,
        master_seed=cfg.seed,
        n0=cfg.n0,
        threads=cfg.threads,
    )
    print(f"mlmc: problem={problem.name} payoff={cfg.payoff} levels=0..{cfg.levels}")
    rows = []
    for ls in rep.levels:
        rows.append([ls.level, ls.N, ls.mean_diff, ls.var_diff, ls.cost])
        print(f"  level {ls.level}: N={ls.N:<6d} mean={ls.mean_diff:+.5e} var={ls.var_diff:.5e}")
    print(f"  estimate={rep.estimate:.6f} stderr={rep.stderr:.2e} beta={rep.beta_fit:.3f}")
    _emit(
        cfg,
        "mlmc",
        ["level", "N", "mean_diff", "var_diff", "cost"],
        rows,
        extra={
            "estimate": rep.estimate,
            "stderr": rep.stderr,
            "total_cost": rep.total_cost,
            "beta_fit": rep.beta_fit,
        },
    )
    return EXIT_OK


_COMMANDS = {
    "problems": cmd_problems,
    "convergence": cmd_convergence,
    "limit-law": cmd_limit_law,
    "source-term": cmd_source_term,
    "mlmc": cmd_mlmc,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except (KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FlowExplosionError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
