"""Command-line front end.

Subcommands:

* ``gen``      write a synthetic suite to CSV (train.csv, queries.csv, labels.csv)
* ``run``      execute the full interval grid and emit result tables
* ``score``    recompute summary tables from an existing plotdata.csv
* ``selftest`` run the oracle checks of ``relconf.oracles``, printing PASS/FAIL lines

Exit codes: 0 success, 1 configuration error (an unusable output path is
one), 2 data error.

``run`` reads an optional flat ``key=value`` config file; command-line
flags override file values, which override built-in defaults. The keys
and flags are the ``RunManifest`` fields; unknown config keys are
rejected by name.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import oracles
from .core import (
    ARTIFACT_VERSION,
    ConfigError,
    DataError,
    Dataset,
    check_knob,
    read_csv,
    save_csv,
    write_csv,
)
from .dgp import SUITES
from .individualize import ControlMode
from .runner import SUITE_NAMES, RunManifest, run_grid, score_plot_rows, write_summary_csv

__all__ = ["main", "parse_config_file"]


def comma_list(text: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts:
        raise ConfigError(f"empty list value: {text!r}")
    return parts


# the run knobs, config-file keys and run flags alike: every RunManifest
# field with a plain default (``created`` is a timestamp made by a factory)
_DEFAULTS = {f.name: f.default for f in fields(RunManifest) if f.default is not MISSING}


def _parser(default):
    """Text to value for a knob with this default; a tuple takes a comma list."""
    if isinstance(default, tuple):
        return comma_list
    if isinstance(default, (int, float)):
        return type(default)
    return str


def parse_config_file(path) -> dict:
    """Flat ``key=value`` lines; ``#`` comments and blank lines ignored."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    settings: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            settings[key] = _parser(_DEFAULTS[key])(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return settings


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="relconf", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"relconf {ARTIFACT_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic suite to CSV")
    gen.add_argument("--suite", choices=sorted(SUITES), default="small")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="data", help="output directory (default: %(default)s)")
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="execute the interval grid")
    run.add_argument("--config", help="flat key=value config file")

    def knob(flag, field, text, **kw):
        default = _DEFAULTS[field]
        if isinstance(default, tuple):
            text += f" (default {','.join(v.value for v in default)})"
        elif default is not None:
            text += f" (default {getattr(default, 'value', default)})"
        run.add_argument(flag, dest=field, type=_parser(default), help=text, **kw)

    knob("--suite", "suite", "data source", choices=SUITE_NAMES)
    knob("--train", "train_csv", "training CSV (external-csv suite)")
    knob("--queries", "queries_csv", "query CSV with a y0 column (external-csv suite)")
    knob("--alpha", "alpha", "miscoverage level")
    knob("--gamma", "gamma", "cosine threshold")
    knob("--rho", "rho", "split training fraction")
    knob("--noise-scale", "noise_scale", "control jitter scale")
    knob("--min-relevant", "min_relevant", "selection floor")
    knob("--seed", "seed", "master seed")
    knob("--grid-points", "grid_points", "full-conformal grid size")
    knob("--grid-expansion", "grid_expansion", "full-conformal range padding")
    knob("--regressor", "regressors", "comma list of engines")
    knob("--method", "methods", "comma list of conformal methods")
    knob("--similarity", "similarities", "comma list of similarity rules")
    knob("--control-mode", "control_mode", "synthetic control style",
         choices=[m.value for m in ControlMode])
    knob("--out", "output_dir", "output directory")
    run.set_defaults(func=_cmd_run)

    score = sub.add_parser("score", help="recompute summaries from plotdata.csv")
    score.add_argument("--in", dest="indir", required=True,
                       help="directory holding plotdata.csv (or the file itself)")
    score.add_argument("--out", help="output directory (default: same as --in)")
    score.set_defaults(func=_cmd_score)

    selftest = sub.add_parser("selftest", help="run the oracle checks")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    seed = check_knob("seed", args.seed)
    suite = SUITES[args.suite](seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    comments = [
        f"version={ARTIFACT_VERSION}",
        f"suite={args.suite}",
        f"seed={seed}",
    ]
    save_csv(suite.dataset, out / "train.csv", comments)
    qx = np.vstack([q.x0 for q in suite.queries])
    qy = np.array([q.y0 for q in suite.queries])
    save_csv(
        Dataset(qx, qy, feature_names=suite.dataset.feature_names, head_name="y0"),
        out / "queries.csv",
        comments,
    )
    labels = [("train", i, lab) for i, lab in enumerate(suite.setting_labels)]
    labels += [("query", i, lab) for i, lab in enumerate(suite.query_labels)]
    write_csv(out / "labels.csv", ["kind", "index", "label"], labels, comments)
    for name in ("train.csv", "queries.csv", "labels.csv"):
        print(f"wrote {out / name}")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    settings = parse_config_file(args.config) if args.config else {}
    for name in _DEFAULTS:
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    written = run_grid(RunManifest(**settings))
    for name in sorted(written):
        print(f"wrote {written[name]}")
    return 0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def _cmd_score(args) -> int:
    source = Path(args.indir)
    plot_path = source if source.is_file() else source / "plotdata.csv"
    comments, rows = read_csv(plot_path)
    by_similarity = score_plot_rows(dict(zip(rows[0], row)) for row in rows[1:])
    if not by_similarity:
        raise DataError(f"no scored rows (no data row with a y0) in {plot_path}")
    out = Path(args.out) if args.out else plot_path.parent
    out.mkdir(parents=True, exist_ok=True)
    for sim, metric_rows in by_similarity.items():
        path = out / f"summary_{sim}.csv"
        write_summary_csv(path, comments, metric_rows)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _cmd_selftest(args) -> int:
    failures = 0
    for name, check in oracles.CHECKS.items():
        try:
            ok, detail = check()
        except Exception as exc:  # report and keep going
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"selftest: {len(oracles.CHECKS) - failures}/{len(oracles.CHECKS)} passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:  # read_csv makes an input OSError a DataError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
