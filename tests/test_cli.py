"""Command-line behavior: subcommands, config files, exit codes."""

import os
import runpy
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from relconf import cli, oracles
from relconf.cli import main, parse_config_file
from relconf.core import (
    ConfigError,
    DataError,
    Dataset,
    Regressor,
    load_csv,
    read_csv,
    save_csv,
    write_csv,
)
from relconf.dgp import gen_small
from relconf.runner import RunManifest, score_plot_rows


SMALL_PLOTDATA = Path(__file__).parent / "golden" / "plotdata_small_seed0.csv"


def make_external(tmp_path, n=60, n_queries=2, seed=21):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=(n, 2))
    y = 1.5 * x[:, 0] - 0.5 * x[:, 1] + rng.normal(0.0, 1.0, size=n)
    qx = rng.normal(0.0, 1.0, size=(n_queries, 2))
    qy = 1.5 * qx[:, 0] - 0.5 * qx[:, 1] + rng.normal(0.0, 1.0, size=n_queries)
    train = tmp_path / "train.csv"
    queries = tmp_path / "queries.csv"
    save_csv(Dataset(x, y), train)
    save_csv(Dataset(qx, qy, head_name="y0"), queries)
    return train, queries


FAST_RUN = [
    "--method", "split",
    "--regressor", "ols",
    "--similarity", "percentile",
    "--min-relevant", "20",
]


class TestGen:
    def test_round_trip_is_bit_identical(self, tmp_path):
        assert main(["gen", "--suite", "small", "--seed", "5", "--out", str(tmp_path)]) == 0
        reloaded = load_csv(tmp_path / "train.csv", head_column="y")
        original = gen_small(5).dataset
        assert (reloaded.x == original.x).all()
        assert (reloaded.y == original.y).all()
        assert reloaded.feature_names == original.feature_names

    def test_queries_file_carries_heads(self, tmp_path):
        main(["gen", "--suite", "small", "--seed", "5", "--out", str(tmp_path)])
        qd = load_csv(tmp_path / "queries.csv", head_column="y0")
        suite = gen_small(5)
        assert qd.n == 3
        for i, q in enumerate(suite.queries):
            assert (qd.x[i] == np.asarray(q.x0)).all()
            assert qd.y[i] == q.y0

    def test_external_csv_run_on_gen_files_matches_suite_run(self, tmp_path):
        # the CSVs gen writes carry the suite exactly: an external-csv run
        # on them writes the suite run's tables, bar their comment lines
        # and plotdata's query labels, which only the suite knows
        gen, ext, suite = tmp_path / "gen", tmp_path / "ext", tmp_path / "suite"
        assert main(["gen", "--suite", "small", "--seed", "0", "--out", str(gen)]) == 0
        assert main([
            "run", "--suite", "external-csv", "--train", str(gen / "train.csv"),
            "--queries", str(gen / "queries.csv"), "--seed", "0", "--out", str(ext),
        ]) == 0
        assert main(["run", "--suite", "small", "--seed", "0", "--out", str(suite)]) == 0
        tables = sorted(p.name for p in suite.glob("*.csv"))
        assert tables == sorted(p.name for p in ext.glob("*.csv"))
        assert len(tables) == 5
        for name in tables:
            a, b = (read_csv(out / name)[1] for out in (suite, ext))
            if name == "plotdata.csv":
                label = a[0].index("query_label")
                a, b = ([r[:label] + r[label + 1:] for r in rows] for rows in (a, b))
            assert a == b, name

    def test_labels_sidecar(self, tmp_path):
        main(["gen", "--suite", "long", "--seed", "1", "--out", str(tmp_path)])
        lines = (tmp_path / "labels.csv").read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "kind,index,label"
        assert body[1] == "train,0,DGP_1"
        assert len(body) == 1 + 300 + 15

    def test_unknown_suite_is_config_error(self, tmp_path, capsys):
        code = main(["gen", "--suite", "huge", "--out", str(tmp_path)])
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2**64"])
    def test_seed_out_of_range_is_config_error(self, tmp_path, capsys, seed):
        # gen and run share one seed rule: gen writes no suite that run refuses
        message = "config error: seed must be a 64-bit unsigned integer"
        for command in ("gen", "run"):
            out = tmp_path / command
            assert main([command, "--seed", str(seed), "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()


class TestRun:
    def test_flags_run_and_write(self, tmp_path):
        train, queries = make_external(tmp_path)
        out = tmp_path / "out"
        code = main([
            "run", "--suite", "external-csv",
            "--train", str(train), "--queries", str(queries),
            "--out", str(out), *FAST_RUN,
        ])
        assert code == 0
        for name in (
            "raw_percentile.csv", "summary_percentile.csv", "plotdata.csv", "manifest.txt"
        ):
            assert (out / name).exists()
        # restricted grid: no cosine files
        assert not (out / "raw_cosine.csv").exists()

    def test_config_file_drives_run(self, tmp_path):
        train, queries = make_external(tmp_path)
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# fast restricted run\n"
            "\n"
            "suite = external-csv\n"
            f"train_csv = {train}\n"
            f"queries_csv = {queries}\n"
            "methods = split\n"
            "regressors = ols\n"
            "similarities = percentile\n"
            "min_relevant = 20\n"
            "alpha = 0.2\n"
            f"output_dir = {out}\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "alpha=0.2" in manifest
        assert "similarities=percentile" in manifest

    def test_cli_flag_overrides_config_file(self, tmp_path):
        train, queries = make_external(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "suite = external-csv\n"
            f"train_csv = {train}\n"
            f"queries_csv = {queries}\n"
            "methods = split\nregressors = ols\nsimilarities = percentile\n"
            "min_relevant = 20\n"
            "alpha = 0.2\n"
            "seed = 5\n"
        )
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(cfg), "--alpha", "0.3", "--out", str(out)
        ])
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "alpha=0.3" in manifest
        assert "seed=5" in manifest  # non-overridden file value survives

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alfa = 0.1\n")
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "alfa" in err

    def test_config_key_given_twice(self, tmp_path, capsys):
        # the last value would win silently, and a run of seed 2 exit 0
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("seed = 1\n# again\nseed = 2\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {cfg}:3: config key 'seed' given twice"
        )
        assert not (tmp_path / "out").exists()

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = ten percent\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_missing_train_file_is_data_error(self, tmp_path, capsys):
        code = main([
            "run", "--suite", "external-csv",
            "--train", str(tmp_path / "absent.csv"),
            "--queries", str(tmp_path / "absent2.csv"),
            "--out", str(tmp_path / "out"), *FAST_RUN,
        ])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_external_suite_without_paths_is_config_error(self, tmp_path):
        assert main(["run", "--suite", "external-csv", "--out", str(tmp_path)]) == 1

    def test_bad_regressor_name(self, tmp_path, capsys):
        train, queries = make_external(tmp_path)
        code = main([
            "run", "--suite", "external-csv",
            "--train", str(train), "--queries", str(queries),
            "--regressor", "ridge", "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "ridge" in capsys.readouterr().err

    def test_repeated_similarity_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--similarity", "cosine,cosine", "--out", str(out)])
        assert code == 1
        assert "similarities" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_list_value_keeps_its_reason(self, tmp_path, capsys, source):
        args = ["--regressor", ","]
        if source == "config":
            (tmp_path / "c.cfg").write_text("regressors = ,\n")
            args = ["--config", str(tmp_path / "c.cfg")]
        assert main(["run", *args, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "empty list value: ','" in err
        assert "invalid comma_list value" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--grid-expansion", "nan"), ("--grid-expansion", "inf"), ("--noise-scale", "inf")],
    )
    def test_non_finite_knob_is_config_error(self, tmp_path, capsys, flag, value):
        train, queries = make_external(tmp_path)
        code = main([
            "run", "--suite", "external-csv",
            "--train", str(train), "--queries", str(queries),
            "--method", "full", "--regressor", "ols", "--similarity", "percentile",
            "--min-relevant", "20", flag, value, "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_flags_land_in_manifest_fields(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_grid", lambda m: seen.append(m) or {})
        assert main([
            "run", "--suite", "external-csv", "--train", "t.csv", "--queries", "q.csv",
            "--out", "o", "--regressor", "ols,kernel",
        ]) == 0
        (m,) = seen
        assert (m.train_csv, m.queries_csv, m.output_dir) == ("t.csv", "q.csv", "o")
        assert m.regressors == (Regressor.OLS, Regressor.KERNEL)


class TestScore:
    def test_reproduces_run_summaries(self, tmp_path):
        train, queries = make_external(tmp_path)
        out = tmp_path / "out"
        main([
            "run", "--suite", "external-csv",
            "--train", str(train), "--queries", str(queries),
            "--out", str(out), *FAST_RUN,
        ])
        rescored = tmp_path / "rescored"
        assert main(["score", "--in", str(out), "--out", str(rescored)]) == 0
        a = (out / "summary_percentile.csv").read_bytes()
        b = (rescored / "summary_percentile.csv").read_bytes()
        assert a == b

    def test_missing_plotdata_is_data_error(self, tmp_path, capsys):
        assert main(["score", "--in", str(tmp_path)]) == 2
        assert "plotdata" in capsys.readouterr().err

    def test_plotdata_without_scored_rows_is_data_error(self, tmp_path, capsys):
        # the file has no data rows, so no summary could be written
        (tmp_path / "plotdata.csv").write_text("# nothing was scored\n")
        assert main(["score", "--in", str(tmp_path)]) == 2
        assert f"no data rows in {tmp_path / 'plotdata.csv'}" in capsys.readouterr().err
        assert not list(tmp_path.glob("summary_*.csv"))

    def test_blank_y0_is_data_error(self, tmp_path, capsys):
        # every query of a run has a realized head, so a blank one is
        # refused like any other non-numeric cell, not skipped
        train, queries = make_external(tmp_path)
        out = tmp_path / "out"
        main(["run", "--suite", "external-csv", "--train", str(train),
              "--queries", str(queries), "--out", str(out), *FAST_RUN])
        comments, (header, *data) = read_csv(out / "plotdata.csv")
        data[1][header.index("y0")] = ""
        write_csv(out / "plotdata.csv", header, data, comments)
        capsys.readouterr()
        assert main(["score", "--in", str(out)]) == 2
        assert "non-numeric cell '' at data row 2, column 'y0'" in capsys.readouterr().err

    def test_unknown_method_is_data_error(self, tmp_path, capsys):
        # small seed 0's plotdata with its split rows renamed: scored, they
        # would drop out of every summary without a word
        plot_path = tmp_path / "plotdata.csv"
        plot_path.write_text(SMALL_PLOTDATA.read_text().replace(",split,", ",bogus,"))
        message = "unknown name 'bogus' at data row 4, column 'method'"
        _, (header, *data) = read_csv(plot_path)
        with pytest.raises(DataError, match=message):
            score_plot_rows(dict(zip(header, row)) for row in data)
        assert main(["score", "--in", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("summary_*.csv"))

    @pytest.mark.parametrize("column", ["similarity", "path", "method", "regressor"])
    def test_unknown_cell_name_is_data_error(self, column):
        _, (header, *data) = read_csv(SMALL_PLOTDATA)
        rows = [dict(zip(header, row)) for row in data]
        score_plot_rows(rows)
        rows[2][column] = "Full"  # names are matched exactly
        with pytest.raises(DataError, match=f"'Full' at data row 3, column '{column}'"):
            score_plot_rows(rows)

    @pytest.mark.parametrize("fault, message", [
        ("no up column", "no column 'up'"),
        ("short row", "data row 2 has 12 cells, expected 13"),
        ("non-numeric cell", "non-numeric cell 'abc' at data row 1, column 'lo'"),
        ("repeated cell", "repeated cell at data row 3: Cell(path='standard'"),
    ])
    def test_malformed_plotdata_is_data_error(self, tmp_path, capsys, fault, message):
        train, queries = make_external(tmp_path)
        out = tmp_path / "out"
        main([
            "run", "--suite", "external-csv",
            "--train", str(train), "--queries", str(queries),
            "--out", str(out), *FAST_RUN,
        ])
        comments, (header, *data) = read_csv(out / "plotdata.csv")
        if fault == "no up column":
            j = header.index("up")
            header, data = header[:j] + header[j + 1:], [r[:j] + r[j + 1:] for r in data]
        elif fault == "short row":
            data[1] = data[1][:-1]
        elif fault == "repeated cell":
            data[2] = data[0]
        else:
            data[0][header.index("lo")] = "abc"
        write_csv(out / "plotdata.csv", header, data, comments)
        capsys.readouterr()
        assert main(["score", "--in", str(out)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "run", "score"])
def test_output_path_that_is_a_file_is_config_error(tmp_path, capsys, command):
    # mkdir on a regular file raises FileExistsError, and below one
    # NotADirectoryError: a config error with exit code 1, not a traceback
    train, queries = make_external(tmp_path)
    run_out = tmp_path / "run"
    assert main([
        "run", "--suite", "external-csv", "--train", str(train), "--queries", str(queries),
        "--out", str(run_out), *FAST_RUN,
    ]) == 0
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    argv = {
        "gen": ["gen", "--out"],
        "run": ["run", "--suite", "small", *FAST_RUN, "--out"],
        "score": ["score", "--in", str(run_out), "--out"],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    for out in (blocker, blocker / "x"):
        capsys.readouterr()
        assert main([*argv, str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
    assert blocker.read_text() == "kept\n"
    assert sorted(tmp_path.rglob("*")) == before


class TestParseConfigFile:
    def test_comments_and_blanks_skipped(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\n\nseed = 3\nregressors = ols, lasso\n")
        parsed = parse_config_file(cfg)
        assert parsed == {"seed": 3, "regressors": ("ols", "lasso")}

    def test_every_manifest_field_but_created_is_a_key(self, tmp_path):
        values = {
            f.name: ",".join(v.value for v in f.default) if isinstance(f.default, tuple)
            else getattr(f.default, "value", f.default)
            for f in fields(RunManifest)
            if f.name != "created"
        }
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert set(parse_config_file(cfg)) == set(values)
        cfg.write_text("created = 2000-01-01\n")
        with pytest.raises(ConfigError, match="created"):
            parse_config_file(cfg)

    def test_line_without_equals(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_file(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(tmp_path / "nope.cfg")

    def test_byte_order_mark_is_read_as_read_csv_reads_it(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes("\ufeffalpha = 0.2\nseed = 3\n".encode("utf-8"))
        assert parse_config_file(cfg) == {"alpha": 0.2, "seed": 3}

    def test_undecodable_file_is_a_config_error_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"alpha = 0.2\n\xff\n")
        with pytest.raises(ConfigError, match=r"cannot read config file .*bad\.cfg"):
            parse_config_file(cfg)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config file")

    @pytest.mark.parametrize("value", ["", ",", " , ,"])
    def test_empty_list_value(self, tmp_path, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"regressors = {value}\n")
        with pytest.raises(ConfigError, match="bad value for regressors: empty list value"):
            parse_config_file(cfg)


class TestTopLevel:
    def test_no_subcommand_is_config_error(self, capsys):
        assert main([]) == 1

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out

    def test_selftest_reports_a_failing_check(self, capsys, monkeypatch):
        monkeypatch.setitem(oracles.CHECKS, "ols-exact-fit", lambda: (False, "forced"))
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert [l for l in out.splitlines() if l.startswith("FAIL")] == [
            "FAIL ols-exact-fit: forced"
        ]
        assert "5/6 passed" in out

    def test_selftest_reports_a_check_that_raises(self, capsys, monkeypatch):
        def broken():
            raise ZeroDivisionError("forced")

        monkeypatch.setattr(oracles, "CHECKS", {"fine": lambda: (True, ""), "broken": broken})
        assert main(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS fine",
            "FAIL broken: ZeroDivisionError: forced",
            "selftest: 1/2 passed",
        ]

    def test_module_runs_main_in_process(self, tmp_path, monkeypatch, capsys):
        # runpy warns that relconf.cli is imported already, then runs it as
        # __main__, which exits with main()'s code
        monkeypatch.setattr(sys, "argv", ["relconf", "score", "--in", str(tmp_path)])
        with pytest.warns(RuntimeWarning), pytest.raises(SystemExit) as exit_:
            runpy.run_module("relconf.cli", run_name="__main__")
        assert exit_.value.code == 2
        assert "plotdata" in capsys.readouterr().err

    def test_module_entry_point(self):
        # the child imports relconf from this process's path, installed or not
        proc = subprocess.run(
            [sys.executable, "-m", "relconf.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0
        assert "relconf" in proc.stdout
