"""Three-path pipeline behavior and grid-runner output structure."""

from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from relconf.conformal import ConformalSpec, conformal_interval
from relconf.core import (
    ConfigError,
    ConformalMethod,
    DataError,
    Dataset,
    ExperimentConfig,
    IntervalPath,
    PredictionInterval,
    Query,
    Regressor,
    Similarity,
    load_csv,
    save_csv,
    subseed,
)
from relconf import cli, conformal, regress, runner
from relconf.dgp import SUITES
from relconf.individualize import select, simulate_controls
from relconf.runner import RunManifest, _load_grid_data, _setup, run_algorithm1, run_grid
from relconf.evaluate import METRIC_FAMILIES, VARIANT_ORDER, variant_code


def make_data(n=60, seed=5, spread=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=(n, 2))
    y = 1.5 * x[:, 0] - 0.5 * x[:, 1] + rng.normal(0.0, spread, size=n)
    return Dataset(x, y)


def positive_data(n=40, seed=11):
    """Tails in [1, 2]^2 so every pairwise cosine is far above zero."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1.0, 2.0, size=(n, 2))
    y = x[:, 0] + 0.5 * x[:, 1] + rng.normal(0.0, 0.3, size=n)
    return Dataset(x, y)


BASE = ExperimentConfig(min_relevant=20, seed=3)


class TestRunAlgorithm1:
    def test_three_paths_ordered(self):
        # standard, relevant, relevant + simulated: each path's interval is
        # its data's conformal interval at the runner's seeds and floor
        d = make_data()
        q = Query(np.array([0.5, -0.2]))
        triple = run_algorithm1(d, q, BASE, query_index=4)
        x0, floor = _setup(d, q, BASE)
        rel = select(d, x0, BASE.similarity, BASE.alpha, BASE.gamma, min_relevant=floor)
        controls = simulate_controls(
            d, rel.indices, BASE.noise_scale, seed=subseed(BASE.seed, "controls", 4)
        )
        seed = subseed(BASE.seed, "conformal", 4)
        assert triple == tuple(
            conformal_interval(data, BASE.regressor, x0, BASE, seed=seed)
            for data in (d, d.subset(rel.indices), controls)
        )
        for iv in triple:
            assert iv.lo <= iv.up

    def test_each_interval_checked_once(self, monkeypatch):
        checked = []
        check = PredictionInterval.__post_init__

        def counting_check(iv):
            checked.append(iv)
            check(iv)

        monkeypatch.setattr(PredictionInterval, "__post_init__", counting_check)
        run_algorithm1(make_data(), Query(np.array([0.5, -0.2])), BASE)
        assert len(checked) == 3

    @pytest.mark.parametrize("method", list(ConformalMethod))
    @pytest.mark.parametrize("reg", list(Regressor))
    def test_all_engines_and_methods_run(self, method, reg):
        d = make_data(n=40)
        q = Query(np.array([0.2, 0.1]))
        cfg = replace(BASE, method=method, regressor=reg, grid_points=30)
        triple = run_algorithm1(d, q, cfg)
        for iv in triple:
            assert np.isfinite([iv.point, iv.lo, iv.up]).all()
            assert iv.lo <= iv.up

    def test_deterministic(self):
        d = make_data()
        q = Query(np.array([0.5, -0.2]))
        a = run_algorithm1(d, q, BASE)
        b = run_algorithm1(d, q, BASE)
        assert a == b

    def test_head_of_query_never_consulted(self):
        # the pipeline must not peek at the realized head
        d = make_data()
        blind = run_algorithm1(d, Query(np.array([0.5, -0.2])), BASE)
        labeled = run_algorithm1(d, Query(np.array([0.5, -0.2]), y0=123.0), BASE)
        assert blind == labeled

    def test_path1_matches_standalone_conformal(self):
        d = make_data()
        q = Query(np.array([0.5, -0.2]))
        standard = run_algorithm1(d, q, BASE, query_index=7)[0]
        spec = ConformalSpec(method=BASE.method, alpha=BASE.alpha, rho=BASE.rho)
        alone = conformal_interval(
            d, BASE.regressor, q.x0, spec, seed=subseed(BASE.seed, "conformal", 7)
        )
        assert (standard.point, standard.lo, standard.up) == (
            alone.point,
            alone.lo,
            alone.up,
        )

    def test_similarity_choice_leaves_path1_unchanged(self):
        d = make_data()
        q = Query(np.array([0.5, -0.2]))
        per = run_algorithm1(d, q, replace(BASE, similarity=Similarity.PERCENTILE))
        cos = run_algorithm1(d, q, replace(BASE, similarity=Similarity.COSINE, gamma=0.5))
        assert per[0] == cos[0]

    def test_min_relevant_floor_clamps_to_dataset(self):
        # selection floor exceeds n: the whole dataset becomes the relevant
        # set, so the relevant interval equals the standard one
        d = make_data(n=10)
        q = Query(np.array([0.0, 0.0]))
        cfg = replace(BASE, min_relevant=30)
        standard, relevant, _ = run_algorithm1(d, q, cfg)
        assert (standard.point, standard.lo, standard.up) == (
            relevant.point,
            relevant.lo,
            relevant.up,
        )

    def test_selection_floor_raised_to_method_minimum(self):
        # min_relevant=2 would starve split conformal; the floor must rise to 4
        d = make_data(n=50)
        q = Query(np.array([0.0, 0.0]))
        cfg = replace(BASE, min_relevant=2, alpha=0.05)
        triple = run_algorithm1(d, q, cfg)
        for iv in triple:
            assert iv.lo <= iv.up

    @pytest.mark.parametrize(
        "method, reg, needed",
        [
            ("split", "ols", 4),
            ("full", "ols", 2),
            ("full", "kernel", 2),
            ("jackknife", "ols", 3),
            ("jackknife", "kernel", 3),
        ],
    )
    def test_dataset_below_method_minimum_is_hard_error(self, method, reg, needed, monkeypatch):
        # _setup refuses a dataset one row short before any fit runs
        for name in ("fit_ols", "fit_lasso", "fit_kernel"):
            monkeypatch.setattr(regress, name, None)  # a fit here would fail
        d = make_data(n=needed - 1)
        cfg = replace(BASE, method=method, regressor=reg)
        message = f"{method} conformal with {reg} needs n >= {needed}, got n={needed - 1}"
        with pytest.raises(DataError, match=message):
            run_algorithm1(d, Query(np.array([0.0, 0.0])), cfg)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="features"):
            run_algorithm1(make_data(), Query(np.array([1.0, 2.0, 3.0])), BASE)

    def test_degenerate_selection_collapses_paths(self):
        # whole-dataset cosine selection + vanishing clone noise: the three
        # paths see (effectively) the same rows and must agree closely
        d = positive_data()
        q = Query(np.array([1.5, 1.5]))
        cfg = ExperimentConfig(
            similarity=Similarity.COSINE,
            gamma=0.001,
            min_relevant=4,
            noise_scale=1e-12,
            seed=9,
        )
        standard, relevant, simulated = run_algorithm1(d, q, cfg)
        np.testing.assert_allclose(
            [relevant.point, relevant.lo, relevant.up],
            [standard.point, standard.lo, standard.up],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            [simulated.point, simulated.lo, simulated.up],
            [standard.point, standard.lo, standard.up],
            atol=1e-6,
        )

    @pytest.mark.parametrize(
        "method, needed",
        [(ConformalMethod.FULL, 5), (ConformalMethod.SPLIT, 10), (ConformalMethod.JACKKNIFE, 5)],
    )
    def test_lasso_floor_covers_cross_validation_folds(self, method, needed):
        # No tail clears gamma, so the cosine rule falls back to exactly the
        # floor. min_relevant=4 is below the rows a 5-fold LASSO fit needs
        # (split at rho=0.5 fits on half its rows), so the floor must rise.
        d = positive_data(n=24)
        q = Query(np.array([1.9, 1.1]))
        cfg = ExperimentConfig(
            regressor=Regressor.LASSO,
            method=method,
            similarity=Similarity.COSINE,
            gamma=0.99999,
            min_relevant=4,
            grid_points=20,
            seed=2,
        )
        for iv in run_algorithm1(d, q, cfg):
            assert np.isfinite([iv.point, iv.lo, iv.up]).all()
            assert iv.lo <= iv.up
        with pytest.raises(DataError, match=f"n >= {needed},"):
            run_algorithm1(d.subset(np.arange(needed - 1)), q, cfg)


def external_manifest(tmp_path, **overrides):
    """A small on-disk suite: 60 training rows, 2 labeled queries."""
    d = make_data(n=60, seed=21)
    rng = np.random.default_rng(77)
    qx = rng.normal(0.0, 1.0, size=(2, 2))
    qy = 1.5 * qx[:, 0] - 0.5 * qx[:, 1] + rng.normal(0.0, 1.0, size=2)
    train = tmp_path / "train.csv"
    queries = tmp_path / "queries.csv"
    save_csv(d, train)
    save_csv(Dataset(qx, qy, head_name="y0"), queries)
    defaults = dict(
        suite="external-csv",
        train_csv=str(train),
        queries_csv=str(queries),
        output_dir=str(tmp_path / "out"),
        min_relevant=20,
        grid_points=40,
        seed=4,
    )
    defaults.update(overrides)
    return RunManifest(**defaults)


def read_lines(path):
    return Path(path).read_text().splitlines()


def count_grid_fits(tmp_path, monkeypatch, **overrides):
    """Run the external grid with a third query on the same training rows.

    Returns the engine fits counted per (engine name, x bytes, y bytes),
    the leave-one-out calls counted per (engine, x bytes, y bytes), the
    training rows' (x bytes, y bytes), and the queries.
    """
    manifest = external_manifest(tmp_path, **overrides)
    ((train, triples),) = _load_grid_data(manifest)
    queries = [q for _, q, _ in triples] + [Query(np.array([-0.7, 1.1]), 0.4)]
    n_queries = len(queries)
    fits, loos = Counter(), Counter()
    for name in ("fit_ols", "fit_lasso", "fit_kernel"):
        engine = getattr(regress, name)

        def counting(d, *args, _engine=engine, _name=name, **kwargs):
            fits[_name, d.x.tobytes(), d.y.tobytes()] += 1
            return _engine(d, *args, **kwargs)

        monkeypatch.setattr(regress, name, counting)

    def counting_loo(x, y, model):
        loos[model.kind, x.tobytes(), y.tobytes()] += 1
        return regress.loo_residuals(x, y, model)

    for module in (runner, conformal):
        monkeypatch.setattr(module, "loo_residuals", counting_loo)
    # every query trains on the same rows
    monkeypatch.setattr(
        runner,
        "_load_grid_data",
        lambda m: [(train, [(k, q, str(k)) for k, q in enumerate(queries)])],
    )
    run_grid(manifest)
    return fits, loos, (train.x.tobytes(), train.y.tobytes()), queries


class TestRunGrid:
    @pytest.mark.parametrize(
        "suite, n_groups, n_queries", [("small", 1, 3), ("long", 3, 15), ("external-csv", 1, 2)]
    )
    def test_grid_data_groups_each_training_set_with_its_queries(
        self, tmp_path, suite, n_groups, n_queries
    ):
        # one group per training set, holding the queries 0 ... Q-1 once
        # each and in order, each with the rows it trains on
        if suite == "external-csv":
            manifest = external_manifest(tmp_path)
            train = load_csv(manifest.train_csv, head_column="y")
            qd = load_csv(manifest.queries_csv, head_column="y0")
            expected = [(train, Query(x0, y0)) for x0, y0 in zip(qd.x, qd.y)]
        else:
            manifest = RunManifest(suite=suite, seed=3)
            out = SUITES[suite](manifest.seed)
            # small pools every block's rows; long trains on the query's block
            labels = np.asarray(out.setting_labels)
            expected = [
                (
                    out.dataset if suite == "small"
                    else out.dataset.subset(np.flatnonzero(labels == lab)),
                    q,
                )
                for q, lab in zip(out.queries, out.query_labels)
            ]
        groups = _load_grid_data(manifest)
        assert len(groups) == n_groups
        assert len({(d.x.tobytes(), d.y.tobytes()) for d, _ in groups}) == n_groups
        flat = [(i, d, q) for d, queries in groups for i, q, _ in queries]
        assert [i for i, _, _ in flat] == list(range(n_queries)) == list(range(len(expected)))
        for (_, d, q), (want_d, want_q) in zip(flat, expected):
            np.testing.assert_array_equal(d.x, want_d.x)
            np.testing.assert_array_equal(d.y, want_d.y)
            np.testing.assert_array_equal(q.x0, want_q.x0)
            assert q.y0 == want_q.y0

    def test_output_structure(self, tmp_path):
        manifest = external_manifest(tmp_path)
        written = run_grid(manifest)
        assert sorted(written) == [
            "manifest",
            "plotdata",
            "raw_cosine",
            "raw_percentile",
            "summary_cosine",
            "summary_percentile",
        ]

        raw = read_lines(written["raw_percentile"])
        assert raw[0].startswith("# version=")
        assert raw[1] == f"# seed={manifest.seed}"
        assert raw[2] == f"# config_hash={manifest.config_hash()}"
        labels = [line.split(",")[0] for line in raw[4:]]
        assert labels == [
            "y0",
            "pred", "predr", "predrs", "predl", "predlr", "predlrs",
            "lo", "lor", "lors", "lol", "lolr", "lolrs",
            "up", "upr", "uprs", "upl", "uplr", "uplrs",
        ]
        header = raw[3].split(",")
        assert header[0] == "variable"
        assert len(header) == 1 + 3 * 2  # three methods x two queries

        summary = read_lines(written["summary_cosine"])
        assert summary[3] == "label,General,Conformal,Split,Jackknife"
        labels = [line.split(",")[0] for line in summary[4:]]
        assert labels == [f + v for f in METRIC_FAMILIES for v in VARIANT_ORDER]
        assert len(labels) == 36

        plot = read_lines(written["plotdata"])
        # 2 sims x 2 queries x 3 regressors x 3 methods x 3 paths
        assert len(plot) == 3 + 1 + 2 * 2 * 3 * 3 * 3

    def test_every_raw_cell_is_a_number(self, tmp_path):
        written = run_grid(external_manifest(tmp_path))
        for name in ("raw_percentile", "raw_cosine"):
            for line in read_lines(written[name])[4:]:
                cells = line.split(",")[1:]
                assert all(c != "" for c in cells)
                [float(c) for c in cells]

    @pytest.mark.parametrize(
        "tails, names",
        [(np.ones((2, 3)), ("x1", "x2", "x3")), (np.ones((2, 2)), ("x2", "x1"))],
        ids=["three_features", "names_swapped"],
    )
    def test_external_queries_must_match_training_features(self, tmp_path, tails, names):
        manifest = external_manifest(tmp_path)
        save_csv(Dataset(tails, np.zeros(2), names, "y0"), manifest.queries_csv)
        with pytest.raises(DataError, match="do not match training features"):
            run_grid(manifest)

    def test_rerun_is_byte_identical(self, tmp_path):
        manifest = external_manifest(tmp_path)
        first = run_grid(manifest)
        second = run_grid(replace(manifest, output_dir=str(tmp_path / "out2")))
        for name in sorted(first):
            if name == "manifest":
                continue  # records output_dir, which differs by design
            a = Path(first[name]).read_bytes()
            b = Path(second[name]).read_bytes()
            assert a == b, f"{name} differs across re-runs"

    def test_restricted_reordered_grid(self, tmp_path):
        # manifest order, not the default order, sets the plotdata rows; the
        # raw tables keep all 19 rows and leave the cells the run skipped
        # blank; and `relconf score` reproduces the summaries from plotdata
        sims, regs, methods = ("cosine", "percentile"), ("kernel", "ols"), ("jackknife", "full")
        manifest = external_manifest(
            tmp_path, similarities=sims, regressors=regs, methods=methods
        )
        written = run_grid(manifest)
        lines = read_lines(written["plotdata"])
        header = lines[3].split(",")
        keys = ("similarity", "query", "regressor", "method", "path")
        rows = [dict(zip(header, line.split(","))) for line in lines[4:]]
        assert [tuple(row[k] for k in keys) for row in rows] == [
            (sim, str(k + 1), reg, method, path.value)
            for sim in sims
            for k in range(2)
            for reg in regs
            for method in methods
            for path in IntervalPath
        ]

        lasso = {
            prefix + variant_code(Regressor.LASSO, path)
            for prefix in ("pred", "lo", "up")
            for path in IntervalPath
        }
        for sim in sims:
            raw = read_lines(written[f"raw_{sim}"])
            columns = raw[3].split(",")[1:]
            assert len(raw) == 3 + 1 + 19
            for line in raw[4:]:
                label, *cells = line.split(",")
                for column, cell in zip(columns, cells):
                    blank = label != "y0" and (label in lasso or column.startswith("Split_"))
                    assert (cell == "") == blank, (sim, label, column)

        rescored = tmp_path / "rescored"
        assert cli.main(["score", "--in", written["plotdata"], "--out", str(rescored)]) == 0
        for sim in sims:
            summary = Path(written[f"summary_{sim}"])
            assert (rescored / summary.name).read_bytes() == summary.read_bytes()

    def test_plotdata_consistent_with_intervals(self, tmp_path):
        written = run_grid(external_manifest(tmp_path))
        lines = read_lines(written["plotdata"])
        header = lines[3].split(",")
        for line in lines[4:]:
            row = dict(zip(header, line.split(",")))
            lo, up, point, y0 = (float(row[k]) for k in ("lo", "up", "point", "y0"))
            assert lo <= up
            assert row["covered"] == str(int(lo <= y0 <= up))
            assert float(row["residual"]) == pytest.approx(y0 - point, abs=1e-12)
            assert row["degenerate"] in ("0", "1")

    def test_long_suite_trains_per_block(self, tmp_path):
        manifest = RunManifest(
            suite="long",
            output_dir=str(tmp_path / "out"),
            regressors=(Regressor.OLS,),
            methods=(ConformalMethod.SPLIT,),
            similarities=(Similarity.PERCENTILE,),
            seed=2,
        )
        written = run_grid(manifest)
        plot = read_lines(written["plotdata"])
        assert len(plot) == 3 + 1 + 15 * 3  # 15 queries x 3 paths
        labels = {line.split(",")[2] for line in plot[4:]}
        assert labels == {"DGP_1", "DGP_2", "DGP_3"}

    def test_config_hash_ignores_timestamp_and_output_dir(self):
        # every CSV header carries the hash, and the golden file pins this one
        assert RunManifest(suite="small", seed=0).config_hash() == "f8189c1128c5"
        base = RunManifest(suite="external-csv", train_csv="t.csv", queries_csv="q.csv")
        changed = {
            "suite": "small",
            "train_csv": "t2.csv",
            "queries_csv": "q2.csv",
            "alpha": 0.2,
            "gamma": 0.8,
            "rho": 0.6,
            "noise_scale": 0.2,
            "min_relevant": 31,
            "seed": 1,
            "grid_points": 101,
            "grid_expansion": 0.5,
            "regressors": ("ols",),
            "methods": ("split",),
            "similarities": ("cosine",),
            "control_mode": "gaussian_mimic",
        }
        unhashed = {"output_dir": "elsewhere", "created": "2000-01-01T00:00:00+00:00"}
        assert set(changed) | set(unhashed) == {f.name for f in fields(RunManifest)}
        for name, value in changed.items():
            # a built-in suite takes no CSV paths
            paths = dict(train_csv=None, queries_csv=None) if name == "suite" else {}
            assert replace(base, **{name: value}, **paths).config_hash() != base.config_hash(), name
        for name, value in unhashed.items():
            assert replace(base, **{name: value}).config_hash() == base.config_hash(), name

    def test_manifest_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="suite"):
            RunManifest(suite="tiny")
        with pytest.raises(ConfigError, match="external-csv"):
            RunManifest(suite="external-csv")
        for suite in ("small", "long"):
            for name in ("train_csv", "queries_csv"):
                with pytest.raises(ConfigError, match=f"^{name} is read by the external-csv suite"):
                    RunManifest(suite=suite, **{name: "t.csv"})
        with pytest.raises(ConfigError, match="non-empty"):
            RunManifest(methods=())
        with pytest.raises(ConfigError, match="alpha"):
            RunManifest(alpha=2.0)
        with pytest.raises(ConfigError, match="grid_points"):
            RunManifest(grid_points=3)
        with pytest.raises(ConfigError, match="min_relevant"):
            RunManifest(min_relevant=1)
        with pytest.raises(ConfigError, match="noise_scale"):
            RunManifest(noise_scale=0.0)
        with pytest.raises(ConfigError, match="regressors lists 'ols' more than once"):
            RunManifest(regressors=("ols", "lasso", Regressor.OLS))
        with pytest.raises(ConfigError, match="methods lists 'split' more than once"):
            RunManifest(methods=("split", "split"))
        with pytest.raises(ConfigError, match="similarities lists 'cosine' more than once"):
            RunManifest(similarities=("cosine", "percentile", "cosine"))

    def test_manifest_reads_a_bare_name_as_one_choice(self):
        # a str is iterable: read one character at a time, "ols" would be
        # the choices "o", "l", "s"
        bare = RunManifest(regressors="ols", methods=ConformalMethod.FULL)
        assert bare.regressors == (Regressor.OLS,)
        assert bare.methods == (ConformalMethod.FULL,)
        listed = RunManifest(regressors=("ols",), methods=("full",))
        assert bare.config_hash() == listed.config_hash()

    @pytest.mark.parametrize(
        "knobs",
        [{}, {"min_relevant": 2, "rho": 0.9}],
        ids=["default_floor", "four_floors"],
    )
    def test_grid_cells_reproduce_in_isolation(self, tmp_path, knobs):
        # every plotdata row equals its cell run alone through run_algorithm1
        manifest = external_manifest(tmp_path, **knobs)
        lines = read_lines(run_grid(manifest)["plotdata"])
        header = lines[3].split(",")
        trained_on = {
            qidx: (d, q) for d, queries in _load_grid_data(manifest) for qidx, q, _ in queries
        }
        alone = {}
        for line in lines[4:]:
            row = dict(zip(header, line.split(",")))
            qidx = int(row["query"]) - 1
            key = (qidx, row["similarity"], row["regressor"], row["method"])
            if key not in alone:
                cfg = manifest.base_config(row["regressor"], row["similarity"], row["method"])
                alone[key] = dict(zip(IntervalPath, run_algorithm1(
                    *trained_on[qidx], cfg, qidx, manifest.control_mode
                )))
            iv = alone[key][IntervalPath(row["path"])]
            for k in ("point", "lo", "up"):
                assert row[k] == repr(getattr(iv, k))
            assert row["degenerate"] == str(int(iv.degenerate))
        assert len(alone) == 2 * 2 * 3 * 3

    def test_grid_shares_each_query_standard_interval_and_neighbourhood(
        self, tmp_path, monkeypatch
    ):
        # min_relevant=2 and rho=0.9 give four selection floors per query:
        # 2 (full), 3 (jackknife), 5 (LASSO full and jackknife), 11 (split)
        manifest = external_manifest(tmp_path, min_relevant=2, rho=0.9)
        groups = _load_grid_data(manifest)
        standard = Counter()
        selections = []  # (query tail, similarity, floor, selection) per select call
        controlled = []  # the selection's indices behind each simulate_controls call

        def counting_interval(d, reg, x0, spec, seed=0, base=None, scores=None):
            if any(d is full for full, _ in groups):
                standard[seed, Regressor(reg), spec.method] += 1
            return conformal_interval(d, reg, x0, spec, seed=seed, base=base, scores=scores)

        def counting_select(d, x0, method, alpha, gamma, min_relevant=30):
            rel = select(d, x0, method, alpha, gamma, min_relevant)
            selections.append((x0.tobytes(), Similarity(method), min_relevant, rel))
            return rel

        def counting_controls(d, indices, noise_scale, mode, seed):
            controlled.append(indices)
            return simulate_controls(d, indices, noise_scale, mode=mode, seed=seed)

        monkeypatch.setattr(runner, "_load_grid_data", lambda m: groups)
        monkeypatch.setattr(runner, "conformal_interval", counting_interval)
        monkeypatch.setattr(runner, "select", counting_select)
        monkeypatch.setattr(runner, "simulate_controls", counting_controls)
        run_grid(manifest)

        assert sorted(standard.values()) == [1] * (2 * 3 * 3)
        expected = {
            (q.x0.tobytes(), sim, _setup(d, q, manifest.base_config(reg, sim, method))[1])
            for d, queries in groups
            for _, q, _ in queries
            for sim in manifest.similarities
            for reg in manifest.regressors
            for method in manifest.methods
        }
        assert len(expected) == 2 * 2 * 4
        assert sorted(key[:3] for key in selections) == sorted(expected)
        assert [id(sources) for sources in controlled] == [id(key[3].indices) for key in selections]

    def test_grid_fits_each_path_once_for_full_and_jackknife(self, tmp_path, monkeypatch):
        # full conformal and the jackknife on one path's rows start from one
        # base fit, and split fits its own part of them: with one floor per
        # similarity a query has 5 paths (standard, and relevant and
        # simulated per similarity), each fit once for split and once for
        # the other two methods, per regressor. The kernel's full conformal
        # also refits once on the path's rows and the query tail, whose
        # bandwidth serves every candidate head. Neither OLS's nor the
        # kernel's fit reads the seed, so their standard base fit and
        # leave-one-out residuals are made once for all queries on the
        # training set; LASSO's base fit draws its folds from each query's
        # seed, so it is made once per query
        fits, loos, full, queries = count_grid_fits(tmp_path, monkeypatch)
        n_queries = len(queries)
        assert {key[0]: n for key, n in fits.items() if key[1:] == full} == {
            "fit_ols": 1, "fit_kernel": 1, "fit_lasso": n_queries
        }
        assert {key[0]: n for key, n in loos.items() if key[1:] == full} == {
            Regressor.OLS: 1, Regressor.KERNEL: 1, Regressor.LASSO: n_queries
        }
        paths = fits.keys() - {(name, *full) for name in ("fit_ols", "fit_lasso", "fit_kernel")}
        assert {fits[key] for key in paths} == {1}
        assert {n for key, n in loos.items() if key[1:] != full} == {1}
        refits = {key for key in paths if any(key[1].endswith(q.x0.tobytes()) for q in queries)}
        assert Counter(name for name, _, _ in refits) == {"fit_kernel": 5 * n_queries}
        # per query: split on all 5 paths and a base fit on the 4 relevant
        # and simulated paths
        assert Counter(name for name, _, _ in paths - refits) == {
            name: (5 + 4) * n_queries for name in ("fit_ols", "fit_lasso", "fit_kernel")
        }
        # the jackknife on the 4 relevant and simulated paths, per query
        assert Counter(kind for kind, *rows in loos if tuple(rows) != full) == {
            reg: 4 * n_queries for reg in Regressor
        }

    @pytest.mark.parametrize("method", ["full", "jackknife"])
    def test_grid_of_one_method_shares_the_standard_fits(self, tmp_path, monkeypatch, method):
        # a grid of one method still fits OLS and the kernel once on the
        # training rows for all queries; only the jackknife takes their
        # leave-one-out residuals there, once per engine
        fits, loos, full, queries = count_grid_fits(tmp_path, monkeypatch, methods=(method,))
        assert len(queries) >= 3
        assert {key[0]: n for key, n in fits.items() if key[1:] == full} == {
            "fit_ols": 1, "fit_kernel": 1, "fit_lasso": len(queries)
        }
        on_full = {key[0]: n for key, n in loos.items() if key[1:] == full}
        if method == "full":
            assert on_full == {}
        else:
            assert on_full == {
                Regressor.OLS: 1, Regressor.KERNEL: 1, Regressor.LASSO: len(queries)
            }
