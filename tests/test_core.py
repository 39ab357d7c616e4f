"""Container validation, CSV round-trips, and standardization behavior."""

import re
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from relconf.conformal import ConformalSpec, conformal_interval
from relconf.core import (
    ConfigError,
    ConformalMethod,
    DataError,
    Dataset,
    ExperimentConfig,
    PredictionInterval,
    Query,
    load_csv,
    save_csv,
    subseed,
    check_knob,
    transform_features,
    _KNOB_RULES,
    _standardize_columns,
)
from relconf.dgp import gen_small
from relconf.evaluate import variant_code
from relconf.individualize import (
    RelevanceSelection,
    select,
    simulate_controls,
)
from relconf.regress import (
    FittedModel,
    fit,
    fit_kernel,
    fit_lasso,
    min_fit_rows,
    predict,
    predict_many,
)
from relconf.runner import RunManifest

# every dataclass whose integer knobs ``check_knobs`` converts
KNOB_OWNERS = {
    "ExperimentConfig": ExperimentConfig,
    "RunManifest": RunManifest,
    "ConformalSpec": partial(ConformalSpec, "full"),
}


class TestDataset:
    def test_shapes_and_defaults(self):
        d = Dataset(np.arange(6.0).reshape(3, 2), [1.0, 2.0, 3.0])
        assert (d.n, d.p) == (3, 2)
        assert d.feature_names == ("x1", "x2")
        assert d.head_name == "y"

    def test_arrays_are_immutable(self):
        d = Dataset(np.ones((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            d.x[0, 0] = 5.0
        with pytest.raises(ValueError):
            d.y[0] = 5.0

    def test_row_mismatch_rejected(self):
        with pytest.raises(DataError, match="row mismatch"):
            Dataset(np.ones((3, 2)), np.ones(4))

    def test_non_finite_rejected(self):
        x = np.ones((2, 2))
        x[1, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            Dataset(x, np.ones(2))
        with pytest.raises(DataError, match="non-finite"):
            Dataset(np.ones((2, 2)), [1.0, np.inf])

    @pytest.mark.parametrize(
        "x, y, names, message",
        [
            (np.ones((2, 2, 2)), np.ones(2), (), "x must be 2-D, got ndim=3"),
            (np.ones((0, 2)), [], (), re.escape("n >= 1 and p >= 1, got shape (0, 2)")),
            (np.ones((3, 0)), np.ones(3), (), re.escape("n >= 1 and p >= 1, got shape (3, 0)")),
            (np.ones((3, 2)), np.ones(3), ("a",), "1 feature names for 2 columns"),
            (np.ones((3, 2)), np.ones(3), ("a", "a"), "feature name 'a' appears more than once"),
        ],
        ids=["three_axes", "no_rows", "no_columns", "names_short", "names_repeated"],
    )
    def test_shape_and_names_refused(self, x, y, names, message):
        with pytest.raises(DataError, match=message):
            Dataset(x, y, names)

    def test_subset_preserves_order(self):
        d = Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0), ("a", "b"), "h")
        s = d.subset([2, 0])
        np.testing.assert_array_equal(s.y, [2.0, 0.0])
        np.testing.assert_array_equal(s.x[0], d.x[2])
        assert not s.x.flags.writeable and not s.y.flags.writeable
        assert not np.shares_memory(s.x, d.x) and not np.shares_memory(s.y, d.y)
        assert (s.feature_names, s.head_name) == (("a", "b"), "h")
        # integer lists and arrays of any integer dtype, repeats allowed
        for rows in ([3, 1, 1], np.array([3, 1, 1]), np.array([3, 1, 1], dtype=np.uint8)):
            np.testing.assert_array_equal(d.subset(rows).y, [3.0, 1.0, 1.0])
        # np.asarray([]) is a float array: "no rows", not "non-integer"
        for rows in ([], np.array([], dtype=int)):
            with pytest.raises(DataError, match="selects no rows"):
                d.subset(rows)

    def test_subset_refuses_a_boolean_mask(self):
        # read as indices, [True, False, True] would be rows 1, 0, 1
        d = Dataset(np.arange(6.0).reshape(3, 2), np.arange(3.0))
        for mask in ([True, False, True], np.array([True, False, True])):
            with pytest.raises(DataError, match="boolean mask"):
                d.subset(mask)

    @pytest.mark.parametrize("rows", [[1.7], [-0.5], [0, 2.0], np.array([1.0])])
    def test_subset_refuses_non_integer_rows(self, rows):
        # truncated, 1.7 would be row 1 and -0.5 row 0
        d = Dataset(np.arange(6.0).reshape(3, 2), np.arange(3.0))
        with pytest.raises(DataError, match="integer row indices"):
            d.subset(rows)

    @pytest.mark.parametrize("rows", [np.arange(3)[:, None], 3], ids=["column", "scalar"])
    def test_subset_refuses_rows_that_are_not_one_dimensional(self, rows):
        # taken as they are, a (3, 1) array gives x of shape (3, 1, 2) and a
        # scalar gives x of shape (2,)
        d = Dataset(np.arange(8.0).reshape(4, 2), np.arange(4.0))
        message = re.escape(f"1-D array of row indices, got shape {np.shape(rows)}")
        with pytest.raises(DataError, match=message):
            d.subset(rows)

    @pytest.mark.parametrize("row", [-1, 3])
    def test_subset_refuses_rows_out_of_range(self, row):
        # -1 would wrap to the last row; 3 is one past the end
        d = Dataset(np.arange(6.0).reshape(3, 2), np.arange(3.0))
        with pytest.raises(DataError, match="out of range"):
            d.subset([0, row])
        with pytest.raises(DataError, match="out of range"):
            d.subset(np.array([row]))


class TestQuery:
    def test_head_optional(self):
        q = Query([1.0, 2.0])
        assert q.y0 is None
        assert q.p == 2

    def test_non_finite_tail_rejected(self):
        with pytest.raises(DataError):
            Query([1.0, np.nan])

    def test_non_finite_head_rejected(self):
        with pytest.raises(DataError):
            Query([1.0], y0=np.inf)

    def test_empty_tail_rejected(self):
        with pytest.raises(DataError, match="query tail is empty"):
            Query([])

    def test_tails_of_more_than_two_axes_rejected(self):
        # not flattened into one tail, nor read row by row along axis 1
        m = fit(Dataset(np.arange(20.0).reshape(10, 2), np.arange(10.0)), "ols")
        for call in (
            lambda: Query(np.ones((1, 1, 2))),
            lambda: predict_many(m, np.ones((2, 1, 2))),
        ):
            with pytest.raises(DataError, match="query tails must be 1-D or 2-D, got ndim=3"):
                call()


class TestRecordsHoldingArrays:
    def test_compare_and_hash_by_identity(self):
        # a generated __eq__ compares the arrays and raises on their
        # ambiguous truth value, and a generated __hash__ hashes them: the
        # records holding arrays are equal only to themselves
        d = Dataset(np.arange(20.0).reshape(10, 2), np.arange(10.0) % 3)
        pairs = {
            "Dataset": (d, d.subset(range(d.n))),
            "Query": (Query([1.0, 2.0]), Query([1.0, 2.0])),
            "FittedModel": (fit(d, "ols"), fit(d, "ols")),
            "RelevanceSelection": tuple(
                select(d, [1.0, 2.0], "percentile", 0.5, min_relevant=2) for _ in range(2)
            ),
            "SuiteOutput": (gen_small(0), gen_small(0)),
        }
        for name, (record, twin) in pairs.items():
            assert record == record, name
            assert (record == twin) is False, name
            assert record != twin, name
            assert len({record, record, twin}) == 2, name


class TestPredictionInterval:
    def test_length(self):
        iv = PredictionInterval(point=2.0, lo=1.0, up=4.0)
        assert iv.length == 3.0

    def test_inverted_bounds_rejected(self):
        with pytest.raises(DataError, match="inverted"):
            PredictionInterval(point=0.0, lo=1.0, up=0.0)

    @pytest.mark.parametrize(
        "field, value", [("point", np.nan), ("lo", -np.inf), ("up", np.inf), ("up", np.nan)]
    )
    def test_non_finite_field_rejected(self, field, value):
        bounds = dict(point=0.0, lo=-1.0, up=1.0)
        bounds[field] = value
        with pytest.raises(DataError, match=f"interval field {field} is not finite"):
            PredictionInterval(**bounds)


class TestExperimentConfig:
    def test_defaults(self):
        c = ExperimentConfig()
        assert (c.alpha, c.gamma, c.rho) == (0.1, 0.9, 0.5)
        assert c.noise_scale == 0.1
        assert c.min_relevant == 30

    @pytest.mark.parametrize("field,value", [
        ("alpha", 0.0), ("alpha", 1.0), ("gamma", -0.2), ("rho", 1.5),
    ])
    def test_unit_interval_bounds(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: value})

    def test_enum_coercion_from_strings(self):
        c = ExperimentConfig(regressor="lasso", method="full")
        assert c.regressor.value == "lasso"
        assert c.method is ConformalMethod.FULL

    def test_unknown_enum_value_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(regressor="ridge")

    @pytest.mark.parametrize("build", [
        lambda: ExperimentConfig(regressor="ridge"),
        lambda: ExperimentConfig(similarity="euclid"),
        lambda: ConformalSpec(method="bogus"),
        lambda: RunManifest(methods=("split", "bogus")),
        lambda: RunManifest(control_mode="bogus"),
    ], ids=["config_regressor", "config_similarity", "spec_method", "manifest_methods",
            "manifest_control_mode"])
    def test_unknown_enum_value_is_config_error_in_every_record(self, build):
        with pytest.raises(ConfigError, match="is not a valid"):
            build()


@pytest.mark.parametrize("owner", sorted(KNOB_OWNERS))
@pytest.mark.parametrize("value", [100.7, "100"])
def test_integer_knob_refuses_value_it_would_change(owner, value):
    build = KNOB_OWNERS[owner]
    with pytest.raises(ConfigError, match="grid_points"):
        build(grid_points=value)
    if owner != "ConformalSpec":
        with pytest.raises(ConfigError, match="min_relevant"):
            build(min_relevant=30.9 if isinstance(value, float) else "31")
    integral = build(grid_points=100.0)
    assert integral.grid_points == 100 and type(integral.grid_points) is int


@pytest.mark.parametrize(
    "raw", [None, "abc", [0.1], 1 + 2j], ids=["none", "text", "list", "complex"]
)
@pytest.mark.parametrize("name", sorted(_KNOB_RULES))
def test_knob_its_type_cannot_convert_is_a_config_error(name, raw):
    # not the bare TypeError or ValueError of the conversion
    kind = _KNOB_RULES[name][0].__name__
    with pytest.raises(ConfigError, match=re.escape(f"{name} must be of type {kind}, got {raw!r}")):
        check_knob(name, raw)


@pytest.mark.parametrize("build, message", [
    (lambda: RunManifest(alpha=None), "alpha must be of type float, got None"),
    (lambda: ExperimentConfig(seed="abc"), "seed must be of type int, got 'abc'"),
    (lambda: ConformalSpec("full", grid_points=[1]), "grid_points must be of type int, got [1]"),
    (lambda: ExperimentConfig(min_relevant=np.inf), "min_relevant must be of type int, got inf"),
    # a rule given only the other rule's knob has none of its own
    (
        lambda: select(Dataset(np.eye(3), np.zeros(3)), [1.0, 0.0, 0.0], "percentile", gamma=0.5),
        "alpha must be of type float, got None",
    ),
    (
        lambda: select(Dataset(np.eye(3), np.zeros(3)), [1.0, 0.0, 0.0], "cosine", 0.1, None, 2),
        "gamma must be of type float, got None",
    ),
], ids=[
    "manifest_alpha", "config_seed", "spec_grid_points", "config_min_relevant",
    "select_percentile_without_alpha", "select_cosine_without_gamma",
])
def test_knob_its_type_cannot_convert_is_refused_where_it_is_set(build, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build()


@pytest.fixture(scope="module")
def four():
    """A 4-feature dataset, its fit by each engine, and one spec per method."""
    rng = np.random.default_rng(40)
    d = Dataset(rng.normal(size=(40, 4)), rng.normal(size=40))
    return SimpleNamespace(
        d=d,
        fits={reg: fit(d, reg) for reg in ("ols", "lasso", "kernel")},
        spec={m: ConformalSpec(m, grid_points=25) for m in ("split", "full", "jackknife")},
    )


# two rows of two features hold the four entries of one 4-feature tail, but
# the tail rule reads them as two tails, which no single-tail entry point takes
TWO_ROWS = [[0.1, 0.2], [0.3, 0.4]]
TAIL = [0.1, 0.2, 0.3, 0.4]
TWO_ROW_CALLS = {
    "Query": lambda w: Query(TWO_ROWS),
    **{
        f"predict-{reg}": lambda w, reg=reg: predict(w.fits[reg], TWO_ROWS)
        for reg in ("ols", "lasso", "kernel")
    },
    **{
        f"conformal_interval-{m}": lambda w, m=m: conformal_interval(
            w.d, "ols", TWO_ROWS, w.spec[m]
        )
        for m in ("split", "full", "jackknife")
    },
    **{
        f"select-{sim}": lambda w, sim=sim: select(w.d, TWO_ROWS, sim, 0.2, 0.5, 10)
        for sim in ("percentile", "cosine")
    },
}
UNKNOWN_NAME_CALLS = {
    "fit": ("Regressor", lambda w: fit(w.d, "bogus")),
    "min_fit_rows": ("Regressor", lambda w: min_fit_rows("bogus")),
    "FittedModel": ("Regressor", lambda w: FittedModel(kind="bogus")),
    **{
        f"conformal_interval-{m}": (
            "Regressor",
            lambda w, m=m: conformal_interval(w.d, "bogus", TAIL, w.spec[m], base=w.fits["ols"]),
        )
        for m in ("split", "full", "jackknife")
    },
    "select": ("Similarity", lambda w: select(w.d, TAIL, "bogus", 0.2, 0.5, 10)),
    "simulate_controls": (
        "ControlMode",
        lambda w: simulate_controls(w.d, [0, 1], 0.1, mode="bogus"),
    ),
    "RelevanceSelection": ("Similarity", lambda w: RelevanceSelection([0, 1], "bogus", 1.0)),
    "variant_code-regressor": ("Regressor", lambda w: variant_code("bogus", "standard")),
    "variant_code-path": ("IntervalPath", lambda w: variant_code("ols", "bogus")),
}


@pytest.mark.parametrize("call, error, message", [
    *(
        pytest.param(call, DataError, "one query tail expected, got 2 rows", id=f"two_rows-{name}")
        for name, call in TWO_ROW_CALLS.items()
    ),
    *(
        pytest.param(call, ConfigError, f"'bogus' is not a valid {kind}", id=f"bogus-{name}")
        for name, (kind, call) in UNKNOWN_NAME_CALLS.items()
    ),
])
def test_every_entry_point_reads_its_input_through_one_rule(four, call, error, message):
    # the tail rule and the name rule live in core, one function each
    with pytest.raises(error, match=re.escape(message)):
        call(four)


class TestCsv:
    def test_load_basic(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
        d = load_csv(f, head_column="y")
        np.testing.assert_array_equal(d.y, [1.0, 4.0, 7.0])
        np.testing.assert_array_equal(d.x, [[2, 3], [5, 6], [8, 9]])
        assert d.feature_names == ("x1", "x2")

    def test_head_column_position_independent(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,resp,b\n1.0,10.0,2.0\n3.0,20.0,4.0\n")
        d = load_csv(f, head_column="resp")
        np.testing.assert_array_equal(d.y, [10.0, 20.0])
        np.testing.assert_array_equal(d.x, [[1, 2], [3, 4]])
        assert d.feature_names == ("a", "b")

    def test_comment_lines_skipped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("# generated\n# seed=7\ny,x1\n1.0,2.0\n3.0,4.0\n")
        d = load_csv(f, head_column="y")
        assert d.n == 2

    def test_nan_cell_error_names_row_and_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n1.0,2.0\n3.0,nan\n")
        with pytest.raises(DataError) as err:
            load_csv(f, head_column="y")
        assert "row 2" in str(err.value)
        assert "'x1'" in str(err.value)

    def test_non_numeric_cell_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n1.0,hello\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(f, head_column="y")

    def test_first_bad_cell_is_named(self, tmp_path):
        # the cells are parsed in one conversion; when it fails, the message
        # names the first bad cell in reading order, non-finite or not
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0,inf,x\n7.0,8.0,nan\n")
        with pytest.raises(DataError, match=r"non-finite cell 'inf' at data row 2, column 'x1'"):
            load_csv(f, head_column="y")
        f.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0, 5.0 ,x\n7.0,8.0,nan\n")
        with pytest.raises(DataError, match=r"non-numeric cell 'x' at data row 2, column 'x2'"):
            load_csv(f, head_column="y")

    def test_cells_parse_bit_equal_to_float(self, tmp_path):
        # surrounding spaces, exponents, signed zeros, digit separators and
        # the 17 significant digits of repr: each cell is the float that
        # float() reads from it
        rng = np.random.default_rng(12)
        texts = [" 1.5 ", "\t-2e-3", "1E+300", "-0.0", "+0", "4.9e-324", "1_000", ".5", "7."]
        texts += [repr(float(v)) for v in rng.normal(size=21) * 10.0 ** rng.integers(-200, 200, size=21)]
        rows = [texts[i : i + 3] for i in range(0, len(texts), 3)]
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n" + "".join(",".join(row) + "\n" for row in rows))
        d = load_csv(f, head_column="y")
        want = np.array([[float(t) for t in row] for row in rows])
        np.testing.assert_array_equal(d.y.view(np.uint64), want[:, 0].view(np.uint64))
        np.testing.assert_array_equal(d.x.view(np.uint64), want[:, 1:].view(np.uint64))

    def test_missing_head_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(f, head_column="y")

    def test_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n1.0,2.0\n")
        with pytest.raises(DataError, match="cells"):
            load_csv(f, head_column="y")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# only a comment\n\n", "no header row"),
            ("y,x1,y\n1.0,2.0,3.0\n", "head column 'y' appears more than once"),
            ("y,x,x\n1.0,2.0,3.0\n", "feature name 'x' appears more than once"),
            ("y\n1.0\n2.0\n", "no feature columns besides 'y'"),
            ("y,x1\n# no rows follow\n", "no data rows"),
        ],
        ids=["no_header", "head_twice", "feature_twice", "head_only", "header_only"],
    )
    def test_header_and_rows_refused(self, tmp_path, text, message):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(DataError, match=message):
            load_csv(f, head_column="y")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet exports start with a UTF-8 byte order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(plain, head_column="y"), load_csv(marked, head_column="y")
        np.testing.assert_array_equal(b.x, a.x)
        np.testing.assert_array_equal(b.y, a.y)
        assert (b.feature_names, b.head_name) == (a.feature_names, a.head_name)

    def test_undecodable_file_is_data_error(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(b"y,x1\n1.0,\xff\n")
        with pytest.raises(DataError, match="cannot read"):
            load_csv(f, head_column="y")

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        d = Dataset(rng.normal(size=(20, 3)) * 1e3, rng.normal(size=20) / 7.0)
        f = tmp_path / "rt.csv"
        save_csv(d, f, comments=["seed=11"])
        back = load_csv(f, head_column="y")
        np.testing.assert_array_equal(back.x, d.x)
        np.testing.assert_array_equal(back.y, d.y)
        assert back.feature_names == d.feature_names

    def test_save_is_deterministic(self, tmp_path):
        d = Dataset([[1.0, 2.0], [3.0, 4.0]], [0.5, 0.25])
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(d, f1)
        save_csv(d, f2)
        assert f1.read_bytes() == f2.read_bytes()


class TestStandardize:
    def test_known_column(self):
        z, centers, scales, _ = _standardize_columns(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(z.ravel(), [-1.0, 0.0, 1.0])
        assert centers[0] == 2.0
        assert scales[0] == 1.0  # sample std with n-1 denominator

    def test_constant_column_scale_one(self):
        x = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        z, centers, scales, _ = _standardize_columns(x)
        np.testing.assert_array_equal(z[:, 0], np.zeros(5))
        assert scales[0] == 1.0

    def test_constant_column_with_rounding_dust_stays_inactive(self):
        # thirty copies of 0.1 have a sample std of about 4e-17, not 0; a
        # scale that small would blow the query's 1e-7 offset in that
        # column up into the dominant feature. One entry one ulp above 0.1
        # spreads the column by less than the rounding error of its mean,
        # so that column is constant too.
        rng = np.random.default_rng(0)
        constant = np.column_stack([rng.normal(size=30), np.full(30, 0.1)])
        y = rng.normal(size=30)
        one_ulp = constant.copy()
        one_ulp[11, 1] = np.nextafter(0.1, 1.0)
        for x in (constant, one_ulp):
            d = Dataset(x, y)
            assert 0.0 < x[:, 1].std(ddof=1) < 1e-15
            _, _, scales, _ = _standardize_columns(d.x)
            assert scales[1] == 1.0
            x0 = np.array([1.5, 0.1000001])
            sel = select(d, x0, "percentile", 0.1, min_relevant=5)
            nearest = np.argsort(np.abs(x[:, 0] - 1.5))[:5]
            assert sorted(sel.indices) == sorted(nearest)
            dropped = predict(fit_kernel(Dataset(x[:, :1], d.y)), x0[:1])
            assert predict(fit_kernel(d), x0) == pytest.approx(dropped, rel=1e-12)

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(3)
        d = Dataset(rng.normal(5.0, 2.0, size=(40, 3)), np.zeros(40))
        z1 = _standardize_columns(d.x)[0]
        z2 = _standardize_columns(z1)[0]
        np.testing.assert_allclose(z2, z1, atol=1e-12)

    def test_transform_matches_training_rows(self):
        rng = np.random.default_rng(4)
        d = Dataset(rng.normal(size=(10, 2)), np.zeros(10))
        z, centers, scales, _ = _standardize_columns(d.x)
        np.testing.assert_allclose(
            transform_features(d.x, centers, scales), z, atol=1e-12
        )

    def test_inverse_recovers_original(self):
        rng = np.random.default_rng(5)
        d = Dataset(rng.normal(3.0, 7.0, size=(30, 4)), np.zeros(30))
        z, centers, scales, _ = _standardize_columns(d.x)
        np.testing.assert_allclose(z * scales + centers, d.x, atol=1e-10)

    @pytest.mark.parametrize(
        "make_x, detail",
        [
            # finite entries whose float mean overflows
            (
                lambda rng: np.where(rng.random((40, 2)) < 0.5, 1e308, 1.7e308),
                r"center inf, scale inf",
            ),
            # a finite mean whose sum of squared deviations overflows
            (
                lambda rng: np.column_stack([rng.normal(size=40) * 1e200, rng.normal(size=40)]),
                r"center -?\d\.\d+e\+199, scale inf",
            ),
            # a varying column whose squared deviations underflow to 0
            (
                lambda rng: np.column_stack([rng.normal(size=40) * 1e-170, rng.normal(size=40)]),
                r"center -?\d\.\d+e-171, scale 0\.0",
            ),
        ],
        ids=["mean_overflows", "spread_overflows", "spread_underflows"],
    )
    def test_unstandardizable_column_is_named(self, make_x, detail):
        # a column that cannot be standardized is refused by name, not
        # turned into NaN (an empty selection) or zeros (a dropped feature),
        # and its center and scale read as plain numbers
        x = make_x(np.random.default_rng(6))
        d = Dataset(x, np.arange(40.0))
        for call in (
            lambda: select(d, x[0], "percentile", 0.1, min_relevant=5),
            lambda: fit_kernel(d),
            lambda: fit_lasso(d, lam=0.01),
        ):
            with pytest.raises(DataError) as err:
                call()
            assert re.fullmatch(
                r"feature column 1 cannot be standardized: " + detail, str(err.value)
            ), str(err.value)


class TestSubseed:
    def test_deterministic(self):
        assert subseed(42, "conformal", 3) == subseed(42, "conformal", 3)

    def test_distinct_across_labels_and_indices(self):
        seeds = {
            subseed(42, "conformal", 0),
            subseed(42, "conformal", 1),
            subseed(42, "controls", 0),
            subseed(7, "conformal", 0),
        }
        assert len(seeds) == 4

    def test_fits_in_63_bits(self):
        for i in range(50):
            assert 0 <= subseed(123, "cv", i) < 2**63
