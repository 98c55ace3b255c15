"""Design construction, SVD least squares and law fitting."""

import ast
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compresslaw import regression
from compresslaw.errors import DomainError, SingularDesignError
from compresslaw.laws import CompressionLaw, MetricKind, RuntimeLaw, Table, _log_features
from compresslaw.regression import (
    DesignForm,
    ExperimentRecord,
    FeasibilityWarning,
    FitStatistics,
    build_design,
    fit_law,
    ols_fit,
)

L0S = (1.2, 2.0, 3.3, 5.0, 8.0)
RS = (0.1, 0.3, 0.5, 0.7, 0.9)
DS = (0.0, 1.0, 4.0, 25.0, 100.0, 1000.0, 10000.0, 25000.0)


def make_records(alpha, beta, gamma, metric, l0s=L0S, rs=RS, ds=DS, epsilon=1.0, noise=None):
    """Generate records straight from the log-linear form (the refit oracle)."""
    records = []
    i = 0
    for l0 in l0s:
        for r in rs:
            for d in ds:
                mu = alpha * math.log(l0) + beta * math.log1p(r) + gamma * math.log1p(1.0 / (d + epsilon))
                z = noise[i] if noise is not None else 0.0
                records.append(ExperimentRecord("m", metric, l0, r, d, math.exp(mu + z)))
                i += 1
    return records


class TestExperimentRecord:
    def test_valid(self):
        rec = ExperimentRecord("m", MetricKind.LOSS, 2.0, 0.0, 0.0, 3.0)
        assert rec.r == 0.0 and rec.d == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(l0=0.0),
            dict(l=-1.0),
            dict(r=1.0),
            dict(r=-0.2),
            dict(d=-3.0),
            dict(l0=math.nan),
            dict(l=math.inf),
        ],
    )
    def test_invalid(self, kwargs):
        base = dict(model_id="m", metric=MetricKind.LOSS, l0=2.0, r=0.5, d=1.0, l=3.0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            ExperimentRecord(**base)


class TestBuildDesign:
    def test_full_columns(self):
        records = make_records(1.0, 0.0, 0.0, MetricKind.LOSS, l0s=(math.e,), rs=(0.0, 0.5), ds=(0.0, 1e15))
        x, y = build_design(records)
        # first row: l0 = e, r = 0, d huge -> [1, 0, ~0]
        assert x[1] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert y[0] == pytest.approx(math.log(records[0].l))

    def test_log2_entry_at_origin(self):
        records = [ExperimentRecord("m", MetricKind.LOSS, 1.0, 0.0, 0.0, 2.0)] + make_records(
            1.0, 1.0, 1.0, MetricKind.LOSS, l0s=(2.0,), rs=(0.2, 0.4), ds=(0.0, 3.0)
        )
        x, _ = build_design(records, epsilon=1.0)
        # l0 = 1, r = 0, d = 0 -> row [0, 0, log 2]
        assert x[0] == pytest.approx([0.0, 0.0, math.log(2.0)], abs=1e-15)

    def test_runtime_has_intercept_column(self):
        records = make_records(0.0, -0.67, 0.0, MetricKind.RUNTIME, l0s=(100.0,), rs=(0.1, 0.5, 0.9), ds=(0.0,))
        x, _ = build_design(records, form=DesignForm.RUNTIME)
        assert x.shape == (3, 2)
        assert (x[:, 0] == 1.0).all()

    @pytest.mark.parametrize("metric", [MetricKind.LOSS, MetricKind.ACCURACY])
    def test_the_runtime_form_fits_runtime_records_only(self, metric):
        records = make_records(0.5, 1.0, 1.0, metric)
        message = f"^the runtime form fits runtime records, got {metric.value} records$"
        for fit in (build_design, fit_law):
            with pytest.raises(DomainError, match=message):
                fit(records, form=DesignForm.RUNTIME)
            with pytest.raises(DomainError, match=message):
                fit(Table.of(ExperimentRecord, records), form=DesignForm.RUNTIME)
        # A compression form on runtime records stays a fit, as the registry accepts such laws.
        runtime = make_records(0.5, 1.0, 1.0, MetricKind.RUNTIME)
        assert fit_law(runtime, form=DesignForm.RATIO_ONLY).metric is MetricKind.RUNTIME

    def test_mixed_metrics_rejected(self):
        records = make_records(1.0, 1.0, 1.0, MetricKind.LOSS)
        records[0] = ExperimentRecord("m", MetricKind.ACCURACY, 2.0, 0.1, 0.0, 1.0)
        with pytest.raises(DomainError, match="mix"):
            build_design(records)

    def test_too_few_records(self):
        records = make_records(1.0, 1.0, 1.0, MetricKind.LOSS, l0s=(2.0,), rs=(0.1,), ds=(0.0, 1.0, 2.0))
        with pytest.raises(DomainError, match="at least 4"):
            build_design(records)

    def test_bad_epsilon(self):
        records = make_records(1.0, 1.0, 1.0, MetricKind.LOSS)
        with pytest.raises(DomainError):
            build_design(records, epsilon=0.0)

    def test_an_overflowing_rft_feature_is_rejected(self):
        """At ``d = 0`` a subnormal epsilon makes ``1/(d + epsilon)`` overflow, and its log is inf."""
        records = make_records(1.0, 1.0, 1.0, MetricKind.LOSS)
        with pytest.raises(DomainError, match="log transform produced non-finite design entries"):
            fit_law(records, epsilon=1e-320)


ANY_RECORD = st.builds(
    ExperimentRecord,
    model_id=st.text(max_size=3),
    metric=st.just(MetricKind.LOSS),
    l0=st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
    r=st.one_of(st.just(-0.0), st.floats(0, 1, exclude_max=True)),
    d=st.one_of(st.sampled_from([0.0, 5e-324, 1e300]), st.floats(0, 1e308)),
    l=st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
)


class TestRecordTable:
    RECORDS = [
        ExperimentRecord("a", MetricKind.LOSS, 2.0, 0.5, 0.0, 6.9),
        ExperimentRecord("b", MetricKind.ACCURACY, 0.6, 0.1, 25.0, 0.55),
        ExperimentRecord("c", MetricKind.RUNTIME, 100.0, 0.9, 0.0, 76.2),
    ]

    def test_is_a_read_only_sequence_of_records(self):
        batch = Table.of(ExperimentRecord, self.RECORDS)
        assert len(batch) == 3
        assert list(batch) == self.RECORDS
        assert batch[1] == self.RECORDS[1] and batch[-1] == self.RECORDS[-1]
        assert type(batch[0].l0) is float
        assert batch[1:] == self.RECORDS[1:] and isinstance(batch[1:], Table)
        assert batch.index(self.RECORDS[2]) == 2
        with pytest.raises(IndexError):
            batch[3]
        with pytest.raises(TypeError):
            batch.columns[2][0] = 1.0

    def test_equality(self):
        batch = Table.of(ExperimentRecord, self.RECORDS)
        assert batch == self.RECORDS and self.RECORDS == batch
        assert batch == Table.of(ExperimentRecord, list(batch))
        assert batch != self.RECORDS[:2] and batch != self.RECORDS[::-1]
        assert batch != Table.of(ExperimentRecord, self.RECORDS[::-1])
        assert batch != "abc" and batch != 3

    @given(records=st.lists(ANY_RECORD, min_size=4, max_size=12), epsilon=st.floats(1e-300, 1e300))
    def test_design_from_a_batch_equals_the_design_from_its_records(self, records, epsilon):
        batch = Table.of(ExperimentRecord, records)
        # The runtime form fits runtime records only: it is given the same records as runtime records.
        runtime = Table(ExperimentRecord, [batch.columns[0], (MetricKind.RUNTIME,) * len(batch), *batch.columns[2:]])
        for form in DesignForm:
            table = runtime if form is DesignForm.RUNTIME else batch
            x, y = build_design(table, epsilon=epsilon, form=form)
            x_list, y_list = build_design(list(table), epsilon=epsilon, form=form)
            assert x.tobytes() == x_list.tobytes() and y.tobytes() == y_list.tobytes()
        assert y.tolist() == [math.log(rec.l) for rec in records]


FEATURE_VALUES = {
    "l0": st.one_of(
        st.sampled_from([5e-324, 1e-300, 1.0, 1.7976931348623157e308]), st.floats(0.0, 1e308, exclude_min=True)
    ),
    "r": st.one_of(st.sampled_from([-0.0, 0.0, 5e-324]), st.floats(0.0, 1.0, exclude_max=True)),
    "d": st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, 1e300, 1.7976931348623157e308]), st.floats(0.0, 1e308)),
}


class TestDesignKernel:
    """``build_design``'s ``X`` is :func:`_log_features` row by row, bit for bit, on columns short enough to be
    mapped value by value and long enough to be mapped once per distinct value."""

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), epsilon=st.one_of(st.just(1.0), st.floats(1e-300, 1e300)))
    @pytest.mark.parametrize("repeated", [True, False], ids=["mostly repeated", "all distinct"])
    @pytest.mark.parametrize("n", [45, 100_000])
    def test_rows_are_log_features_bit_for_bit(self, data, epsilon, n, repeated):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        columns = []
        for name, values in FEATURE_VALUES.items():
            pool = np.array(data.draw(st.lists(values, min_size=1, max_size=6)) + [-0.0, 0.0] * (name != "l0"))
            if repeated:
                column = pool[rng.integers(0, len(pool), n)]
            else:  # the pool, then distinct values
                tail = np.linspace(0.0, 0.999, n) if name == "r" else np.cumsum(rng.uniform(1e-3, 1.0, n))
                column = np.concatenate([pool, tail])[:n]
            columns.append(column)
        observed = rng.uniform(1e-3, 1e3, n)
        floats = [memoryview(column).toreadonly() for column in (*columns, observed)]
        batch = Table(ExperimentRecord, [("m",) * n, (MetricKind.LOSS,) * n, *floats])
        x, y = build_design(batch, epsilon=epsilon)
        expected = np.array([_log_features(l0, r, d, epsilon) for l0, r, d in zip(*(c.tolist() for c in columns))])
        assert x.tobytes() == expected.tobytes()  # tells -0.0 from 0.0, which == does not
        # The bits of x @ coef depend on the layout too, which tobytes() does not show.
        assert x.flags.c_contiguous
        # y is math.log row by row: np.log differs from it in the last bit on some values.
        assert y.tobytes() == np.array(list(map(math.log, observed.tolist()))).tobytes()


class TestOlsFit:
    def test_exact_small_system(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = x @ np.array([2.0, -3.0])
        coef, stats = ols_fit(x, y)
        assert coef == pytest.approx([2.0, -3.0], abs=1e-12)
        assert stats.r_squared == pytest.approx(1.0)
        assert stats.residual_std == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_self_consistency(self):
        records = make_records(0.63, 1.72, 1.16, MetricKind.LOSS)
        x, y = build_design(records)
        coef, _ = ols_fit(x, y)
        assert coef == pytest.approx([0.63, 1.72, 1.16], abs=1e-8)

    def test_noisy_recovery_and_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        records = make_records(0.63, 1.72, 1.16, MetricKind.LOSS, ds=DS + (5e4, 1e5, 5e5, 1e6,
                               2.0, 8.0, 16.0, 50.0, 250.0, 500.0, 2500.0, 5000.0),
                               noise=rng.normal(0, 0.05, 500))
        assert len(records) == 500
        x, y = build_design(records)
        coef, stats = ols_fit(x, y)
        assert coef == pytest.approx([0.63, 1.72, 1.16], abs=0.05)
        # independent route: normal equations
        reference = np.linalg.solve(x.T @ x, x.T @ y)
        assert coef == pytest.approx(reference, abs=1e-8)
        assert 0.0 <= stats.r_squared <= 1.0

    def test_a_response_orthogonal_to_the_design_has_r_squared_0(self):
        # Rounding can put the raw 1 - SSR/TSS of such a fit just below 0 (in ~1 of 10 of these designs).
        rng = np.random.default_rng(2024)
        for _ in range(200):
            x = rng.normal(size=(6, 2))
            y = np.linalg.qr(x, mode="complete")[0][:, 2:] @ rng.normal(size=4)
            _, stats = ols_fit(x, y)
            assert 0.0 <= stats.r_squared < 1e-12

    def test_a_spread_within_rounding_of_a_runtime_response_is_0(self):
        """A centred sum of squares below ``(n * p * eps)**2 * sum(y**2)`` is rounding: nothing is left to explain,
        and the exact fit has R^2 1.  This one is about half that threshold, and above ``(n * eps)**2 * sum(y**2)``."""
        x = np.column_stack([np.ones(5), np.log1p(np.linspace(0.05, 0.95, 5))])
        y = np.array([1.5] * 4 + [1.5 + 27 * math.ulp(1.5)])
        tss, sum_y2 = float(((y - y.mean()) ** 2).sum()), float((y * y).sum())
        assert (5 * math.ulp(1.0)) ** 2 * sum_y2 < tss < (5 * 2 * math.ulp(1.0)) ** 2 * sum_y2 / 1.5
        _, stats = ols_fit(x, y, DesignForm.RUNTIME)
        assert (stats.r_squared, stats.f_statistic) == (1.0, math.inf)

    def test_a_small_real_spread_of_a_runtime_response_is_fitted(self):
        """R^2 of a runtime response ``c + 1e-9 * v`` is that of ``c + v``: a real spread is not rounding, however
        small against ``c``."""
        x = np.column_stack([np.ones(5), np.log1p(np.linspace(0.05, 0.95, 5))])
        v = np.array([0.1, 0.5, 0.2, 0.9, 0.7])
        spread = ols_fit(x, 4.6 + v, DesignForm.RUNTIME)[1].r_squared
        assert 0.01 < spread < 0.99
        assert ols_fit(x, 4.6 + 1e-9 * v, DesignForm.RUNTIME)[1].r_squared == pytest.approx(spread, rel=1e-5)

    def test_singular_design_names_columns(self):
        x = np.column_stack([np.arange(1.0, 7.0), 2.0 * np.arange(1.0, 7.0)])
        with pytest.raises(SingularDesignError, match="x0.*x1|collinear"):
            ols_fit(x, x[:, 0])

    def test_form_must_match_columns(self):
        x = np.column_stack([np.ones(6), np.arange(1.0, 7.0), np.arange(1.0, 7.0) ** 2])
        with pytest.raises(DomainError, match="runtime form has 2 columns"):
            ols_fit(x, x[:, 1], form=DesignForm.RUNTIME)

    def test_rows_must_exceed_columns(self):
        with pytest.raises(DomainError):
            ols_fit(np.eye(3), np.ones(3))

    @pytest.mark.parametrize("x, y, form, error, message", [
        (np.ones((6, 2)), np.ones(5), None, DomainError, r"incompatible shapes X\(6, 2\), y\(5,\)"),
        (np.ones((6, 2)), np.ones((6, 1)), None, DomainError, r"incompatible shapes X\(6, 2\), y\(6, 1\)"),
        (np.column_stack([np.arange(1.0, 7.0), np.zeros(6)]), np.arange(1.0, 7.0), DesignForm.RATIO_ONLY,
         SingularDesignError, r"\(cond = inf\); column\(s\) \['log_ratio'\] are numerically zero"),
        (np.column_stack([np.ones(6), np.zeros(6)]), np.arange(1.0, 7.0), DesignForm.RUNTIME,
         SingularDesignError, r"column\(s\) \['log_ratio'\] are numerically zero"),
        (np.ones((6, 0)), np.ones(6), None, DomainError, "the design has no columns"),
        (np.column_stack([np.arange(1.0, 7.0), [1.0, 2.0, math.nan, 4.0, 5.0, 6.0]]), np.arange(1.0, 7.0), None,
         DomainError, "design entries must be finite"),
        (np.column_stack([np.arange(1.0, 7.0), np.arange(1.0, 7.0) ** 2]), [1.0, 2.0, math.inf, 4.0, 5.0, 6.0],
         None, DomainError, "design entries must be finite"),
    ], ids=["rows", "y not a vector", "zero column", "zero runtime column", "no columns", "nan in X", "inf in y"])
    def test_a_problem_it_cannot_solve_is_named(self, x, y, form, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            with pytest.raises(error, match=message):
                ols_fit(x, y, form=form)


def _exact_least_squares(x, y):
    """The least-squares solution of the float design, in exact rational arithmetic: Gauss-Jordan on the normal
    equations, which are exact in fractions."""
    p = x.shape[1]
    rows = [[Fraction(value) for value in row] for row in x.tolist()]
    ys = [Fraction(value) for value in y.tolist()]
    system = [[sum(row[i] * row[j] for row in rows) for j in range(p)]
              + [sum(row[i] * value for row, value in zip(rows, ys))] for i in range(p)]
    for c in range(p):
        pivot = next(r for r in range(c, p) if system[r][c])
        system[c], system[pivot] = system[pivot], system[c]
        for r in range(p):
            if r != c and system[r][c]:
                factor = system[r][c] / system[c][c]
                system[r] = [a - factor * b for a, b in zip(system[r], system[c])]
    return [system[i][p] / system[i][i] for i in range(p)]


def _near_collinear_designs(count, seed=0):
    """Designs of 4-60 rows and 1-3 columns with cond(X) up to 1e7: the second column is a multiple of the first
    plus a perturbation of 10^-7.5 to 1 of its size.  ``y`` is ``X b`` plus noise of 10^-12 to 1, or none."""
    rng = np.random.default_rng(seed)
    designs = []
    while len(designs) < count:
        n, p = int(rng.integers(4, 61)), int(rng.integers(1, 4))
        x = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-2, 2, size=p)
        if p > 1:
            perturbation = 10.0 ** rng.uniform(-7.5, 0) * np.abs(x[:, 0]).mean()
            x[:, 1] = x[:, 0] * rng.uniform(0.5, 2.0) + perturbation * rng.normal(size=n)
        y = x @ rng.normal(size=p) + 10.0 ** rng.uniform(-12, 0) * rng.choice([0.0, 1.0]) * rng.normal(size=n)
        if np.linalg.cond(x) <= 1e7:
            designs.append((x, y))
    return designs


class TestAccuracy:
    """The solve against exact rational least squares on the same floats."""

    def test_coefficients_are_within_the_least_squares_perturbation_bound(self):
        """A backward-stable solve of ``min ||X b - y||`` has a relative error of at most a small multiple of
        ``eps * k * (1 + k * ||r|| / (||X|| ||b||))`` with ``k = cond(X)`` (Higham, Accuracy and Stability of
        Numerical Algorithms, sec. 20.1): ``eps * k`` for a consistent ``y``, plus ``eps * k**2`` times the relative
        residual.  Over 5000 such designs, QR with a triangular solve and the SVD both stayed under 4.2 of it."""
        eps = np.finfo(float).eps
        for x, y in _near_collinear_designs(60):
            coef, _ = ols_fit(x, y)
            exact = np.array([float(value) for value in _exact_least_squares(x, y)])
            kappa, size = np.linalg.cond(x), np.linalg.norm(x, 2) * np.linalg.norm(exact)
            bound = eps * kappa * (1.0 + kappa * np.linalg.norm(y - x @ exact) / size)
            assert np.linalg.norm(coef - exact) / np.linalg.norm(exact) <= 16.0 * bound, (x.shape, kappa)

    def test_condition_number_is_cond_x(self):
        for x, y in _near_collinear_designs(60, seed=1):
            kappa = np.linalg.cond(x)
            assert abs(ols_fit(x, y)[1].condition_number - kappa) <= 16 * math.ulp(kappa), (x.shape, kappa)

    def test_an_svd_that_does_not_converge_is_a_singular_design_naming_columns(self, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fails)
        x = np.column_stack([np.arange(1.0, 7.0), np.arange(1.0, 7.0) ** 2])
        with pytest.raises(SingularDesignError, match=r"\(cond = nan\); columns 'x0' and 'x1' are nearly collinear"):
            ols_fit(x, x[:, 0])

    def test_a_fit_takes_one_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(kwargs) or svd(*args, **kwargs))
        fit_law(make_records(0.63, 1.72, 1.16, MetricKind.LOSS))
        assert calls == [{"full_matrices": False}]

    def test_regression_reaches_lapack_through_one_svd_call(self):
        """The module calls ``np.linalg`` once, for its SVD; no second decomposition path (a QR, a solve, a
        ``lstsq``, a norm) or other linear-algebra import comes back beside it."""
        tree = ast.parse(Path(regression.__file__).read_text(encoding="utf-8"))
        linalg = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
        calls = [node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call) and node.func in linalg]
        imports = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        imports += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
        assert calls == ["svd"]
        assert sorted(node.attr for node in linalg) == ["LinAlgError", "svd"]
        assert [name for name in imports if "linalg" in name or name.startswith("scipy")] == []


class TestFitLaw:
    def test_identity_data(self):
        import warnings

        records = [
            ExperimentRecord("m", MetricKind.LOSS, l0, r, d, l0)
            for l0 in (1.5, 2.0, 4.0)
            for r in (0.1, 0.5)
            for d in (0.0, 10.0)
        ]
        with warnings.catch_warnings():
            # the exactly-zero exponents land at +-1e-16 of 0, tripping the sign check
            warnings.simplefilter("ignore", FeasibilityWarning)
            law = fit_law(records)
        assert law.alpha == pytest.approx(1.0, abs=1e-10)
        assert law.beta == pytest.approx(0.0, abs=1e-10)
        assert law.gamma == pytest.approx(0.0, abs=1e-10)
        assert law.stats.r_squared == pytest.approx(1.0)

    def test_noiseless_extrinsic_recovery(self):
        records = make_records(0.98, -1.03, -0.14, MetricKind.ACCURACY)
        assert len(records) == 200
        law = fit_law(records)
        assert law.alpha == pytest.approx(0.98, abs=1e-8)
        assert law.beta == pytest.approx(-1.03, abs=1e-8)
        assert law.gamma == pytest.approx(-0.14, abs=1e-8)

    def test_runtime_fit_recovers_constant_and_exponent(self):
        records = [
            ExperimentRecord("m", MetricKind.RUNTIME, 100.0, r, 0.0, 100.0 * (1 + r) ** -0.67)
            for r in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        law = fit_law(records, form=DesignForm.RUNTIME)
        assert isinstance(law, RuntimeLaw)
        assert law.c == pytest.approx(100.0, abs=1e-6)
        assert law.beta == pytest.approx(-0.67, abs=1e-6)

    def test_runtime_fit_of_a_constant_runtime_is_exact(self):
        """A constant runtime leaves nothing to explain after the intercept: the centered total sum of squares is
        0, and the exact fit has R^2 = 1 and an infinite F statistic."""
        records = [ExperimentRecord("m", MetricKind.RUNTIME, 1.0, r, 0.0, 5.0) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
        law = fit_law(records, form=DesignForm.RUNTIME)
        assert law.c == pytest.approx(5.0, rel=1e-12) and law.beta == pytest.approx(0.0, abs=1e-12)
        assert law.stats.r_squared == 1.0 and law.stats.f_statistic == math.inf

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(exponent=st.integers(-1074, 1023), rows=st.integers(3, 60))
    def test_a_constant_runtime_fits_exactly_at_any_scale(self, exponent, rows):
        """Whether a sum of squares is 0 is decided relative to the scale of ``log runtime``: rounding leaves a
        residual and a centred spread of about eps * |log runtime| per row, which an absolute threshold called
        real at 3.7e12 and at 1e-300 (R^2 0, adjusted R^2 -0.33, F 0) but not at 5.0."""
        ratios = np.linspace(0.05, 0.95, rows).tolist()
        for runtime in (5.0, 3.7e12, 1e-300, 2.0 ** exponent):
            records = [ExperimentRecord("m", MetricKind.RUNTIME, 1.0, r, 0.0, runtime) for r in ratios]
            stats = fit_law(records, form=DesignForm.RUNTIME).stats
            assert (stats.r_squared, stats.adj_r_squared, stats.f_statistic) == (1.0, 1.0, math.inf), runtime

    def test_ablation_forms_pin_missing_exponent(self):
        records = make_records(0.74, 2.02, 0.0, MetricKind.LOSS)
        law = fit_law(records, form=DesignForm.RATIO_ONLY)
        assert law.gamma == 0.0
        assert law.beta == pytest.approx(2.02, abs=1e-8)
        records = make_records(1.30, 0.0, 1.46, MetricKind.LOSS)
        law = fit_law(records, form=DesignForm.DATA_ONLY)
        assert law.beta == 0.0
        assert law.gamma == pytest.approx(1.46, abs=1e-8)

    def test_feasibility_warning_on_wrong_sign(self):
        # loss-labeled data generated with an accuracy-style negative beta
        records = make_records(1.0, -1.0, 0.5, MetricKind.LOSS)
        with pytest.warns(FeasibilityWarning, match="beta"):
            fit_law(records)

    def test_ablation_form_does_not_warn_for_pinned_exponent(self):
        import warnings

        records = make_records(1.0, 2.0, 0.0, MetricKind.LOSS)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FeasibilityWarning)
            fit_law(records, form=DesignForm.RATIO_ONLY)


class TestProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        records = make_records(0.63, 1.72, 1.16, MetricKind.LOSS, noise=rng.normal(0, 0.1, 200))
        law = fit_law(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        law2 = fit_law(shuffled)
        assert law2.alpha == pytest.approx(law.alpha, abs=1e-12)
        assert law2.beta == pytest.approx(law.beta, abs=1e-12)
        assert law2.gamma == pytest.approx(law.gamma, abs=1e-12)

    def test_scale_covariance_constant_l0(self):
        # scaling every observation by k shifts only alpha when l0 is constant
        rng = np.random.default_rng(3)
        records = make_records(0.63, 1.72, 1.16, MetricKind.LOSS, l0s=(math.e,), noise=rng.normal(0, 0.1, 40))
        law = fit_law(records)
        k = 7.3
        scaled = [
            ExperimentRecord(rec.model_id, rec.metric, rec.l0, rec.r, rec.d, k * rec.l)
            for rec in records
        ]
        law2 = fit_law(scaled)
        assert law2.beta == pytest.approx(law.beta, abs=1e-9)
        assert law2.gamma == pytest.approx(law.gamma, abs=1e-9)
        assert law2.alpha != pytest.approx(law.alpha, abs=1e-3)

    def test_constant_l0_e_keeps_uncentered_convention(self):
        # log(e) == 1.0 exactly, so the FULL design's log_l0 column is all ones;
        # it is still a regressor, not an intercept, and R^2/F stay uncentered.
        rng = np.random.default_rng(3)
        records = make_records(0.63, 1.72, 1.16, MetricKind.LOSS, l0s=(math.e,), noise=rng.normal(0, 0.1, 40))
        stats = fit_law(records).stats

        r = np.array([rec.r for rec in records])
        d = np.array([rec.d for rec in records])
        x = np.column_stack([np.ones(len(records)), np.log1p(r), np.log1p(1.0 / (d + 1.0))])
        y = np.log([rec.l for rec in records])
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        ssr = float(np.sum((y - x @ coef) ** 2))
        n, p = x.shape
        r_squared = 1.0 - ssr / float(y @ y)
        assert stats.r_squared == pytest.approx(r_squared, rel=1e-9)
        assert stats.adj_r_squared == pytest.approx(1.0 - (1.0 - r_squared) * n / (n - p), rel=1e-9)
        assert stats.f_statistic == pytest.approx((r_squared / p) / ((1.0 - r_squared) / (n - p)), rel=1e-9)

    def test_refit_idempotence_on_small_grids(self):
        for alpha, beta, gamma, metric in [
            (0.48, 2.36, 1.31, MetricKind.LOSS),
            (1.11, -0.64, -0.05, MetricKind.ACCURACY),
        ]:
            records = make_records(alpha, beta, gamma, metric, l0s=(0.5, 2.0, 6.0), rs=(0.1, 0.4, 0.8), ds=(0.0, 10.0, 1e4))
            law = fit_law(records)
            assert law.alpha == pytest.approx(alpha, abs=1e-8)
            assert law.beta == pytest.approx(beta, abs=1e-8)
            assert law.gamma == pytest.approx(gamma, abs=1e-8)

    def test_stats_invariants_across_noise_levels(self):
        rng = np.random.default_rng(5)
        for std in (0.01, 0.1, 0.5, 1.0):
            records = make_records(0.63, 1.72, 1.16, MetricKind.LOSS, noise=rng.normal(0, std, 200))
            stats = fit_law(records).stats
            assert stats.adj_r_squared <= stats.r_squared
            assert stats.f_statistic >= 0.0
            assert stats.n == 200 and stats.p == 3


class TestFitStatistics:
    def test_requires_n_greater_than_p(self):
        with pytest.raises(DomainError):
            FitStatistics(n=3, p=3, r_squared=0.5, adj_r_squared=0.4, f_statistic=1.0,
                          residual_std=0.1, condition_number=2.0)

    def test_adj_cannot_exceed_r_squared(self):
        with pytest.raises(DomainError):
            FitStatistics(n=10, p=2, r_squared=0.5, adj_r_squared=0.6, f_statistic=1.0,
                          residual_std=0.1, condition_number=2.0)
