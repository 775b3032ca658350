import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copsl.errors import ConfigurationError, InputError, InternalError, UnsupportedError
from copsl.problems import (
    SYNTHETIC_2D,
    BoxBounds,
    ProblemSuite,
    builtin_suite,
    finite_difference_jacobian,
    get_problem,
    jacobian_check,
    map_unit_to_box,
    suite_from_names,
    suite_from_spec,
    true_front_hv,
    unit_box,
)
from copsl.sampling import RngStream

from conftest import brute_force_nondominated


def front_hv_by_quadrature(front_fn, ref, panels=2_000_000):
    """Oracle: hypervolume of a decreasing 2-d front by midpoint quadrature.

    The front spans f1 in [0, 1] with f2 = front_fn(f1); the dominated area
    is the strip integral of (r2 - f2) plus the full-height block between
    f1 = 1 and r1.
    """
    t = (np.arange(panels) + 0.5) / panels
    return float(np.mean(ref[1] - front_fn(t)) + (ref[0] - 1.0) * ref[1])


class TestBoxMapping:
    def test_unit_interval_identity(self):
        x = map_unit_to_box(np.array([0.5]), unit_box(1))
        assert x[0] == 0.5
        assert unit_box(1).widths[0] == 1.0

    def test_affine(self):
        bounds = BoxBounds(np.array([-2.0]), np.array([4.0]))
        x = map_unit_to_box(np.array([0.5]), bounds)
        assert x[0] == pytest.approx(1.0)
        assert bounds.widths[0] == pytest.approx(6.0)

    def test_accepts_saturated_endpoints(self):
        # Sigmoid outputs can round to exactly 0 or 1 in float; the mapping
        # treats the closed cube as valid.
        x = map_unit_to_box(np.array([0.0, 1.0]), unit_box(2))
        assert np.array_equal(x, [0.0, 1.0])

    def test_rejects_width_mismatch(self):
        with pytest.raises(InternalError, match="width 2 does not match bounds dimension 3"):
            map_unit_to_box(np.array([[0.5, 0.5]]), unit_box(3))

    def test_composition_matches_finite_differences(self):
        mop = get_problem("zdt1")
        bounds = BoxBounds(np.full(6, -1.0), np.full(6, 2.0))
        u = RngStream(3).random(6) * 0.3 + 0.35  # keeps x = -1 + 3u inside [0, 1]

        def composed(unit):
            x = bounds.lower + (bounds.upper - bounds.lower) * unit
            return mop.evaluate_batch(x[None, :])[0]

        x = map_unit_to_box(u, bounds)
        chained = mop.jacobian(x[None, :])[0] * bounds.widths[None, :]
        step = 1e-7
        for j in range(6):
            hi, lo = u.copy(), u.copy()
            hi[j] += step
            lo[j] -= step
            fd = (composed(hi) - composed(lo)) / (2 * step)
            assert np.abs(chained[:, j] - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            BoxBounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


class TestBuiltinEvaluations:
    def test_zdt1_extremes(self):
        mop = get_problem("zdt1")
        assert np.allclose(mop.evaluate(np.zeros((1, 6)))[0], [0.0, 1.0])
        x = np.zeros((1, 6))
        x[0, 0] = 1.0
        assert np.allclose(mop.evaluate(x)[0], [1.0, 0.0])

    def test_zdt2_front_point(self):
        mop = get_problem("zdt2")
        x = np.zeros((1, 6))
        x[0, 0] = 0.5
        assert np.allclose(mop.evaluate(x)[0], [0.5, 0.75])

    def test_shifted_variants_front_at_two_tenths(self):
        # Tail variables at 0.2 minimize the distance term, so the front
        # matches the unshifted shape.
        for name in ("zdt1-shifted", "zdt2-shifted"):
            mop = get_problem(name)
            x = np.full((1, 6), 0.2)
            x[0, 0] = 0.25
            f = mop.evaluate(x)[0]
            g_expected = 1.0
            assert f[0] == pytest.approx(0.25)
            if name.startswith("zdt1"):
                assert f[1] == pytest.approx(g_expected - np.sqrt(0.25 * g_expected))
            else:
                assert f[1] == pytest.approx(g_expected - 0.25**2 / g_expected)

    def test_coupled_tail_raises_g(self):
        mop = get_problem("zdt1-rotatedg")
        flat = np.full((1, 6), 0.3)
        zig = np.array([[0.3, 0.6, 0.0, 0.6, 0.0, 0.6]])
        assert mop.evaluate(zig)[0, 1] > mop.evaluate(flat)[0, 1]

    def test_dtlz2_optimal_manifold_on_unit_sphere(self):
        mop = get_problem("dtlz2")
        f = mop.evaluate(np.full((1, 6), 0.5))[0]
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_batched_matches_single(self):
        # Each row of a batch equals that row evaluated alone, bit for bit.
        mop = get_problem("zdt2-mixed")
        pts = RngStream(4).random((5, 6))
        batch = mop.evaluate(pts)
        jacobians = mop.jacobian(pts)
        for i in range(5):
            assert np.array_equal(batch[i], mop.evaluate(pts[i : i + 1])[0])
            assert np.array_equal(jacobians[i], mop.jacobian(pts[i : i + 1])[0])

    def test_out_of_bounds_rejected(self):
        mop = get_problem("zdt1")
        with pytest.raises(InputError):
            mop.evaluate(np.full((1, 6), 1.5))

    @pytest.mark.parametrize("method", ["evaluate", "jacobian"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_point_rejected(self, method, value):
        x = np.full((2, 6), 0.5)
        x[1, 3] = value
        with pytest.raises(InputError, match="zdt1: point not finite or outside the box bounds"):
            getattr(get_problem("zdt1"), method)(x)

    @pytest.mark.parametrize("method", ["evaluate", "jacobian"])
    def test_single_point_rejected(self, method):
        mop = get_problem("zdt1")
        with pytest.raises(InputError, match=r"expected an \(N, 6\) matrix of points, got shape \(6,\)"):
            getattr(mop, method)(np.full(6, 0.5))

    def test_front_membership_nondominated(self):
        # Points with a zero tail lie on the front and never dominate each
        # other; raising g dominates them from below.
        mop = get_problem("zdt1")
        t = np.linspace(0.0, 1.0, 25)
        points = np.zeros((25, 6))
        points[:, 0] = t
        front = mop.evaluate(points)
        assert brute_force_nondominated(front).shape[0] == 25
        off_front = points.copy()
        off_front[:, 1] = 0.3  # g > 1
        worse = mop.evaluate(off_front)
        combined = np.vstack([front, worse])
        survivors = brute_force_nondominated(combined)
        assert survivors.shape[0] == 25


class TestJacobians:
    @pytest.mark.parametrize(
        "name",
        ["zdt1", "zdt2", "zdt1-shifted", "zdt2-shifted", "zdt1-rotatedg", "zdt2-mixed", "dtlz2"],
    )
    def test_matches_finite_differences(self, name):
        err = jacobian_check(get_problem(name), 100, RngStream(17))
        assert err <= 1e-5

    def test_detects_corrupted_jacobian(self):
        mop = get_problem("zdt1")

        def broken(x):
            jac = mop.jacobian_batch(x)
            jac[:, 1, 0] *= 1.5
            return jac

        corrupted = dataclasses.replace(mop, jacobian_batch=broken)
        assert jacobian_check(corrupted, 50, RngStream(18)) > 1e-3

    def test_transposed_square_jacobian_found_by_the_check(self):
        # With m == n a transposed Jacobian keeps its shape, so only the check against differences finds it.
        square = dataclasses.replace(get_problem("zdt1"), name="zdt1-square", bounds=unit_box(2))
        transposed = dataclasses.replace(square, jacobian_batch=lambda x: square.jacobian_batch(x).transpose(0, 2, 1))
        assert jacobian_check(square, 50, RngStream(20)) <= 1e-5
        assert transposed.jacobian(np.full((3, 2), 0.5)).shape == (3, 2, 2)
        assert jacobian_check(transposed, 50, RngStream(20)) > 1e-3

    def test_finite_difference_fallback_shape(self):
        mop = get_problem("zdt1")
        x = RngStream(19).random((4, 6))
        jac = finite_difference_jacobian(mop.evaluate_batch, x)
        assert jac.shape == (4, 2, 6)


def _misshapen(array: np.ndarray, how: str) -> np.ndarray:
    if how == "truncated":
        return array[:, :-1]
    if how == "flattened":
        return array.ravel()
    if how == "transposed":
        return np.swapaxes(array, -2, -1)
    return np.concatenate([array, array[:, :1]], axis=1)  # padded with one more objective


class TestReturnedShapes:
    """What a problem's callables return is checked by shape, and named by problem and callable."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["zdt1", "dtlz2"]),
        st.sampled_from(["evaluate_batch", "jacobian_batch"]),
        st.sampled_from(["truncated", "flattened", "transposed", "padded"]),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_wrong_shape_raises_naming_the_problem(self, name, field, how, rows, seed):
        base = get_problem(name)
        x = np.random.default_rng(seed).random((rows, base.num_variables))
        right = getattr(base, field)(x)
        wrong = _misshapen(right, how)
        if wrong.shape == right.shape:  # a transposed square matrix keeps its shape
            return
        returned = []

        def misshapen(points):
            return _misshapen(getattr(base, field)(points), how)

        def passthrough(points):
            returned.append(getattr(base, field)(points))
            return returned[-1]

        broken = dataclasses.replace(base, name=f"{name}-{how}", **{field: misshapen})
        with pytest.raises(ConfigurationError) as caught:
            getattr(broken, field.removesuffix("_batch"))(x)
        assert str(caught.value) == f"problem '{name}-{how}': {field} returned shape {wrong.shape}, expected {right.shape}"

        result = getattr(dataclasses.replace(base, **{field: passthrough}), field.removesuffix("_batch"))(x)
        assert result is returned[-1]
        assert result.tobytes() == right.tobytes()


    @pytest.mark.parametrize(
        "returned", [lambda x: [["a", "b"]] * len(x), lambda x: [[1.0]] + [[1.0, 2.0]] * (len(x) - 1), lambda x: None]
    )
    def test_no_array_of_numbers_raises_naming_the_problem(self, returned):
        broken = dataclasses.replace(get_problem("zdt1"), name="no-array", evaluate_batch=returned)
        with pytest.raises(ConfigurationError, match="^problem 'no-array': evaluate_batch returned "):
            broken.evaluate(np.full((2, 6), 0.5))


class TestFrontHypervolume:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("zdt1", 0.1 + 2.0 / 3.0 + 0.11),
            ("zdt2", 0.1 + 1.0 / 3.0 + 0.11),
            ("zdt2-mixed", 0.71),
        ],
    )
    def test_closed_forms(self, name, expected):
        assert true_front_hv(get_problem(name), (1.1, 1.1)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("name", ["zdt1", "zdt2", "zdt2-mixed"])
    def test_against_quadrature_oracle(self, name):
        mop = get_problem(name)
        ref = np.array([1.1, 1.1])
        # Rebuild the front shape from sampled points to keep the oracle
        # independent of the closed form.
        t = np.linspace(0.0, 1.0, 1001)
        sampled = mop.front_points(1001)
        assert np.allclose(sampled[:, 0], t)
        oracle = front_hv_by_quadrature(
            lambda q: np.interp(q, sampled[:, 0], sampled[:, 1]), ref
        )
        assert true_front_hv(mop, ref) == pytest.approx(oracle, abs=5e-4)

    @pytest.mark.parametrize(
        "name, front",
        [
            ("zdt1", lambda t: 1.0 - np.sqrt(t)),
            ("zdt2", lambda t: 1.0 - t**2),
            ("zdt2-mixed", lambda t: 1.0 - 0.5 * np.sqrt(t) - 0.5 * t**2),
        ],
    )
    def test_front_points_are_the_closed_form_bitwise(self, name, front):
        t = np.linspace(0.0, 1.0, 100_001)
        sampled = get_problem(name).front_points(100_001)
        assert np.array_equal(sampled[:, 0], t)
        assert np.array_equal(sampled[:, 1], front(t))

    def test_dtlz2_octant_sphere(self):
        expected = 1.1**3 - np.pi / 6.0
        assert true_front_hv(get_problem("dtlz2"), (1.1, 1.1, 1.1)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_unsupported_reference(self):
        with pytest.raises(UnsupportedError):
            true_front_hv(get_problem("zdt1"), (0.5, 1.1))

    def test_problem_without_closed_form_front(self):
        frontless = dataclasses.replace(get_problem("zdt1"), name="frontless", front_hypervolume=None)
        with pytest.raises(UnsupportedError, match="problem 'frontless' has no closed-form front"):
            true_front_hv(frontless, (1.1, 1.1))


class TestSuites:
    def test_synthetic_suite_signature(self):
        suite = builtin_suite("synthetic-2d")
        assert suite.num_mops == 6
        assert suite.num_objectives == 2
        assert all(p.num_variables == 6 for p in suite.problems)
        assert all(np.array_equal(p.reference_point, [1.1, 1.1]) for p in suite.problems)

    def test_unknown_suite(self):
        with pytest.raises(ConfigurationError):
            builtin_suite("nonexistent")

    def test_mixed_objective_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            ProblemSuite((get_problem("zdt1"), get_problem("dtlz2")))

    @pytest.mark.parametrize("spec", ["zdt1,zdt1", ["zdt2", "zdt1", "zdt2"]])
    def test_repeated_problem_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="cannot repeat a problem, got 'zdt[12]' more than once"):
            suite_from_spec(spec)

    def test_suite_from_names(self):
        suite = suite_from_names(["zdt1", "zdt2"])
        assert [p.name for p in suite.problems] == ["zdt1", "zdt2"]

    @pytest.mark.parametrize(
        "spec, names",
        [
            ("synthetic-2d", SYNTHETIC_2D),
            ("zdt1", ("zdt1",)),
            ("zdt1, zdt2", ("zdt1", "zdt2")),
            (["zdt2", "zdt1"], ("zdt2", "zdt1")),
        ],
    )
    def test_suite_from_spec(self, spec, names):
        assert tuple(p.name for p in suite_from_spec(spec).problems) == names

    def test_unknown_suite_string_lists_the_builtin_suites(self):
        with pytest.raises(ConfigurationError, match=r"unknown problem 'bogus'; a suite string names a built-in suite \('synthetic-2d'\)"):
            suite_from_spec("bogus")


class TestSizes:
    """A problem states each size once: n is its box's dimension, m its reference point's length."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
        st.floats(1e-3, 1e3),
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=6),
    )
    def test_sizes_come_from_the_box_and_the_reference(self, lower, width, reference):
        box = BoxBounds(np.array(lower), np.array(lower) + width)
        mop = dataclasses.replace(get_problem("zdt1"), name="sized", bounds=box, reference_point=reference)
        assert (mop.num_variables, mop.num_objectives) == (len(lower), len(reference))
        suite = ProblemSuite((mop,))
        assert (suite.output_dims, suite.num_objectives) == ((len(lower),), len(reference))

    def test_empty_box_rejected(self):
        with pytest.raises(ConfigurationError, match="^bounds must hold at least one variable$"):
            BoxBounds(np.zeros(0), np.ones(0))

    @pytest.mark.parametrize("reference", [(), (1.1,)], ids=["empty", "one-value"])
    def test_reference_of_fewer_than_two_values_rejected(self, reference):
        with pytest.raises(ConfigurationError, match="^problem 'sized': reference point must hold one value per objective"):
            dataclasses.replace(get_problem("zdt1"), name="sized", reference_point=reference)


class TestRegistry:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("evaluate_batch", None, "evaluate_batch must be callable, got None"),
            ("evaluate_batch", 3.0, "evaluate_batch must be callable, got 3.0"),
            ("jacobian_batch", None, "jacobian_batch must be callable, got None"),
            ("reference_point", None, "reference point must hold one value per objective, at least 2, got None"),
            ("reference_point", (1.1,), r"reference point must hold one value per objective, at least 2, got \(1.1,\)"),
            ("reference_point", "1.1,1.1", "reference point must hold one value per objective, at least 2, got '1.1,1.1'"),
            (
                "reference_point",
                [[1.1, 1.1]],
                r"reference point must hold one value per objective, at least 2, got \[\[1.1, 1.1\]\]",
            ),
        ],
        ids=[
            "no-evaluator",
            "evaluator-not-callable",
            "no-jacobian",
            "no-reference",
            "short-reference",
            "text-reference",
            "matrix-reference",
        ],
    )
    def test_incomplete_definition_rejected(self, field, value, message):
        # Every problem is complete once built, so no later check is needed
        # before training, evaluation or export.
        with pytest.raises(ConfigurationError, match=f"^problem 'partial': {message}$"):
            dataclasses.replace(get_problem("zdt1"), name="partial", **{field: value})

    def test_unknown_problem(self):
        with pytest.raises(ConfigurationError):
            get_problem("zdt99")
