import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import copsl.metrics as metrics_mod
from copsl.errors import InputError, UnsupportedError
from copsl.metrics import (
    csv_float,
    hv_2d,
    hv_3d,
    hypervolume,
    log_hv_diff,
    nondominated_filter,
    read_front_csv,
    write_front_csv,
)
from copsl.problems import get_problem, true_front_hv
from copsl.sampling import RngStream

from conftest import brute_force_nondominated, hv_2d_by_steps, hv_3d_by_levels, hv_monte_carlo


# Per column: continuous values, a small integer grid (ties and duplicate
# rows), or signed zeros among a few values (rows equal but for their bytes).
COLUMN_KINDS = {
    "float": st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    "grid": st.integers(0, 3).map(float),
    "signed-zero": st.sampled_from([-0.0, 0.0, 0.5, 1.0]),
}


@st.composite
def point_sets(draw, m: int, max_size: int = 40) -> np.ndarray:
    """(n, m) point sets whose columns are each of one kind of COLUMN_KINDS.

    Mixing kinds gives ties in one coordinate with the others distinct;
    all-grid sets are full of duplicates; n = 1 gives single points.
    """
    n = draw(st.integers(1, max_size))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=m, max_size=m))
    columns = [draw(st.lists(COLUMN_KINDS[kind], min_size=n, max_size=n)) for kind in kinds]
    return np.array(columns, dtype=np.float64).T.copy()


@st.composite
def sets_with_reference(draw, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A point set and a reference point that per coordinate lies on the
    set's maximum (those points sit on the boundary and are clipped), beyond
    it, or at its median."""
    pts = draw(point_sets(m, max_size=25))
    ref = [
        draw(st.sampled_from([column.max(), column.max() + 1.0, float(np.median(column))])) for column in pts.T
    ]
    return pts, np.array(ref)


@st.composite
def staircase_sweeps(draw) -> tuple[np.ndarray, np.ndarray]:
    """3-d sets on a small integer grid, so that points rising in f3 often
    enter the (f1, f2) staircase at its ends or in place of runs of steps,
    with the reference on or beyond the grid."""
    n = draw(st.integers(1, 30))
    coordinate = st.integers(-1, 5).map(float)
    pts = np.array(draw(st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=n, max_size=n)))
    ref = np.array([draw(st.sampled_from([5.0, 6.0])) for _ in range(3)])
    return pts, ref


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def random_front(rng, m, count):
    """Points near the unit simplex surface so fronts are nontrivial."""
    pts = rng.random((count, m)) * 0.9 + 0.05
    return pts / np.linalg.norm(pts, axis=1, keepdims=True) * (0.6 + 0.4 * rng.random((count, 1)))


class TestNondominatedFilter:
    def test_small_example(self):
        kept = nondominated_filter(np.array([[1.0, 2.0], [2.0, 1.0], [2.0, 2.0]]))
        assert sorted(map(tuple, kept)) == [(1.0, 2.0), (2.0, 1.0)]

    def test_singleton(self):
        kept = nondominated_filter(np.array([[3.0, 4.0]]))
        assert np.array_equal(kept, [[3.0, 4.0]])

    def test_duplicates_collapse(self):
        kept = nondominated_filter(np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0]]))
        assert kept.shape[0] == 2

    @pytest.mark.parametrize(
        "pts, expected",
        [
            ([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, -0.0]]),
            (
                [[1.0, -0.0, 0.5], [0.5, 0.5, 0.5], [1.0, 0.0, 0.5], [-0.0, 1.0, 0.0]],
                [[1.0, -0.0, 0.5], [0.5, 0.5, 0.5], [-0.0, 1.0, 0.0]],
            ),
        ],
    )
    def test_rows_equal_by_value_keep_the_first(self, pts, expected):
        kept = nondominated_filter(np.array(pts))
        assert kept.tobytes() == np.array(expected).tobytes()

    def test_weak_dominance_removes_equal_but_worse(self):
        kept = nondominated_filter(np.array([[1.0, 2.0], [1.0, 3.0]]))
        assert np.array_equal(kept, [[1.0, 2.0]])

    def test_matches_brute_force_on_random_sets(self):
        rng = RngStream(31)
        for _ in range(20):
            pts = rng.random((200, 3))
            fast = nondominated_filter(pts)
            slow = brute_force_nondominated(pts)
            assert sorted(map(tuple, fast)) == sorted(map(tuple, slow))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            nondominated_filter(np.empty((0, 2)))

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([1, 2, 3]).flatmap(point_sets))
    @example(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0, -0.0]]))
    @example(np.array([[0.5, 0.0, 0.5], [0.5, -0.0, 0.5], [0.5, 0.0, 0.75]]))
    @example(np.array([[2.0, 1.0, 3.0]]))
    def test_same_rows_in_same_order_as_brute_force(self, pts):
        fast = nondominated_filter(pts)
        slow = brute_force_nondominated(pts)
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()

    def test_four_objectives_unsupported(self):
        with pytest.raises(UnsupportedError, match="got 4"):
            nondominated_filter(np.array([[0.1, 0.2, 0.3, 0.4], [0.2, 0.1, 0.3, 0.4]]))


class TestHypervolumeBits:
    """hv_2d and hv_3d equal the step-by-step and slab-by-slab oracles bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(sets_with_reference(2))
    @example((np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0]]), np.array([2.0, 2.0])))
    @example((np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([1.0, 1.0])))
    @example((np.array([[0.1, 0.3], [0.6, 0.1], [0.1, 0.2]]), np.array([1.0, 1.0])))
    def test_hv_2d(self, case):
        # The last example lists a dominated row before the front row of the
        # same f1; a sort on f1 alone would keep it and change the bits.
        pts, ref = case
        assert same_bits(hv_2d(pts, ref), hv_2d_by_steps(pts, ref))

    @settings(max_examples=300, deadline=None)
    @given(sets_with_reference(3))
    @example((np.array([[0.0, 1.0, 0.5], [-0.0, 1.0, 0.5], [1.0, -0.0, 0.0], [1.0, 0.0, 1.0]]), np.full(3, 2.0)))
    @example((np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 0.25]]), np.array([1.0, 1.0, 1.0])))
    @example((np.array([[0.3, 0.45, 0.1], [0.4, 0.5, 0.2], [0.8, 0.2, 0.5]]), np.array([1.0, 1.0, 1.0])))
    @example((np.array([[0.6, 0.6, 0.5], [0.2, 0.9, 0.1], [0.5, 0.5, 0.5]]), np.array([1.0, 1.0, 1.0])))
    def test_hv_3d(self, case):
        # The last two examples: a dominated point on its own f3 level between
        # two front levels, where a slab split at its level changes the bits;
        # and a dominated point listed before its dominator at the same f3.
        pts, ref = case
        assert same_bits(hv_3d(pts, ref), hv_3d_by_levels(pts, ref))

    @settings(max_examples=300, deadline=None)
    @given(staircase_sweeps())
    @example((np.array([[0.0, 4.0, 0.0], [1.0, 3.0, 0.0], [2.0, 2.0, 0.0], [3.0, 1.0, 0.0], [0.5, 1.5, 1.0]]), np.full(3, 5.0)))
    @example((np.array([[0.0, 4.0, 0.0], [1.0, 3.0, 0.0], [2.0, 2.0, 0.0], [-1.0, 4.5, 1.0]]), np.full(3, 5.0)))
    @example((np.array([[0.0, 4.0, 0.0], [1.0, 3.0, 0.0], [2.0, 2.0, 0.0], [-1.0, 2.5, 1.0]]), np.full(3, 5.0)))
    @example((np.array([[0.0, 4.0, 0.0], [1.0, 3.0, 0.0], [2.0, 2.0, 0.0], [4.0, -1.0, 1.0]]), np.full(3, 5.0)))
    @example((np.array([[0.0, 4.0, 0.0], [1.0, 3.0, 0.0], [2.0, 2.0, 0.0], [-1.0, -1.0, 1.0]]), np.full(3, 5.0)))
    def test_hv_3d_where_points_replace_steps(self, case):
        # The examples enter a point after three steps: replacing two in the
        # middle, at index 0 replacing none or two, at the end, and replacing all.
        pts, ref = case
        assert same_bits(hv_3d(pts, ref), hv_3d_by_levels(pts, ref))

    @pytest.mark.parametrize("m, count", [(2, 400), (3, 120), (3, 600)])
    def test_on_a_front_of_hundreds_of_steps(self, m, count):
        # All points on the unit sphere: none dominates another, so the sums
        # run over hundreds of steps, where summation order shows in the bits.
        pts = RngStream(43).random((count, m)) + 0.05
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        ref = np.full(m, 1.1)
        exact, oracle = (hv_2d, hv_2d_by_steps) if m == 2 else (hv_3d, hv_3d_by_levels)
        assert same_bits(exact(pts, ref), oracle(pts, ref))


class TestFilteredHypervolume:
    """``hypervolume`` of the filtered set is ``hypervolume`` of the set, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(sets_with_reference))
    @example((np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 1.0])))
    @example((np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.5], [0.0, 1.0, 0.5]]), np.full(3, 2.0)))
    @example((np.array([[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [2.0, 0.0, 0.0]]), np.array([2.0, 2.0, 1.0])))
    @example((np.array([[0.5, 0.5], [0.6, 0.6]]), np.array([1.0, 1.0])))
    def test_equals_hypervolume_of_the_unfiltered_set(self, case):
        # Examples: duplicates and signed zeros with points on the reference;
        # ties in f3 (zero-thickness slabs); rows equal but for their zeros;
        # a dominated point.
        pts, ref = case
        assert same_bits(hypervolume(nondominated_filter(pts), ref), hypervolume(pts, ref))

    def test_rejects_nonfinite_reference(self):
        with pytest.raises(InputError, match="reference point must be finite"):
            hypervolume(np.array([[0.5, 0.5, 0.5]]), (1.0, np.nan, 1.0))

    def test_rejects_a_reference_of_another_length(self):
        with pytest.raises(InputError, match="reference point must have length 3"):
            hv_3d(np.array([[0.5, 0.5, 0.5]]), (1.0, 1.0))


class TestHypervolume:
    @pytest.mark.parametrize("ref", [3.0, np.float64(3.0), [[3.0, 3.0]]])
    def test_reference_of_the_wrong_shape_raises_input_error(self, ref):
        with pytest.raises(InputError, match=r"reference point must have shape \(m,\)"):
            hypervolume([[1.0, 2.0]], ref)

    def test_dispatches_on_the_reference_length(self):
        assert hypervolume([[0.0, 0.0]], (1.0, 2.0)) == 2.0
        assert hypervolume([[0.0, 0.0, 0.0]], (1.0, 2.0, 3.0)) == 6.0
        with pytest.raises(UnsupportedError, match="got 4"):
            hypervolume([[0.0] * 4], (1.0,) * 4)

    def test_a_dominated_point_adds_nothing(self):
        assert hypervolume([[0.5, 0.5], [0.6, 0.6]], (1.0, 1.0)) == 0.25
        assert hypervolume([[0.6, 0.6, 0.6], [0.5, 0.5, 0.5]], (1.0, 1.0, 1.0)) == 0.125

    @pytest.mark.parametrize("m", [2, 3])
    def test_sweeps_without_the_dominance_filter(self, monkeypatch, m):
        calls = []
        monkeypatch.setattr(metrics_mod, "nondominated_filter", lambda points: calls.append(points))
        pts = RngStream(44).random((50, m))
        assert hypervolume(pts, np.full(m, 1.1)) > 0.0
        assert calls == []


class TestHv2d:
    def test_single_box(self):
        assert hv_2d([[0.0, 0.0]], (1.1, 1.1)) == pytest.approx(1.21)

    def test_two_point_union(self):
        # Union of two overlapping boxes: 0.11 + 0.11 - 0.01 overlap.
        expected = 0.11 + 0.11 - 0.01
        assert hv_2d([[0.0, 1.0], [1.0, 0.0]], (1.1, 1.1)) == pytest.approx(expected)
        est, se = hv_monte_carlo(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.1, 1.1]), 400_000, RngStream(32)
        )
        assert abs(est - expected) <= 3.0 * se

    @pytest.mark.parametrize("ref", [(np.nan, 1.0), (np.inf, 1.0), (1.0, -np.inf)])
    def test_rejects_nonfinite_reference(self, ref):
        with pytest.raises(InputError, match="reference point must be finite"):
            hv_2d([[0.5, 0.5]], ref)

    def test_points_outside_reference_clipped(self):
        assert hv_2d([[2.0, 2.0]], (1.1, 1.1)) == 0.0
        assert hv_2d([[0.0, 0.0], [2.0, -1.0]], (1.0, 1.0)) == pytest.approx(1.0)

    def test_dense_front_samples_converge_to_true_hypervolume(self):
        mop = get_problem("zdt1")
        target = true_front_hv(mop, (1.1, 1.1))
        previous_gap = None
        for count in (10, 100, 1000, 10_000):
            hv = hv_2d(mop.front_points(count), (1.1, 1.1))
            gap = target - hv
            assert gap > 0.0
            if previous_gap is not None:
                assert gap < previous_gap
            previous_gap = gap
        assert previous_gap < 1e-3

    def test_monotone_under_insertion(self):
        rng = RngStream(33)
        pts = rng.random((30, 2))
        ref = np.array([1.05, 1.05])
        base = hv_2d(pts, ref)
        extended = hv_2d(np.vstack([pts, [[0.01, 0.01]]]), ref)
        assert extended >= base

    def test_filter_commutes(self):
        rng = RngStream(34)
        pts = rng.random((50, 2))
        ref = np.array([1.1, 1.1])
        assert hv_2d(pts, ref) == pytest.approx(hv_2d(nondominated_filter(pts), ref))


class TestHv3d:
    def test_single_box(self):
        assert hv_3d([[0.0, 0.0, 0.0]], (1.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_two_boxes_inclusion_exclusion(self):
        a = np.array([0.1, 0.5, 0.3])
        b = np.array([0.6, 0.2, 0.2])
        ref = np.array([1.0, 1.0, 1.0])
        vol = lambda p: np.prod(ref - p)
        overlap = np.prod(ref - np.maximum(a, b))
        expected = vol(a) + vol(b) - overlap
        assert hv_3d([a, b], ref) == pytest.approx(expected)

    def test_equal_third_coordinate_reduces_to_prism(self):
        pts = np.array([[0.2, 0.7, 0.4], [0.5, 0.3, 0.4], [0.8, 0.1, 0.4]])
        ref = np.array([1.0, 1.0, 1.0])
        from copsl.metrics import hv_2d as area

        expected = area(pts[:, :2], ref[:2]) * (1.0 - 0.4)
        assert hv_3d(pts, ref) == pytest.approx(expected)

    def test_matches_monte_carlo_on_random_fronts(self):
        rng = RngStream(35)
        mc_rng = RngStream(36)
        for _ in range(10):
            pts = random_front(rng, 3, 12)
            ref = np.array([1.1, 1.1, 1.1])
            exact = hv_3d(pts, ref)
            est, se = hv_monte_carlo(pts, ref, 200_000, mc_rng)
            assert abs(exact - est) <= 3.0 * se

    @pytest.mark.parametrize("ref", [(1.0, np.nan, 1.0), (1.0, 1.0, np.inf)])
    def test_rejects_nonfinite_reference(self, ref):
        with pytest.raises(InputError, match="reference point must be finite"):
            hv_3d([[0.5, 0.5, 0.5]], ref)

    def test_monotone_under_insertion(self):
        rng = RngStream(37)
        pts = rng.random((20, 3))
        ref = np.array([1.05, 1.05, 1.05])
        assert hv_3d(np.vstack([pts, [[0.0, 0.0, 0.0]]]), ref) >= hv_3d(pts, ref)


class TestMonteCarlo:
    def test_single_point_at_box_corner(self):
        est, se = hv_monte_carlo(np.array([[0.25, 0.25]]), np.array([1.0, 1.0]), 10_000, RngStream(38))
        # Every sample in the box is dominated, so the estimate is exact.
        assert est == pytest.approx(0.75 * 0.75)
        assert se == 0.0

    def test_standard_error_scales_with_inverse_sqrt_samples(self):
        pts = np.array([[0.3, 0.6], [0.6, 0.3]])
        ref = np.array([1.0, 1.0])
        sizes = (1_000, 10_000, 100_000)
        errors = [
            hv_monte_carlo(pts, ref, n, RngStream(39))[1] for n in sizes
        ]
        slopes = np.diff(np.log10(errors)) / np.diff(np.log10(sizes))
        assert np.abs(slopes + 0.5).max() < 0.05

    def test_agrees_with_exact_2d(self):
        rng = RngStream(40)
        mc_rng = RngStream(41)
        for _ in range(10):
            pts = random_front(rng, 2, 8)
            ref = np.array([1.1, 1.1])
            exact = hv_2d(pts, ref)
            est, se = hv_monte_carlo(pts, ref, 200_000, mc_rng)
            assert abs(exact - est) <= 3.0 * se


class TestLogHvDiff:
    def test_tenth_gap(self):
        assert log_hv_diff(1.0, 0.9) == pytest.approx(-1.0)

    def test_floor_when_gap_vanishes(self):
        assert log_hv_diff(1.0, 1.0) == pytest.approx(-12.0)
        assert log_hv_diff(1.0, 1.5) == pytest.approx(-12.0)

    def test_always_finite(self):
        rng = RngStream(42)
        for _ in range(100):
            ht = float(rng.random()) + 0.5
            hl = float(rng.random()) * 2.0
            assert np.isfinite(log_hv_diff(ht, hl))

    def test_rejects_negative_true_hv(self):
        with pytest.raises(InputError):
            log_hv_diff(-0.5, 0.0)


class TestFrontCsv:
    def test_round_trip(self, tmp_path):
        pts = np.array([[0.125, 0.875], [0.5, 0.25]])
        ref = np.array([1.1, 1.1])
        path = str(tmp_path / "front.csv")
        write_front_csv(path, pts, ref)
        loaded, loaded_ref = read_front_csv(path)
        assert np.array_equal(loaded, pts)
        assert np.array_equal(loaded_ref, ref)

    def test_full_precision_round_trip(self, tmp_path):
        pts = np.array([[1.0 / 3.0, 2.0 / 7.0]])
        path = str(tmp_path / "front.csv")
        write_front_csv(path, pts, np.array([1.1, 1.1]))
        loaded, _ = read_front_csv(path)
        assert np.array_equal(loaded, pts)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(point_sets), st.data())
    def test_rows_written_as_csv_float_writes_them(self, tmp_path_factory, pts, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        extra = data.draw(st.lists(finite, min_size=pts.shape[1], max_size=pts.shape[1]))
        pts = np.vstack([pts, extra])
        path = tmp_path_factory.mktemp("csv") / "front.csv"
        write_front_csv(str(path), pts, np.ones(pts.shape[1]))
        rows = path.read_text().splitlines()[2:]
        assert rows == [",".join(csv_float(v) for v in row) for row in pts]

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f1,f2\n0,1\n")
        with pytest.raises(InputError):
            read_front_csv(str(path))

    def test_header_alone_has_no_points(self, tmp_path):
        path = tmp_path / "front.csv"
        path.write_text("# m=2 reference=1,1\n")
        with pytest.raises(InputError, match="front file contains no points"):
            read_front_csv(str(path))


def read_by_tokens(text: str) -> np.ndarray:
    """The row-by-row reader: every token through float(), the first bad row
    named. Holds the messages and values read_front_csv must reproduce."""
    lines = [line.strip() for line in text.replace("\r\n", "\n").split("\n") if line.strip()]
    m = int(lines[0].split("m=")[1].split()[0])
    rows = []
    for line in lines[2:]:
        try:
            values = [float(v) for v in line.split(",")]
        except ValueError:
            raise InputError(f"front row {line!r} is not a comma-separated list of numbers") from None
        if len(values) != m:
            raise InputError(f"front row has {len(values)} values, expected {m}")
        rows.append(values)
    return np.array(rows, dtype=np.float64)


# Tokens float() reads: round-trip reprs of any double, signed zeros,
# subnormals, values that round to 0 or overflow to inf, and underscores.
TOKENS = st.one_of(
    st.floats(allow_nan=False).map(csv_float),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300).map(csv_float),
    st.sampled_from(
        ["0", "-0", "-0.0", "+0.0", "5e-324", "-4.9e-324", "2.2250738585072009e-308", "1e-400", "1e400",
         "-inf", "Infinity", "nan", "1_0", "1_000.5", "0.1e1_0"]
    ),
)
PADDING = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def front_files(draw, bad_row=None):
    """(text, m): a front file in any layout float() and line stripping
    accept; ``bad_row(rows)``, when given, is a strategy for rows it breaks."""
    m = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.lists(TOKENS, min_size=m, max_size=m), min_size=1, max_size=12))
    if bad_row is not None:
        rows = draw(bad_row(rows))
    pad = lambda: draw(PADDING)  # noqa: E731
    body = [pad() + ",".join(pad() + token + pad() for token in row) + pad() for row in rows]
    lines = [f"# m={m} reference={','.join(['1'] * m)}", pad() + ",".join(f"f{j + 1}" for j in range(m)) + pad()]
    for line in body:
        lines.extend([pad()] * draw(st.integers(0, 2)) + [line])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2])), m


def with_garbage(rows):
    """One token replaced by one float() rejects."""
    bad = st.sampled_from(["abc", "", "0x1p3", "1__0", "1.0.0", "--1", "1e", "nan nan"])
    return st.tuples(st.integers(0, len(rows) - 1), bad).map(
        lambda t: [r[:-1] + [t[1]] if i == t[0] else r for i, r in enumerate(rows)]
    )


def with_long_and_short_row(rows):
    """One row one value longer and another one shorter: the file-wide count
    is still a multiple of m."""
    if len(rows) < 2:
        rows = rows + [list(rows[0])]
    pairs = st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True)
    return pairs.map(
        lambda ij: [r + ["1"] if i == ij[0] else r[1:] if i == ij[1] else r for i, r in enumerate(rows)]
    )


def read_text(tmp_path_factory, text: str):
    path = tmp_path_factory.mktemp("csv") / "front.csv"
    path.write_bytes(text.encode())
    return read_front_csv(str(path))


class TestFrontCsvReader:
    @settings(max_examples=200, deadline=None)
    @given(front_files())
    def test_equals_float_per_token_bitwise(self, tmp_path_factory, case):
        text, m = case
        points, reference = read_text(tmp_path_factory, text)
        expected = read_by_tokens(text)
        assert points.shape == expected.shape == (expected.shape[0], m)
        assert points.tobytes() == expected.tobytes()
        assert np.array_equal(reference, np.ones(m))

    # The example holds 4 values in two rows of m = 2: a bare reshape accepts it.
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(front_files(with_garbage), front_files(with_long_and_short_row)))
    @example(("# m=2 reference=1,1\nf1,f2\n0.1,0.2,0.3\n0.4\n", 2))
    def test_malformed_rows_raise_the_row_by_row_message(self, tmp_path_factory, case):
        text, _ = case
        with pytest.raises(InputError) as expected:
            read_by_tokens(text)
        with pytest.raises(InputError) as caught:
            read_text(tmp_path_factory, text)
        assert str(caught.value) == str(expected.value)
