"""Front quality metrics: dominance filtering and hypervolume.

Hypervolume is the Lebesgue measure of the objective-space region dominated
by a point set and bounded above by a reference point. Both hypervolumes and
the filter are exact for finite sets, and the hypervolumes reject a
reference point that is not finite.

Costs for N points: ``nondominated_filter`` sorts lexicographically and
sweeps (Kung, Luccio & Preparata 1975), O(N log N) for two objectives and at
worst O(N^2) for three; it rejects four or more. The hypervolumes run the
same sweeps without the filter, skipping each point an earlier one weakly
dominates. ``hv_2d`` sorts and adds one rectangle per step. ``hv_3d`` sweeps
by f3, entering each point into a 2-d staircase whose rectangles and their
running sums it keeps: an entering point changes two rectangles and the sums
to their right, which one C-level fold (``itertools.accumulate``) recomputes,
and each slab adds its thickness times the last sum. The worst case stays
O(N^2), in that fold.

One duplicate rule holds throughout: rows equal by value are one point,
represented by the first of them, so a ``-0.0`` row and its ``0.0`` twin are
one point. The filter returns what the O(N^2) pairwise definition returns,
the undominated rows in input order with each set of equal rows collapsed to
its first occurrence. The hypervolumes equal, bit for bit, the plain sweeps
over the filtered set that add one rectangle at a time, ``hv_3d`` one
``hv_2d`` per f3 level; the tests hold both as oracles. The bits agree
because the points the sweeps skip are dominated rows and repeats. A
dominated point enters the 3-d staircase only ahead of its dominator at the
same f3, which replaces it before any slab is added.
"""

from __future__ import annotations

import bisect
from itertools import accumulate, repeat

import numpy as np

from .errors import InputError, UnsupportedError
from .ioutil import atomic_write_text

CSV_FLOAT_FORMAT = ".17g"

# Learned fronts can meet or beat the reference front numerically; the floor
# keeps the log of the hypervolume gap finite.
LOG_HV_FLOOR = 1e-12


def _as_points(points, dim: int | None = None) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InputError("expected a nonempty (N, m) array of objective vectors")
    if dim is not None and pts.shape[1] != dim:
        raise InputError(f"expected {dim}-objective points, got {pts.shape[1]}")
    if not np.isfinite(pts).all():
        raise InputError("objective vectors must be finite")
    return pts


def _as_reference(reference, dim: int) -> np.ndarray:
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != (dim,):
        raise InputError(f"reference point must have length {dim}")
    if not np.isfinite(ref).all():
        raise InputError(f"reference point must be finite, got {ref.tolist()}")
    return ref


def _front_2d(f2: np.ndarray) -> np.ndarray:
    """Which rows of a lexicographically sorted 2-d set no earlier row weakly
    dominates: those whose f2 is below every earlier row's f2."""
    below = np.concatenate(([np.inf], np.minimum.accumulate(f2[:-1])))
    return f2 < below


def nondominated_filter(points) -> np.ndarray:
    """Keep exactly the points no other point dominates.

    Dominance is weak inequality everywhere plus strict inequality somewhere.
    Rows equal by value survive dominance but collapse to their first
    occurrence. Survivors keep their input order. Implemented for 1 to 3
    objectives.
    """
    pts = _as_points(points)
    m = pts.shape[1]
    if m > 3:
        raise UnsupportedError(f"nondominated filtering is implemented for up to 3 objectives, got {m}")
    # In lexicographic order, stable among equal rows, a row's dominators and
    # earlier equal rows all come before it.
    order = np.lexsort(pts.T[::-1])
    ranked = pts[order]
    if m == 1:
        kept = order[:1]
    elif m == 2:
        kept = order[_front_2d(ranked[:, 1])]
    else:
        # Kung, Luccio & Preparata's sweep: a row goes exactly when the
        # staircase of the earlier rows' (f2, f3) weakly covers it.
        xs: list[float] = []
        ys: list[float] = []
        kept = order[[_enter_staircase(xs, ys, x, y) >= 0 for x, y in ranked[:, 1:].tolist()]]
    return pts[np.sort(kept)]


def _enter_staircase(xs: list[float], ys: list[float], x: float, y: float) -> int:
    """Add (x, y) to the staircase ``xs`` rising, ``ys`` falling, unless a
    step weakly dominates it, and drop the steps it weakly dominates; returns
    the index it entered at, or -1. Only the last step at or left of x can
    dominate it.
    """
    left = bisect.bisect_right(xs, x)
    if left and ys[left - 1] <= y:
        return -1
    stop = end = bisect.bisect_left(xs, x)
    while end < len(xs) and ys[end] >= y:
        end += 1
    xs[stop:end] = [x]
    ys[stop:end] = [y]
    return stop


def _staircase_area(f1: np.ndarray, f2: np.ndarray, ref: np.ndarray) -> float:
    """Area a staircase sorted by f1 dominates, one rectangle at a time from
    the left: ``np.add.accumulate`` is a left fold, unlike ``np.sum``."""
    prev = np.concatenate((ref[1:2], f2[:-1]))
    terms = (ref[0] - f1) * (prev - f2)
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def hv_2d(points, reference) -> float:
    """Exact hypervolume of a 2-d point set against a reference point.

    Points not strictly below the reference in both objectives are clipped
    out; an empty remainder has hypervolume 0.
    """
    pts = _as_points(points, dim=2)
    ref = _as_reference(reference, 2)
    pts = pts[(pts < ref).all(axis=1)]
    if not len(pts):
        return 0.0
    pts = pts[np.lexsort(pts.T[::-1])]
    front = pts[_front_2d(pts[:, 1])]
    return _staircase_area(front[:, 0], front[:, 1], ref)


def hv_3d(points, reference) -> float:
    """Exact hypervolume of a 3-d point set against a reference point,
    clipped as :func:`hv_2d` clips, by a sweep over f3.

    Between consecutive f3 levels the dominated cross-section is constant:
    the area of the (f1, f2) staircase of the points seen so far, each slab
    adding it times its thickness. ``terms[j]`` is step j's rectangle
    ``(r0 - xs[j]) * (ys[j - 1] - ys[j])`` (``r1`` for ``ys[-1]``) and
    ``sums[j]`` the left fold of ``terms[:j]``, so ``sums[-1]`` is the area
    bit for bit as :func:`_staircase_area` adds it. A point entering at i
    changes only terms i and i + 1, and the sums after i. Slabs run between
    the levels of points that enter: a point the staircase covers is
    dominated or repeated and changes no cross-section.
    """
    pts = _as_points(points, dim=3)
    ref = _as_reference(reference, 3)
    pts = pts[(pts < ref).all(axis=1)]
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    r0, r1 = float(ref[0]), float(ref[1])
    xs: list[float] = []
    ys: list[float] = []
    terms: list[float] = []
    sums = [0.0]
    volume = 0.0
    # The level of the last point that entered; every clipped f3 is below
    # the reference, so the first entry adds no slab.
    level = top = float(ref[2])
    for x, y, z in pts.tolist():
        i = _enter_staircase(xs, ys, x, y)
        if i < 0:
            continue
        # The slab up to z holds the staircase as it was before this point.
        if z > level:
            volume += (z - level) * sums[-1]
        level = z
        # It replaced the old steps i..end-1; the old step end is now i + 1.
        end = len(terms) - len(xs) + i + 1
        changed = [(r0 - x) * ((ys[i - 1] if i else r1) - y)]
        if i + 1 < len(xs):
            changed.append((r0 - xs[i + 1]) * (y - ys[i + 1]))
        terms[i : end + 1] = changed
        sums[i:] = accumulate(terms[i:], initial=sums[i])
    if top > level:
        volume += (top - level) * sums[-1]
    return volume


def hypervolume(points, reference) -> float:
    """Exact hypervolume, by the reference point's length: 2 or 3 objectives."""
    shape = np.shape(reference)
    if len(shape) != 1:
        raise InputError(f"reference point must have shape (m,) for m = 2 or 3 objectives, got shape {shape}")
    if shape[0] == 2:
        return hv_2d(points, reference)
    if shape[0] == 3:
        return hv_3d(points, reference)
    raise UnsupportedError(f"exact hypervolume is implemented for 2 or 3 objectives, got {shape[0]}")


def log_hv_diff(hv_true: float, hv_learned: float) -> float:
    """log10 of the hypervolume gap, floored to stay finite."""
    if hv_true < 0.0:
        raise InputError(f"true hypervolume must be nonnegative, got {hv_true}")
    return float(np.log10(max(hv_true - hv_learned, LOG_HV_FLOOR)))


# ---------------------------------------------------------------------------
# Front files
# ---------------------------------------------------------------------------


def csv_float(value) -> str:
    """A float as written to every CSV file, with None as nan."""
    if value is None:
        return "nan"
    return format(float(value), CSV_FLOAT_FORMAT)


def write_front_csv(path: str, points, reference) -> None:
    """Write one objective vector per row, with the objective count and
    reference point recorded in a leading comment line."""
    pts = _as_points(points)
    ref = _as_reference(reference, pts.shape[1])
    m = pts.shape[1]
    header = "# m=%d reference=%s\n%s\n" % (m, ",".join(csv_float(r) for r in ref), _column_names(m))
    row = ",".join(["%" + CSV_FLOAT_FORMAT] * m) + "\n"  # printf-style, the same digits as csv_float
    atomic_write_text(path, header + (row * len(pts)) % tuple(pts.ravel().tolist()))


def _column_names(m: int) -> str:
    return ",".join(f"f{j + 1}" for j in range(m))


def read_front_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a front file back; returns (points, reference).

    The format is what :func:`write_front_csv` writes: a ``# m=M
    reference=r1,...,rM`` comment line, the column-name line ``f1,...,fM``,
    then one row of M comma-separated values per point, each token read as
    Python's ``float()`` reads it. Lines are stripped of surrounding
    whitespace and blank lines are skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read front file {path!r}: {exc}") from exc
    lines = [line for line in map(str.strip, text.split("\n")) if line]
    if not lines or not lines[0].startswith("#"):
        raise InputError(f"{path!r} is not a front file (missing header comment)")
    header = lines[0][1:].strip()
    fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
    try:
        m = int(fields["m"])
        reference = np.array([float(v) for v in fields["reference"].split(",")])
    except (KeyError, ValueError) as exc:
        raise InputError(f"front file header is malformed: {exc}") from exc
    if reference.shape != (m,):
        raise InputError("front file header reference does not match m")
    if len(lines) > 1 and lines[1] != _column_names(m):
        raise InputError(f"front file column-name line is {lines[1]!r}, expected {_column_names(m)!r}")
    rows = lines[2:]
    if not rows:
        raise InputError("front file contains no points")
    # One conversion for the whole body; NumPy reads each str token with
    # float(). Every row must hold m values, or a short row and a long row
    # would reshape silently.
    if set(map(str.count, rows, repeat(","))) == {m - 1}:
        try:
            return np.array(",".join(rows).split(","), dtype=np.float64).reshape(len(rows), m), reference
        except ValueError:
            pass
    # Some row is malformed: parse row by row to name the first one.
    for line in rows:
        try:
            values = [float(v) for v in line.split(",")]
        except ValueError:
            raise InputError(f"front row {line!r} is not a comma-separated list of numbers") from None
        if len(values) != m:
            raise InputError(f"front row has {len(values)} values, expected {m}")
    raise AssertionError("a front row failed the bulk parse but parses alone")
