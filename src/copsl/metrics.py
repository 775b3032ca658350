"""Front quality metrics: dominance filtering and hypervolume.

Hypervolume is the Lebesgue measure of the objective-space region dominated
by a point set and bounded above by a reference point. The 2-d computation is
the classic sweep over the sorted nondominated set; the 3-d computation
sweeps the third coordinate and accumulates slab volumes from 2-d
hypervolumes of the growing projection. Both are exact for finite sets; the
Monte Carlo estimator exists as an independent statistical cross-check.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, UnsupportedError
from .ioutil import atomic_write_text
from .sampling import RngStream

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


def nondominated_filter(points) -> np.ndarray:
    """Keep exactly the points no other point dominates.

    Dominance is weak inequality everywhere plus strict inequality somewhere.
    Duplicate rows survive dominance but collapse to their first occurrence.
    """
    pts = _as_points(points)
    a = pts[:, None, :]  # candidate dominator j in axis 0 when indexed [j, i]
    b = pts[None, :, :]
    le_all = (a <= b).all(axis=2)
    lt_any = (a < b).any(axis=2)
    dominated = (le_all & lt_any).any(axis=0)
    survivors = pts[~dominated]
    seen: set[bytes] = set()
    rows = []
    for row in survivors:
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return np.array(rows)


def hv_2d(points, reference) -> float:
    """Exact hypervolume of a 2-d point set against a reference point.

    Points not strictly below the reference in both objectives are clipped
    out; an empty remainder has hypervolume 0.
    """
    pts = _as_points(points, dim=2)
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != (2,):
        raise InputError("reference point must have length 2")
    pts = pts[(pts < ref).all(axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    front = nondominated_filter(pts)
    front = front[np.argsort(front[:, 0], kind="stable")]
    volume = 0.0
    prev_f2 = ref[1]
    for f1, f2 in front:
        volume += (ref[0] - f1) * (prev_f2 - f2)
        prev_f2 = f2
    return float(volume)


def hv_3d(points, reference) -> float:
    """Exact hypervolume of a 3-d point set via a sweep over f3.

    Between consecutive f3 levels the dominated cross-section is constant, so
    the volume is the 2-d hypervolume of the points seen so far times the
    slab thickness.
    """
    pts = _as_points(points, dim=3)
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != (3,):
        raise InputError("reference point must have length 3")
    pts = pts[(pts < ref).all(axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    front = nondominated_filter(pts)
    front = front[np.argsort(front[:, 2], kind="stable")]
    levels = front[:, 2]
    volume = 0.0
    for k in range(front.shape[0]):
        top = levels[k + 1] if k + 1 < front.shape[0] else ref[2]
        thickness = top - levels[k]
        if thickness > 0.0:
            volume += thickness * hv_2d(front[: k + 1, :2], ref[:2])
    return float(volume)


def hypervolume(points, reference) -> float:
    """Exact hypervolume, by the reference point's length: 2 or 3 objectives."""
    m = len(reference)
    if m == 2:
        return hv_2d(points, reference)
    if m == 3:
        return hv_3d(points, reference)
    raise UnsupportedError(f"exact hypervolume is implemented for 2 or 3 objectives, got {m}")


def hv_monte_carlo(points, reference, samples: int, rng: RngStream) -> tuple[float, float]:
    """Monte Carlo hypervolume estimate with its binomial standard error.

    Samples uniformly in the box spanned by the componentwise minimum of the
    points and the reference point; a sample counts as a hit when some point
    weakly dominates it.
    """
    pts = _as_points(points)
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != (pts.shape[1],):
        raise InputError(f"reference point must have length {pts.shape[1]}")
    if samples < 1:
        raise InputError("need at least one sample")
    lower = pts.min(axis=0)
    widths = ref - lower
    if (widths <= 0.0).any():
        return 0.0, 0.0
    box_volume = float(np.prod(widths))
    chunk = max(1024, int(2_000_000 // max(pts.shape[0], 1)))
    hits = 0
    remaining = samples
    while remaining > 0:
        k = min(chunk, remaining)
        u = rng.random((k, pts.shape[1]))
        draws = lower + widths * u
        dominated = (pts[None, :, :] <= draws[:, None, :]).all(axis=2).any(axis=1)
        hits += int(dominated.sum())
        remaining -= k
    rate = hits / samples
    estimate = box_volume * rate
    std_error = box_volume * float(np.sqrt(rate * (1.0 - rate) / samples))
    return estimate, std_error


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
    ref = np.asarray(reference, dtype=np.float64)
    if ref.shape != (pts.shape[1],):
        raise InputError(f"reference point must have length {pts.shape[1]}")
    m = pts.shape[1]
    lines = [
        "# m=%d reference=%s" % (m, ",".join(csv_float(r) for r in ref)),
        ",".join(f"f{j + 1}" for j in range(m)),
    ]
    lines.extend(",".join(csv_float(v) for v in row) for row in pts)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_front_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a front file back; returns (points, reference)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise InputError(f"cannot read front file {path!r}: {exc}") from exc
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
    rows = []
    for line in lines[2:]:  # skip the column-name line
        values = [float(v) for v in line.split(",")]
        if len(values) != m:
            raise InputError(f"front row has {len(values)} values, expected {m}")
        rows.append(values)
    if not rows:
        raise InputError("front file contains no points")
    return np.array(rows, dtype=np.float64), reference
