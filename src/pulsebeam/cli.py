"""Command-line front end: grid sampling of field quantities to CSV.

Subcommands:

    distance    p/q maps of the complex radial coordinate over a grid
    propagator  Re/Im/abs of the extended impulse field over a grid
    wavelet     Re/Im/abs of a driven beam wavelet over a grid
    pattern     duration, angular pattern, and peak versus polar angle
    channel     link metrics, amplitude, and a receiver-tilt gain scan
    verify      run the acceptance checks and print a pass/fail table

Configuration is a JSON file; command-line flags override config fields
(precedence: flag > config > default).  Every JSON object read (the
config root, whose fields `_RUNNERS` declares, and the channel link
included) refuses a missing required field or an unknown one, naming the
object.  Every numeric field is checked on the way in: a non-numeric,
non-finite or (where an integer is due) fractional or boolean value is a
validation error naming the field, and the grid and theta sample counts
are checked against `max_points` before any sample is built.  CSV files
are written atomically (temp file + rename) with a header row, shortest
round-trip floats, '.' decimal separator, and Unix newlines.  Row order
is row-major over the grid axes in declaration order (x1, x2, x3, t).
Rows are written as they are computed; an error at any point aborts the
grid, names the point, and leaves no file behind (no partial CSV, no
temp file).  Guarded singular points get empty value cells and a status
flag; a value that overflows a float is an accuracy error, never a NaN
or inf.

Every subcommand writes through one grid writer; `pattern` and `channel`
are grids over the one axis theta.  Grids are evaluated in blocks of
`geometry._BLOCK` (4,096) points in row order, and each block is written
as one string as soon as it is computed.  No axis is built whole: each
block's coordinates are generated from the axes' (min, max, count) at its
own indices, with numpy's `linspace` arithmetic.  An axis of at most a
block's length is formatted once, before the first block; a longer one is
formatted in each block, only where the block reaches, so memory stays
bounded whatever the grid size.  The first block is evaluated before the
file is opened.
Each subcommand has one evaluation function, which turns a block of
points into its cell columns.  In a block that it refuses (a root or a
value that overflows a float), bisection over slices of the block
through the same function finds the first bad row, which aborts the
grid, named by its index and point.  `distance` and `propagator`
evaluate a block with the array kernels `geometry._distance_block` and
`propagator._impulse_field_block`, which are bit-identical to the scalar
functions; the propagator's first refused row is evaluated by the scalar
`_impulse_field`, whose error text it raises.  `wavelet` takes the
block's complex distances p - iq from `_distance_block` too (for a
purely temporal extension, p = |x| and q = 0), and evaluates the field
once per distinct bit pattern of (p, q, t) in the block: the field
depends on a point only through them, so a grid slice through the
extension axis repeats each argument at its mirror point.  Nothing is
kept from one block to the next.  `pattern` and `channel` evaluate a
block with `beam_profile` and `gain_scan`.

Evaluation runs in one thread.  `--threads` is still accepted for
compatibility, as an integer >= 1; it does not change the output or the
evaluation.

Exit codes: 0 success, 1 validation error (a command-line usage error
included), 2 accuracy error (including a float overflow), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from typing import Callable, Iterable, Sequence, Tuple

import numpy as np

from .channel import (
    channel_amplitude,
    channel_from_json,
    channel_metrics,
    gain_scan,
)
from .errors import AccuracyError, ValidationError
from ._rows import _norm_rows
from .geometry import _BLOCK, ComplexDistance, _distance_block, _tolerance
from .propagator import _impulse_field, _impulse_field_block, beam_profile
from .signals import DeltaDerivative, DrivingSignal, GaussianPulse, SampledSignal
from .spacetime import ConeVector, _fields, norm3
from .wavelet import _field

GRID_AXES = ("x1", "x2", "x3", "t")
FIELD_COLUMNS = ("re", "im", "abs", "status")
DEFAULT_POINT_CAP = 10**8
_AXIS_FIELDS = ("min", "max", "count")


# ---------------------------------------------------------------------------
# grid and run configuration
# ---------------------------------------------------------------------------


def _number(value, field: str, integer: bool = False):
    """The config value at `field` as a finite float, or as an int when integer=True.

    The numeric config fields pass through here, so a malformed value is a
    ValidationError naming its field, never a raw conversion error.
    """
    number = math.nan
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if integer and number.is_integer():
        return int(number)
    if not integer and math.isfinite(number):
        return number
    kind = "an integer" if integer else "a finite number"
    raise ValidationError(f"'{field}' must be {kind}, got {value!r}")


def _linspace_at(axis: Tuple[float, float, int], index: np.ndarray) -> np.ndarray:
    """numpy.linspace(lo, hi, count)[index] for an axis (lo, hi, count), without the rest of it.

    Bit for bit: transcribed from `linspace` in numpy/_core/function_base.py
    of numpy 2.4.6, for float ends and endpoint=True.  It takes the indices
    as floats, multiplies them by the step delta/div (or divides them by
    div and multiplies by delta, where that step underflows to zero:
    numpy's gh-5437), adds lo, and sets the last sample to hi itself.
    """
    lo, hi, count = axis
    div = count - 1
    delta = hi - lo
    y = index.astype(np.float64)
    with np.errstate(all="ignore"):
        if div > 0:
            step = delta / div
            if step == 0:
                y /= div
                y *= delta
            else:
                y *= step
        else:
            y *= delta
        y += lo
    if div > 0:
        y[index == div] = hi
    return y


def _axis(name: str, spec) -> Tuple[int, Callable[[], Tuple[float, float, int]]]:
    """Validated sample axis at config path `name`: its count, and a function checking it.

    The count is known before anything is allocated, so callers can check
    the point cap first.  The function refuses an axis whose samples
    overflow a float, and returns it as (lo, hi, count): it builds no
    sample array, since the grid writer generates each block's coordinates
    with `_linspace_at`.
    """
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        lo = hi = _number(spec, name)
        count = 1
    elif isinstance(spec, dict):
        _fields(spec, name, _AXIS_FIELDS)
        lo = _number(spec["min"], f"{name}.min")
        hi = _number(spec["max"], f"{name}.max")
        count = _number(spec["count"], f"{name}.count", integer=True)
        if count < 1:
            raise ValidationError(f"'{name}.count' must be >= 1, got {count}")
        if lo > hi:
            raise ValidationError(f"'{name}' needs min <= max, got {lo} > {hi}")
    else:
        raise ValidationError(f"'{name}' must be a number (fixed) or an object with min/max/count")

    def build():
        axis = (lo, hi, count)
        # the samples rise with the index, so the first one and the last
        # before hi bound them
        if not np.isfinite(_linspace_at(axis, np.array([0, max(count - 2, 0)]))).all():
            raise ValidationError(f"'{name}' samples between {lo} and {hi} overflow a float")
        return axis

    return count, build


def _check_cap(config: dict, total: int, what: str) -> None:
    """Refuse more than max_points samples; callers check before building any."""
    cap = _number(config.get("max_points", DEFAULT_POINT_CAP), "max_points", integer=True)
    if cap < 1:
        raise ValidationError(f"'max_points' must be >= 1, got {cap}")
    if total > cap:
        raise ValidationError(
            f"{what} has {total} points, exceeding the cap of {cap}; "
            "refusing before any computation"
        )


def grid_from_config(config: dict, names: Sequence[str]) -> Tuple[Tuple[float, float, int], ...]:
    """The (lo, hi, count) of each axis in `names`, in that order, once the point cap is checked.

    No axis is built here: the grid writer generates each block's samples.
    """
    grid_cfg = _fields(config.get("grid", {}), "grid", optional=names)
    axes = [(name, *_axis(f"grid.{name}", grid_cfg.get(name, 0.0))) for name in names]
    _check_cap(config, math.prod(count for _, count, _ in axes), "grid")
    return tuple(build() for _, _, build in axes)


_SIGNAL_FIELDS = {
    "delta": ("order",),
    "gaussian": ("center", "width", "amplitude"),
    "sampled": ("path", "times", "values"),
}


def signal_from_config(obj) -> DrivingSignal:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError("'signal' must be an object with a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _SIGNAL_FIELDS:
        raise ValidationError(f"unknown signal type {kind!r}; use delta, gaussian, or sampled")
    _fields(obj, "signal", ("type",), _SIGNAL_FIELDS[kind])
    if kind == "delta":
        return DeltaDerivative(_number(obj.get("order", 0), "signal.order", integer=True))
    if kind == "gaussian":
        return GaussianPulse(
            center=_number(obj.get("center", 0.0), "signal.center"),
            width=_number(obj.get("width", 1.0), "signal.width"),
            amplitude=_number(obj.get("amplitude", 1.0), "signal.amplitude"),
        )
    # exactly one source: the path, or the samples as a pair
    samples = [key for key in ("times", "values") if key in obj]
    if ("path" in obj) == bool(samples) or len(samples) == 1:
        raise ValidationError("sampled signal needs either 'path' or 'times'+'values', not both")
    if "path" in obj:
        if not isinstance(obj["path"], str):
            raise ValidationError(f"'signal.path' must be a string, got {obj['path']!r}")
        return SampledSignal.from_csv(obj["path"])
    if not (isinstance(obj["times"], list) and isinstance(obj["values"], list)):
        raise ValidationError("sampled signal 'times' and 'values' must be arrays")
    return SampledSignal(
        tuple(_number(v, f"signal.times[{i}]") for i, v in enumerate(obj["times"])),
        tuple(_number(v, f"signal.values[{i}]") for i, v in enumerate(obj["values"])),
    )


def extent_from_config(config: dict) -> ConeVector:
    ext = config["extent"]
    if not isinstance(ext, (list, tuple)) or len(ext) != 4:
        raise ValidationError("'extent' must be a 4-element array [y1, y2, y3, s]")
    y1, y2, y3, lag = (_number(v, f"extent[{i}]") for i, v in enumerate(ext))
    return ConeVector((y1, y2, y3), lag)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    """Shortest decimal that round-trips; a NaN or inf is an AccuracyError, never a cell."""
    value = float(value)
    if not math.isfinite(value):
        raise AccuracyError(f"value {value!r} does not fit a float", value=value)
    return repr(value)


def write_csv(path: str, header: Sequence[str], chunks: Iterable[str]) -> None:
    """Write atomically: temp file in the target directory, then rename.

    chunks is the text after the header row, one string per block of
    whole rows, each row ending in a newline.  It may be a generator; if
    it raises, the temp file is removed and nothing appears at path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=".pulsebeam-", suffix=".csv", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(",".join(header) + "\n")
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _near_circle_tol(config: dict):
    tol = config.get("near_circle_tol")
    return None if tol is None else _tolerance(_number(tol, "near_circle_tol"), "'near_circle_tol'")


def _write_grid(
    out: str, names: Tuple[str, ...], axes: Sequence, columns: Tuple[str, ...], evaluate: Callable
) -> None:
    """Stream one row per grid point, row-major over `axes`: its coordinates, then its cells.

    The points go in blocks of `_BLOCK` rows, each written as one string,
    and the first block is evaluated before the file is opened.  Each axis
    is a (lo, hi, count), and each block generates its coordinates at its
    own indices with `_linspace_at`, so memory does not grow with an
    axis's length.  An axis of at most `_BLOCK` values is formatted once,
    before the first block; a longer one, in each block, only where the
    block reaches.
    evaluate(points) gets a block as an (n, len(names)) array and returns
    its cell columns; it raises on a slice of rows exactly when one of
    them raises alone.  When it raises an accuracy or float-overflow
    error, bisection finds the first row of the block that raises
    (evaluate on the first half of the rows still in question, then on
    the half that holds it), at most log2(_BLOCK) calls, and one more call
    on that row alone aborts the grid with an AccuracyError naming its
    index and point.
    """
    shape = tuple(count for _, _, count in axes)
    total = math.prod(shape)
    strides = [math.prod(shape[k + 1 :]) for k in range(len(shape))]
    formatted = [
        np.array(_cells(_linspace_at(axis, np.arange(n))), dtype=object) if n <= _BLOCK else None
        for axis, n in zip(axes, shape)
    ]

    def block(start):
        rows = np.arange(start, min(start + _BLOCK, total))
        points, coordinates = [], []
        for axis, n, stride, whole in zip(axes, shape, strides, formatted):
            steps = rows // stride
            index = steps % n
            points.append(_linspace_at(axis, index))
            if whole is not None:
                coordinates.append(whole[index].tolist())
            else:
                # a long axis: the block's steps along it, counted across its wraps,
                # format each of its distinct coordinates once, at most _BLOCK + 1
                lo = int(steps[0])
                count = min(int(steps[-1]) - lo + 1, n)
                local = np.array(_cells(_linspace_at(axis, np.arange(lo, lo + count) % n)), object)
                coordinates.append(local[(steps - lo) % count].tolist())
        points = np.column_stack(points)
        try:
            cells = evaluate(points)
        except (AccuracyError, ArithmeticError):
            # rows [lo, hi) hold the first row that raises
            lo, hi = 0, len(points)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    evaluate(points[lo:mid])
                except (AccuracyError, ArithmeticError):
                    hi = mid
                else:
                    lo = mid
            try:
                evaluate(points[lo:hi])
            except (AccuracyError, ArithmeticError) as exc:
                point = zip(names, points[lo].tolist())
                where = ", ".join(f"{name}={value!r}" for name, value in point)
                raise AccuracyError(
                    f"grid row {start + lo} ({where}): {exc}",
                    value=getattr(exc, "value", None),
                    estimate=getattr(exc, "estimate", None),
                ) from exc
            raise
        return "\n".join(map(",".join, zip(*coordinates, *cells))) + "\n"

    def stream(first):
        yield first
        for start in range(_BLOCK, total, _BLOCK):
            yield block(start)

    write_csv(out, names + columns, stream(block(0)))


def _cells(values: np.ndarray, blank: np.ndarray | None = None) -> list:
    """The CSV cells of finite values, empty where blank is set."""
    cells = list(map(repr, values.tolist()))
    if blank is not None:
        for k in np.flatnonzero(blank).tolist():
            cells[k] = ""
    return cells


# status cells, indexed by on_cut + 2 * guarded: a guarded point is flagged on the cut too
_STATUS = {
    guard: np.array(("ok", "on_cut", guard, guard), dtype=object)
    for guard in ("on_circle", "singular")
}


def _status(on_cut: np.ndarray, guarded: np.ndarray, guard: str) -> list:
    """The status cell of every row: `guard` where guarded, else on_cut or ok."""
    return _STATUS[guard][on_cut + 2 * guarded].tolist()


def _run_distance(config: dict, out: str) -> None:
    extent = extent_from_config(config)
    if extent.radius == 0.0:
        raise ValidationError("distance maps need a nonzero spatial extension")
    extension = np.array([extent.space])
    tol = _near_circle_tol(config)

    def evaluate(points):
        _, _, _, p, q, on_cut, near_circle = _distance_block(points, extension, tol)
        return _cells(p), _cells(q), _status(on_cut, near_circle, "on_circle")

    names = ("x1", "x2", "x3")
    _write_grid(out, names, grid_from_config(config, names), ("p", "q", "status"), evaluate)


def _run_propagator(config: dict, out: str) -> None:
    extent = extent_from_config(config)
    if not extent.is_interior or extent.radius == 0.0:
        raise ValidationError(
            "propagator maps need an interior extension with nonzero spatial part"
        )
    extension = np.array([extent.space])
    tol = _near_circle_tol(config)

    def evaluate(points):
        space, t = points[:, :3], points[:, 3]
        _, _, _, p, q, on_cut, singular = _distance_block(space, extension, tol)
        re, im, magnitude, bad = _impulse_field_block(p, q, t, extent.time)
        refused = (bad | ~np.isfinite(magnitude)) & ~singular
        if refused.any():
            k = int(np.argmax(refused))
            dist = ComplexDistance(float(p[k]), float(q[k]))
            # the first refused row raises: a bad row in _impulse_field, an overflow in abs
            abs(_impulse_field(dist, float(t[k]), extent.time))
        cells = (_cells(col, singular) for col in (re, im, magnitude))
        return (*cells, _status(on_cut, singular, "singular"))

    _write_grid(out, GRID_AXES, grid_from_config(config, GRID_AXES), FIELD_COLUMNS, evaluate)


def _run_wavelet(config: dict, out: str) -> None:
    extent = extent_from_config(config)
    if not extent.is_interior:
        raise ValidationError("wavelet maps need an interior extension")
    signal = signal_from_config(config.get("signal", {"type": "delta"}))
    extension = np.array([extent.space])
    tol = _near_circle_tol(config)

    def evaluate(points):
        space, t = points[:, :3], points[:, 3]
        if extent.radius == 0.0:
            # the radial coordinate is |x|; only the origin, guarded by tol, is singular
            p = _norm_rows(space)
            q = np.zeros_like(p)
            on_cut = np.zeros(len(p), dtype=bool)
            singular = (p < (0.0 if tol is None else tol)) | (p == 0.0)
        else:
            _, _, _, p, q, on_cut, singular = _distance_block(space, extension, tol)
        ok = ~singular
        # one field per distinct bit pattern of (p, q, t), so -0.0 and 0.0 stay apart
        arguments = np.column_stack((p[ok], q[ok], t[ok]))
        _, first, inverse = np.unique(
            arguments.view(np.dtype((np.void, 24))).ravel(), return_index=True, return_inverse=True
        )
        values = np.empty((len(first), 3), dtype=object)
        for k, (pk, qk, tk) in enumerate(arguments[first].tolist()):
            field = _field(signal, ComplexDistance(pk, qk), tk, extent.time)
            values[k] = list(map(format_float, (field.real, field.imag, abs(field))))
        cells = np.full((len(p), 3), "", dtype=object)
        cells[ok] = values[inverse]
        return (*cells.T.tolist(), _status(on_cut, singular, "singular"))

    _write_grid(out, GRID_AXES, grid_from_config(config, GRID_AXES), FIELD_COLUMNS, evaluate)


def _theta_axis(config: dict, default_min: float, default_max: float, default_count: int):
    """`_axis`'s function for the theta axis, once its spec and its count are checked."""
    theta_cfg = _fields(config.get("theta", {}), "theta", optional=_AXIS_FIELDS)
    spec = {"min": default_min, "max": default_max, "count": default_count, **theta_cfg}
    count, build = _axis("theta", spec)
    _check_cap(config, count, "theta")
    return build


def _run_pattern(config: dict, out: str) -> None:
    s, a, r = (_number(config[key], key) for key in ("s", "a", "r"))
    thetas = _theta_axis(config, 0.0, math.pi, 181)()

    def evaluate(points):
        profile = beam_profile(s, a, r, points[:, 0])
        columns = (profile.duration, profile.pattern, profile.peak)
        return [list(map(format_float, column)) for column in columns]

    _write_grid(out, ("theta",), (thetas,), ("duration", "pattern", "peak"), evaluate)


def _run_channel(config: dict, out: str) -> None:
    ch = channel_from_json(config["channel"])
    signal = signal_from_config(config.get("signal", {"type": "delta"}))
    separation = norm3(ch.separation.space)
    if separation <= 0.0:
        raise ValidationError("channel endpoints must be spatially separated for a scan")
    # theta is checked before the amplitude's quadrature, and built after it
    build_theta = _theta_axis(config, -math.pi, math.pi, 721)
    metrics = channel_metrics(ch)
    amplitude = channel_amplitude(ch, signal)
    emitter, receiver = ch.emitter_extent, ch.receiver_extent

    def evaluate(points):
        scan = gain_scan(
            emitter.radius, emitter.time, receiver.radius, receiver.time, separation, points[:, 0]
        )
        return ([format_float(peak) for _, peak in scan],)

    _write_grid(out, ("theta",), (build_theta(),), ("peak",), evaluate)

    def jsonable(value):
        # infinite bandwidth (an idealized point endpoint, or a duration
        # below the float range): string sentinel, keeping the summary strict JSON
        return value if math.isfinite(value) else "inf"

    summary = {
        "metrics": {name: jsonable(value) for name, value in asdict(metrics).items()},
        "amplitude": {
            "re": amplitude.real,
            "im": amplitude.imag,
            "abs": abs(amplitude),
        },
        "separation": separation,
        "scan_csv": out,
    }
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _run_verify(only) -> int:
    from .verification import run_checks

    results = run_checks(only=only)
    width = max(len(result.name) for result in results)
    failures = 0
    for result in results:
        flag = "PASS" if result.passed else "FAIL"
        print(f"[{result.ident:>2}] {result.name:<{width}}  {flag}  {result.detail}")
        failures += 0 if result.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _load_config(path: str):
    def unique(pairs):
        # json keeps the last of a repeated key; a config that repeats one is ambiguous
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValidationError(f"config file {path} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=unique)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # int() refuses a literal over sys.get_int_max_str_digits() digits
        raise ValidationError(f"config file {path} has a number too long to read: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"config file {path} nests too deeply to parse") from None


# name: (runner, required root fields, optional root fields); main also reads "out"
_RUNNERS = {
    "distance": (_run_distance, ("extent",), ("grid", "near_circle_tol", "max_points")),
    "propagator": (_run_propagator, ("extent",), ("grid", "near_circle_tol", "max_points")),
    "wavelet": (_run_wavelet, ("extent",), ("grid", "signal", "near_circle_tol", "max_points")),
    "pattern": (_run_pattern, ("s", "a", "r"), ("theta", "max_points")),
    "channel": (_run_channel, ("channel",), ("signal", "theta", "max_points")),
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a ValidationError: exit 1 with one line, like a bad config."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pulsebeam",
        description="Grid sampling and verification for pulsed-beam wave fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        cmd.add_argument("--out", help="output CSV path (overrides config 'out')")
        cmd.add_argument(
            "--threads", type=int, help="accepted for compatibility; rows are evaluated serially"
        )
    verify = sub.add_parser("verify")
    verify.add_argument("--only", help="comma-separated list of check ids to run")
    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    try:
        # built on the first call; parsing reads the parser and changes nothing in it
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
        if args.command == "verify":
            return _run_verify(None if args.only is None else args.only.split(","))
        runner, required, optional = _RUNNERS[args.command]
        config = _fields(_load_config(args.config), "config root", required, (*optional, "out"))
        if args.threads is not None and args.threads < 1:
            raise ValidationError(f"thread count must be >= 1, got {args.threads}")
        out = args.out or config.get("out")
        if not out:
            raise ValidationError("no output path: pass --out or set 'out' in the config")
        if not isinstance(out, str):
            raise ValidationError(f"'out' must be a string, got {out!r}")
        runner(config, out)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AccuracyError, ArithmeticError) as exc:
        # a float overflow or underflow to zero: the result is not representable
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
