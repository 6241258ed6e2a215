"""File formats and atomic persistence.

CSV carries sampled data (envelopes as ``t_s,i,q``, detector traces as
``t_s,v``, tables per command); JSON carries structured configuration
and results. All writes go through a temp-file-plus-rename so readers
never observe partial files, and numeric formatting is fixed so equal
data produces byte-equal files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from .envelope import ComplexEnvelope, InvalidSpecError, TimeGrid
from .demod import BeatTrace
from .sysid import VolterraModel
from .channel import AcoustoOpticParams, ChannelConfig
from .optics import ABCDElement, OpticalTrain

# 17 significant digits (trailing zeros dropped): enough for every float64
# to round-trip, though not always the shortest string that does.
FLOAT_FMT = "%.17g"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to ``path`` via a same-directory temp file and rename.

    The temp file is created with mode 0o666, so the file gets the mode
    the process umask leaves, as a plain ``open`` would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: str, columns) -> str:
    columns = [np.asarray(c, dtype=float).tolist() for c in columns]
    row = ",".join([FLOAT_FMT] * len(columns))
    rows = [row % values for values in zip(*columns)]
    return header + "\n" + "\n".join(rows) + ("\n" if rows else "")


def _read_csv(path: str, expected_header: str) -> np.ndarray:
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise InvalidSpecError(
                f"{path}: expected header {expected_header!r}, "
                f"got {header!r}")
        # NumPy only warns on a file without rows, naming the file object.
        start = fh.tell()
        line = fh.readline()
        while line and not line.partition("#")[0].strip():
            line = fh.readline()
        if not line:
            raise InvalidSpecError(f"{path}: no data rows")
        fh.seek(start)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InvalidSpecError(f"{path}: {exc}") from exc
    if data.shape[1] != len(expected_header.split(",")):
        raise InvalidSpecError(f"{path}: wrong column count")
    if not np.all(np.isfinite(data)):
        raise InvalidSpecError(f"{path}: values must be finite")
    return data


def _read_json(path: str, from_dict):
    """Parse a JSON object file through ``from_dict``.

    Malformed JSON, a missing key or a bad value raises
    ``InvalidSpecError`` naming the file.
    """
    with open(path, "r") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise InvalidSpecError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidSpecError(f"{path}: expected a JSON object")
    try:
        return from_dict(obj)
    except KeyError as exc:
        raise InvalidSpecError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise InvalidSpecError(f"{path}: bad value: {exc}") from exc


# How many doubles on each side of the span's estimate of a CSV's period
# are tried for the one its times were written from.
_PERIOD_ULPS = 64


def _grid_from_times(t: np.ndarray, path: str) -> TimeGrid:
    """The grid of a CSV's time column.

    Every time in a written CSV is ``TimeGrid.times()`` to the last bit,
    so the period read back is the double nearest the span's estimate
    whose grid gives every time exactly, searched up to ``_PERIOD_ULPS``
    steps to each side. A column no such double fits keeps the estimate
    if its steps agree with it to 1e-6.
    """
    if len(t) < 2:
        raise InvalidSpecError(f"{path}: need at least two samples")
    # From the whole span: t[1] - t[0] loses digits when t0 is far from 0.
    dt = float(t[-1] - t[0]) / (len(t) - 1)
    if dt <= 0:
        raise InvalidSpecError(f"{path}: time column is not uniform")
    t0, last = float(t[0]), float(t[-1])
    for cand in _outward(dt, _PERIOD_ULPS):
        # The last time first, a scalar test, then the whole column.
        if t0 + cand * (len(t) - 1) != last:
            continue
        grid = TimeGrid(t0=t0, dt=cand, n=len(t))
        if np.array_equal(grid.times(), t):
            return grid
    if not np.allclose(np.diff(t), dt, rtol=1e-6, atol=dt * 1e-6):
        raise InvalidSpecError(f"{path}: time column is not uniform")
    return TimeGrid(t0=t0, dt=dt, n=len(t))


def _outward(x: float, steps: int):
    """x, then the doubles 1, 2, ... ``steps`` steps above and below it."""
    yield x
    up = down = x
    for _ in range(steps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
        yield up
        yield down


# ---------------------------------------------------------------- envelopes

def write_envelope_csv(path: str, env: ComplexEnvelope) -> None:
    t = env.grid.times()
    atomic_write_text(path, _csv_text(
        "t_s,i,q", (t, env.samples.real, env.samples.imag)))


def read_envelope_csv(path: str) -> ComplexEnvelope:
    data = _read_csv(path, "t_s,i,q")
    grid = _grid_from_times(data[:, 0], path)
    return ComplexEnvelope(grid, data[:, 1] + 1j * data[:, 2])


def write_envelope_json(path: str, env: ComplexEnvelope) -> None:
    atomic_write_text(path, _json_text({
        "t0": env.grid.t0,
        "dt": env.grid.dt,
        "i": env.samples.real.tolist(),
        "q": env.samples.imag.tolist()}))


def _envelope_from_dict(obj: dict) -> ComplexEnvelope:
    i = np.asarray(obj["i"], dtype=float)
    q = np.asarray(obj["q"], dtype=float)
    grid = TimeGrid(t0=float(obj["t0"]), dt=float(obj["dt"]), n=len(i))
    return ComplexEnvelope(grid, i + 1j * q)


def read_envelope_json(path: str) -> ComplexEnvelope:
    return _read_json(path, _envelope_from_dict)


def read_envelope(path: str) -> ComplexEnvelope:
    """Dispatch on extension: .json or CSV."""
    if path.endswith(".json"):
        return read_envelope_json(path)
    return read_envelope_csv(path)


def write_envelope(path: str, env: ComplexEnvelope) -> None:
    if path.endswith(".json"):
        write_envelope_json(path, env)
    else:
        write_envelope_csv(path, env)


# ------------------------------------------------------------------- traces

def write_trace_csv(path: str, trace: BeatTrace) -> None:
    atomic_write_text(path, _csv_text(
        "t_s,v", (trace.grid.times(), trace.samples)))


def read_trace_csv(path: str) -> BeatTrace:
    data = _read_csv(path, "t_s,v")
    grid = _grid_from_times(data[:, 0], path)
    return BeatTrace(grid, data[:, 1])


# ------------------------------------------------------------------- models

def model_to_dict(model: VolterraModel) -> dict:
    return {"h0_re": model.h0.real, "h0_im": model.h0.imag,
            "h1_re": model.h1.real.tolist(),
            "h1_im": model.h1.imag.tolist()}


def model_from_dict(obj: dict) -> VolterraModel:
    h1 = (np.asarray(obj["h1_re"], dtype=float)
          + 1j * np.asarray(obj["h1_im"], dtype=float))
    return VolterraModel(h0=complex(obj["h0_re"], obj["h0_im"]), h1=h1)


def write_model_json(path: str, model: VolterraModel) -> None:
    atomic_write_text(path, _json_text(model_to_dict(model)))


def read_model_json(path: str) -> VolterraModel:
    return _read_json(path, model_from_dict)


def write_scores_csv(path: str, scores: np.ndarray) -> None:
    scores = np.asarray(scores, dtype=float)
    atomic_write_text(path, _csv_text(
        "lambda,validation_mse", (scores[:, 0], scores[:, 1])))


# ----------------------------------------------------------- channel config

def channel_to_dict(config: ChannelConfig) -> dict:
    return {
        "delay": config.delay,
        "volterra": model_to_dict(config.volterra),
        "aom": dataclasses.asdict(config.aom),
        "aom_enabled": config.aom_enabled,
        "mismatch_kappa": config.mismatch_kappa,
        "noise_sigma": config.noise_sigma,
        "seed": config.seed,
    }


# Modulator settings that older channel files carry; the reflectance's
# constant prefactor they set cancels in every use, so they are ignored.
_LEGACY_AOM_KEYS = ("f_acoustic", "wavelength", "n0", "eta", "theta0", "phi")


def channel_from_dict(obj: dict) -> ChannelConfig:
    aom = {**obj.get("aom", {})}
    for key in _LEGACY_AOM_KEYS:
        aom.pop(key, None)
    cfg = {k: obj[k] for k in ("delay", "aom_enabled", "mismatch_kappa",
                               "noise_sigma", "seed") if k in obj}
    if "volterra" in obj:
        cfg["volterra"] = model_from_dict(obj["volterra"])
    return ChannelConfig(aom=AcoustoOpticParams(**aom), **cfg)


def write_channel_json(path: str, config: ChannelConfig) -> None:
    atomic_write_text(path, _json_text(channel_to_dict(config)))


def read_channel_json(path: str) -> ChannelConfig:
    return _read_json(path, channel_from_dict)


# ------------------------------------------------------------ optics trains

def train_to_dict(train: OpticalTrain) -> dict:
    return {"elements": [{"kind": e.kind, "parameter": e.parameter}
                         for e in train.elements],
            "markers": dict(train.markers)}


def train_from_dict(obj: dict) -> OpticalTrain:
    elements = tuple(ABCDElement(e["kind"], float(e["parameter"]))
                     for e in obj["elements"])
    return OpticalTrain(elements=elements,
                        markers={str(k): int(v)
                                 for k, v in obj.get("markers", {}).items()})


def write_train_json(path: str, train: OpticalTrain) -> None:
    atomic_write_text(path, _json_text(train_to_dict(train)))


def read_train_json(path: str) -> OpticalTrain:
    return _read_json(path, train_from_dict)


# ------------------------------------------------------------- loop reports

def _offline_summary(offline) -> dict:
    """Steps taken, final cost and convergence of a record's offline
    solve; each null where the record has none."""
    if offline is None:
        return dict.fromkeys(("offline_steps", "offline_cost",
                              "offline_converged"))
    return {"offline_steps": len(offline.costs) - 1,
            "offline_cost": float(offline.costs[-1]),
            "offline_converged": bool(offline.converged)}


def report_to_dict(report) -> dict:
    return {
        "converged": report.converged,
        "stop": report.stop,
        "final_model": (model_to_dict(report.final_model)
                        if report.final_model is not None else None),
        "records": [{"index": r.index, "mase": r.mase, "mse": r.mse,
                     "model_error": (None if np.isnan(r.model_error)
                                     else r.model_error),
                     "delay": r.delay,
                     "max_abs_h1": (None if r.model is None
                                    else float(np.max(np.abs(r.model.h1)))),
                     **_offline_summary(r.offline)}
                    for r in report.records],
    }


def write_report_json(path: str, report) -> None:
    atomic_write_text(path, _json_text(report_to_dict(report)))


def write_convergence_csv(path: str, report) -> None:
    idx = np.array([float(r.index) for r in report.records])
    m = np.array([r.mase for r in report.records])
    atomic_write_text(path, _csv_text("iteration,mase", (idx, m)))
