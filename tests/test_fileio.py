"""Artifact persistence: CSV/JSON formats, atomic writes, hashing."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from pulseloop import fileio
from pulseloop.channel import ChannelConfig
from pulseloop.envelope import (ComplexEnvelope, InvalidSpecError, TimeGrid,
                                default_grid)
from pulseloop.demod import BeatTrace
from pulseloop.loop import IterationRecord, LoopReport, offline_iterate
from pulseloop.optics import design_three_lens, free_space, thin_lens
from pulseloop.sysid import VolterraModel


def _env(n=32, seed=0):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(-3e-9, 1e-9, n)
    return ComplexEnvelope(grid, rng.standard_normal(n)
                           + 1j * rng.standard_normal(n))


# ---------------------------------------------------------------- envelopes

def test_envelope_csv_round_trip_is_exact(tmp_path):
    # Samples survive bit-exactly; the grid is re-inferred from the
    # time column, so dt carries float-subtraction noise (the JSON
    # mirror is the lossless path for grids).
    env = _env()
    path = str(tmp_path / "env.csv")
    fileio.write_envelope_csv(path, env)
    back = fileio.read_envelope_csv(path)
    assert back.grid.t0 == env.grid.t0
    assert back.grid.dt == pytest.approx(env.grid.dt, rel=1e-12)
    assert back.grid.n == env.grid.n
    np.testing.assert_array_equal(back.samples, env.samples)
    header = Path(path).read_text().splitlines()[0]
    assert header == "t_s,i,q"


def test_envelope_json_round_trip_is_exact(tmp_path):
    env = _env(seed=1)
    path = str(tmp_path / "env.json")
    fileio.write_envelope_json(path, env)
    back = fileio.read_envelope_json(path)
    assert back.grid == env.grid
    np.testing.assert_array_equal(back.samples, env.samples)
    data = json.loads(Path(path).read_text())
    assert set(data) == {"t0", "dt", "i", "q"}


def test_envelope_extension_dispatch(tmp_path):
    # .json selects the JSON mirror; every other extension is CSV.
    env = _env(seed=2)
    for name in ("a.csv", "a.json", "a.dat"):
        path = str(tmp_path / name)
        fileio.write_envelope(path, env)
        back = fileio.read_envelope(path)
        np.testing.assert_array_equal(back.samples, env.samples)
    assert (tmp_path / "a.dat").read_text().splitlines()[0] == "t_s,i,q"


def test_envelope_csv_rejects_wrong_header(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("time,re,im\n0,1,0\n1e-9,1,0\n")
    with pytest.raises(InvalidSpecError):
        fileio.read_envelope_csv(path)


def test_envelope_csv_rejects_nonuniform_times(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("t_s,i,q\n0,1,0\n1e-9,1,0\n3e-9,1,0\n")
    with pytest.raises(InvalidSpecError):
        fileio.read_envelope_csv(path)


# ------------------------------------------------------------------- traces

def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    trace = BeatTrace(TimeGrid(0.0, 5e-10, 64), rng.standard_normal(64))
    path = str(tmp_path / "trace.csv")
    fileio.write_trace_csv(path, trace)
    back = fileio.read_trace_csv(path)
    assert back.grid == trace.grid
    np.testing.assert_array_equal(back.samples, trace.samples)
    assert Path(path).read_text().splitlines()[0] == "t_s,v"


@pytest.mark.parametrize("n", [64, 12345])
def test_trace_csv_period_comes_from_the_whole_span(tmp_path, n):
    # Far from t = 0, t[1] - t[0] keeps only the digits the origin leaves:
    # 5e-10 read back as 5.000000000000376e-10 from t0 = 0.9 us.
    trace = BeatTrace(TimeGrid(0.9e-6, 5e-10, n), np.zeros(n))
    path = str(tmp_path / "trace.csv")
    fileio.write_trace_csv(path, trace)
    back = fileio.read_trace_csv(path)
    assert back.grid.t0 == trace.grid.t0
    assert abs(back.grid.dt - 5e-10) <= 4e-15 * 5e-10, back.grid.dt


@pytest.mark.parametrize("n", [100, 3700, 7400])
@pytest.mark.parametrize("dt", [1e-9, 5e-10, 3.3e-9])
@pytest.mark.parametrize("t0", [0.0, -5e-7, 1.4e-6, 3.7e-6])
def test_csv_period_reproduces_every_written_time(tmp_path, t0, dt, n):
    # The period read back gives the written times to the last bit; the
    # span alone is off by rounding whenever t0 is not 0.
    trace = BeatTrace(TimeGrid(t0, dt, n), np.zeros(n))
    path = str(tmp_path / "trace.csv")
    fileio.write_trace_csv(path, trace)
    back = fileio.read_trace_csv(path)
    assert back.grid.t0 == t0 and back.grid.n == n
    assert np.array_equal(back.grid.times(), trace.grid.times())
    assert abs(back.grid.dt - dt) <= 1e-14 * dt


def test_csv_period_without_an_exact_fit_is_the_span_estimate(tmp_path):
    # Times no single period reproduces (rounded to 12 digits) keep the
    # period the span gives.
    t = np.array([float(f"{v:.12g}")
                  for v in TimeGrid(1.4e-6, 1e-9 / 3, 300).times()])
    path = tmp_path / "trace.csv"
    path.write_text("t_s,v\n" + "".join(f"{v!r},0\n" for v in t.tolist()))
    back = fileio.read_trace_csv(str(path))
    assert back.grid.dt == float(t[-1] - t[0]) / (len(t) - 1)
    assert not np.array_equal(back.grid.times(), t)


@pytest.mark.parametrize("body", ["", "\n\n", "# no rows\n"])
def test_csv_without_data_rows_names_the_file(tmp_path, body):
    path = tmp_path / "empty.csv"
    path.write_text("t_s,i,q\n" + body)
    with pytest.raises(InvalidSpecError, match="no data rows") as info:
        fileio.read_envelope_csv(str(path))
    assert str(path) in str(info.value)


def test_csv_with_a_nan_sample_names_the_file(tmp_path):
    env_path = tmp_path / "env.csv"
    env_path.write_text("t_s,i,q\n0,1,0\n1e-09,1,nan\n")
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("t_s,v\n0,1\n5e-10,nan\n")
    for path, read in ((env_path, fileio.read_envelope_csv),
                       (trace_path, fileio.read_trace_csv)):
        with pytest.raises(InvalidSpecError, match="must be finite") as info:
            read(str(path))
        assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("body, match", [
    ("0,1,0\n1e-09,1,x\n", "could not convert"),
    ("0,1\n1e-09,1\n", "wrong column count"),
    ("0,1,0\n", "need at least two samples")])
def test_a_malformed_csv_names_the_file(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,i,q\n" + body)
    with pytest.raises(InvalidSpecError, match=match) as info:
        fileio.read_envelope_csv(str(path))
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("text, match", [("{\"h0_re\": ", "invalid JSON"),
                                         ("[1, 2]", "expected a JSON object")])
def test_a_json_file_that_is_not_an_object_names_the_file(tmp_path, text,
                                                          match):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(InvalidSpecError, match=match) as info:
        fileio.read_model_json(str(path))
    assert str(info.value).startswith(f"{path}: ")


# ------------------------------------------------------------------- models

def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    model = VolterraModel(h0=0.3 - 0.2j,
                          h1=rng.standard_normal(8)
                          + 1j * rng.standard_normal(8))
    path = str(tmp_path / "model.json")
    fileio.write_model_json(path, model)
    back = fileio.read_model_json(path)
    assert back.h0 == model.h0
    np.testing.assert_array_equal(back.h1, model.h1)
    data = json.loads(Path(path).read_text())
    assert set(data) == {"h0_re", "h0_im", "h1_re", "h1_im"}


def test_scores_csv_format(tmp_path):
    scores = np.array([[1e-6, 0.25], [1e-3, 0.125]])
    path = str(tmp_path / "scores.csv")
    fileio.write_scores_csv(path, scores)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "lambda,validation_mse"
    assert len(lines) == 3


# ----------------------------------------------------------- channel config

def test_channel_json_round_trip(tmp_path):
    config = ChannelConfig(noise_sigma=0.01, seed=7)
    path = str(tmp_path / "chan.json")
    fileio.write_channel_json(path, config)
    back = fileio.read_channel_json(path)
    assert back.delay == config.delay
    assert back.seed == 7
    assert back.noise_sigma == 0.01
    assert back.aom_enabled == config.aom_enabled
    assert back.mismatch_kappa == config.mismatch_kappa
    np.testing.assert_array_equal(back.volterra.h1, config.volterra.h1)
    assert back.aom == config.aom


def test_default_channel_json_is_unchanged(tmp_path):
    # The module's design point: waist from optics, kernel and chirp
    # from channel. Any edit that moves a default changes this file.
    path = str(tmp_path / "chan.json")
    fileio.write_channel_json(path, ChannelConfig())
    assert fileio.sha256_file(path) == (
        "1bbe3fb8d72191d9668ca335a146461f0dde801fe265565ae5562d1967bcbb38")


# Modulator settings that older channel files carry, at the defaults they
# were written with; they set only the reflectance's constant prefactor.
_LEGACY_AOM = {"f_acoustic": 1e8, "wavelength": 4.05e-7, "n0": 2.26,
               "eta": 1e-5, "theta0": 0.013785324290608908, "phi": 0.0}


def _channel_file(path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return str(path)


def test_channel_json_with_legacy_modulator_keys_loads(tmp_path):
    obj = fileio.channel_to_dict(ChannelConfig())
    obj["aom"].update(_LEGACY_AOM)
    path = _channel_file(tmp_path / "legacy.json", obj)
    # Byte for byte the default file as written before the keys went.
    assert fileio.sha256_file(path) == (
        "ead1d05c908412b6da302273ff6fdc4c1e8d1fa510c148d2632207b77ad8638c")
    back = fileio.read_channel_json(path)
    assert back.aom == ChannelConfig().aom
    assert fileio.channel_to_dict(back) == fileio.channel_to_dict(
        ChannelConfig())


def test_channel_json_with_a_misspelt_modulator_key_fails(tmp_path):
    obj = fileio.channel_to_dict(ChannelConfig())
    obj["aom"]["w_0"] = obj["aom"].pop("w0")
    path = _channel_file(tmp_path / "typo.json", obj)
    with pytest.raises(InvalidSpecError, match="unexpected keyword .*w_0"):
        fileio.read_channel_json(path)


def test_channel_json_with_a_non_object_aom_fails(tmp_path):
    obj = fileio.channel_to_dict(ChannelConfig())
    obj["aom"] = [["v", 600.0]]
    path = _channel_file(tmp_path / "list.json", obj)
    with pytest.raises(InvalidSpecError, match="mapping"):
        fileio.read_channel_json(path)


# ------------------------------------------------------------------- trains

def test_train_json_round_trip(tmp_path):
    train = design_three_lens(mode="compact")
    path = str(tmp_path / "train.json")
    fileio.write_train_json(path, train)
    back = fileio.read_train_json(path)
    assert len(back.elements) == len(train.elements)
    for a, b in zip(back.elements, train.elements):
        assert a.kind == b.kind
        assert a.parameter == b.parameter
    assert back.markers == train.markers


def test_train_json_with_a_legacy_spacing_key_loads(tmp_path):
    # A train file that still carries the old "k" spacing key loads.
    train = design_three_lens(mode="compact")
    obj = fileio.train_to_dict(train)
    assert "k" not in obj
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps({**obj, "k": train.elements[1].parameter}))
    back = fileio.read_train_json(str(path))
    assert back.elements == train.elements
    assert back.markers == train.markers


# ------------------------------------------------------------------ reports

def _tiny_report():
    env = _env(8, seed=5)
    model = VolterraModel.identity()
    rec1 = IterationRecord(index=1, s_pred=env, s_out=env, mase=0.1,
                           mse=0.01, model_error=float("nan"), model=None,
                           offline=None, delay=0.0)
    rec2 = IterationRecord(index=2, s_pred=env, s_out=env, mase=0.01,
                           mse=0.001, model_error=0.005, model=model,
                           offline=offline_iterate(model, env), delay=2e-9)
    return LoopReport(records=(rec1, rec2), converged=True)


def test_report_json_shape(tmp_path):
    path = str(tmp_path / "report.json")
    fileio.write_report_json(path, _tiny_report())
    data = json.loads(Path(path).read_text())
    assert data["converged"] is True
    # What ended the loop: a converged report's default.
    assert data["stop"] == "converged"
    assert set(data) == {"converged", "stop", "final_model", "records"}
    assert len(data["records"]) == 2
    assert data["records"][0]["model_error"] is None  # NaN becomes null
    assert data["records"][1]["model_error"] == 0.005
    assert data["final_model"]["h1_re"] == [1.0]
    # Each record gives its delay, the max |h1| of its model and its
    # offline solve's steps, final cost and convergence (null without
    # one); the model and offline solve themselves stay out.
    assert all(set(r) == {"index", "mase", "mse", "model_error", "delay",
                          "max_abs_h1", "offline_steps", "offline_cost",
                          "offline_converged"}
               for r in data["records"])
    assert [r["delay"] for r in data["records"]] == [0.0, 2e-9]
    assert [r["max_abs_h1"] for r in data["records"]] == [None, 1.0]
    # The identity model's target already fits: no step, zero cost.
    assert [r["offline_steps"] for r in data["records"]] == [None, 0]
    assert [r["offline_cost"] for r in data["records"]] == [None, 0.0]
    assert [r["offline_converged"] for r in data["records"]] == [None, True]


def test_convergence_csv(tmp_path):
    path = str(tmp_path / "conv.csv")
    fileio.write_convergence_csv(path, _tiny_report())
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "iteration,mase"
    assert lines[1].startswith("1,")
    assert lines[2].startswith("2,")


# ------------------------------------------------------------ atomic writes

def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.txt")
    fileio.atomic_write_text(path, "hello\n")
    assert Path(path).read_text() == "hello\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    # Overwrite goes through a fresh temp file as well.
    fileio.atomic_write_text(path, "world\n")
    assert Path(path).read_text() == "world\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_a_failed_atomic_write_removes_its_temp_file(tmp_path):
    # A directory in the way fails the rename after the temp file is
    # written; the temp file goes and the error propagates.
    (tmp_path / "out").mkdir()
    with pytest.raises(OSError):
        fileio.atomic_write_text(str(tmp_path / "out"), "hello\n")
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX file modes")
def test_atomic_write_leaves_the_mode_to_the_umask(tmp_path):
    # The temp file used to be made by mkstemp, so every output was 0600.
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            path = tmp_path / f"out{umask:o}.txt"
            fileio.atomic_write_text(str(path), "hello\n")
            assert path.stat().st_mode & 0o777 == mode
    finally:
        os.umask(old)


def test_write_is_byte_deterministic(tmp_path):
    env = _env(seed=6)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    fileio.write_envelope_csv(a, env)
    fileio.write_envelope_csv(b, env)
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert fileio.sha256_file(a) == fileio.sha256_file(b)


def test_full_precision_floats_survive(tmp_path):
    # %.17g keeps doubles exactly through a text round trip.
    value = 1.0 / 3.0 + 1e-16
    grid = TimeGrid(0.0, 1e-9, 2)
    env = ComplexEnvelope(grid, np.array([value + 1j * np.pi, 0.0]))
    path = str(tmp_path / "tight.csv")
    fileio.write_envelope_csv(path, env)
    back = fileio.read_envelope_csv(path)
    assert back.samples[0].real == value
    assert back.samples[0].imag == np.pi


def _csv_text_per_value(header, columns):
    """Reference CSV formatter: one ``FLOAT_FMT`` call per indexed value."""
    rows = [",".join(fileio.FLOAT_FMT % c[i] for c in columns)
            for i in range(len(columns[0]))]
    return header + "\n" + "\n".join(rows) + ("\n" if rows else "")


@pytest.mark.parametrize("columns", [
    (np.random.default_rng(3).standard_normal(1660) * 1e-6,
     np.random.default_rng(4).standard_normal(1660),
     np.random.default_rng(5).standard_normal(1660) * 1e300),
    (np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0 / 3.0, 1e-9]),),
    (np.arange(12), np.linspace(0.0, 1.0, 12)),
    (np.zeros(0), np.zeros(0)),
])
def test_csv_text_equals_the_per_value_formatter(columns):
    header = ",".join(f"c{k}" for k in range(len(columns)))
    assert (fileio._csv_text(header, columns)
            == _csv_text_per_value(header, columns))
