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
from pulseloop.loop import IterationRecord, LoopReport
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
    assert back.aom.v == config.aom.v
    assert back.aom.theta0 == config.aom.theta0


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
    assert back.k == train.k


# ------------------------------------------------------------------ reports

def _tiny_report():
    env = _env(8, seed=5)
    rec1 = IterationRecord(index=1, s_pred=env, s_out=env, mase=0.1,
                           mse=0.01, model_error=float("nan"))
    rec2 = IterationRecord(index=2, s_pred=env, s_out=env, mase=0.01,
                           mse=0.001, model_error=0.005)
    return LoopReport(records=(rec1, rec2), converged=True,
                      final_model=VolterraModel.identity())


def test_report_json_shape(tmp_path):
    path = str(tmp_path / "report.json")
    fileio.write_report_json(path, _tiny_report())
    data = json.loads(Path(path).read_text())
    assert data["converged"] is True
    assert len(data["records"]) == 2
    assert data["records"][0]["model_error"] is None  # NaN becomes null
    assert data["records"][1]["model_error"] == 0.005
    assert data["final_model"]["h1_re"] == [1.0]


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
