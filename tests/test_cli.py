"""Command-line front end: subcommands, exit codes, manifests."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft

import pulseloop
from pulseloop import cli, fileio, loop
from pulseloop.channel import (ChannelConfig, SimulatedChannel, post_pad,
                               record_response)
from pulseloop.cli import build_parser, main
from pulseloop.demod import DEFAULT_CUTOFF, suggested_cutoff
from pulseloop.envelope import PulseSpec, default_grid, make_pulse
from pulseloop.loop import SingularUpdateError, _align_to_target
from pulseloop.optics import design_three_lens
from pulseloop.sysid import CVConfig, VolterraModel, estimate_kernel

from cv_reference import fold_thetas_by_svd, serial_cross_validate


@pytest.fixture()
def outdir(tmp_path):
    return str(tmp_path)


def _write_channel(path, **overrides):
    fileio.write_channel_json(path, ChannelConfig(**overrides))
    return path


def _make_pulse(outdir, duration="5e-7", kind="gate-standin"):
    assert main(["pulse", "--kind", kind, "--duration", duration,
                 "--outdir", outdir]) == 0
    return os.path.join(outdir, "pulse.csv")


_SHOT_PATH = """
import os, sys
import pulseloop as pl
from pulseloop import cli, fileio, loop
from pulseloop.envelope import PulseSpec, default_grid, make_pulse
from pulseloop.loop import LOOP_METHODS
target = make_pulse(PulseSpec(kind="gate-standin", duration=5e-7),
                    default_grid(5e-7))
for method in LOOP_METHODS:
    chan = pl.SimulatedChannel(cutoff=pl.suggested_cutoff(5e-7),
                               trace_noise_sigma=0.02, seed=1)
    pl.closed_loop(chan.measure, target, pl.LoopConfig(method=method))
os.chdir(sys.argv[1])
fileio.write_channel_json("chan.json", pl.ChannelConfig())
assert cli.main(["pulse", "--kind", "gate-standin", "--duration", "5e-7"]) == 0
assert cli.main(["simulate", "--input", "pulse.csv", "--channel", "chan.json",
                 "--trace-out", "trace.csv"]) == 0
assert cli.main(["demod", "--trace", "trace.csv"]) == 0
print(sorted(m for m in ("scipy.signal", "scipy.optimize")
             if m in sys.modules))
"""


def test_import_leaves_scipy_signal_and_optimize_unloaded(tmp_path):
    # Importing them takes about half of ``import pulseloop``. Neither the
    # import nor the shot path (closed loops of both methods, simulate
    # with a trace, demod) loads them; only ``calibrate_kappa`` imports
    # scipy.optimize, on first use.
    src = os.path.dirname(os.path.dirname(pulseloop.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, pulseloop, pulseloop.cli; print(sorted(m for m in "
            "('scipy.signal', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    out = subprocess.run([sys.executable, "-c", _SHOT_PATH, str(tmp_path)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "demodulated.csv").exists()


# ------------------------------------------------------------------- pulse

def test_pulse_writes_envelope_and_manifest(outdir):
    path = _make_pulse(outdir)
    assert os.path.exists(path)
    env = fileio.read_envelope_csv(path)
    expected = make_pulse(PulseSpec(kind="gate-standin", duration=5e-7),
                          default_grid(5e-7))
    np.testing.assert_allclose(env.samples, expected.samples, atol=1e-16)

    manifest = json.loads(Path(outdir, "manifest.json").read_text())
    assert manifest["command"] == "pulse"
    assert manifest["outputs"]["pulse.csv"] == fileio.sha256_file(path)
    assert "duration_s" in manifest


def test_unknown_flag_exits_2(outdir):
    with pytest.raises(SystemExit) as err:
        main(["pulse", "--kind", "constant", "--duration", "1e-7",
              "--not-a-flag", "1"])
    assert err.value.code == 2


def test_invalid_pulse_parameters_exit_2(outdir, capsys):
    code = main(["pulse", "--kind", "gaussian", "--duration", "1e-7",
                 "--fwhm=-1e-8", "--outdir", outdir])
    assert code == 2
    assert "pulseloop pulse" in capsys.readouterr().err


def test_pulse_negative_margin_exits_2_naming_it(outdir, capsys):
    # It used to exit 0 with a 40-sample grid, cutting the 100 samples of
    # the requested duration.
    assert main(["pulse", "--kind", "constant", "--duration", "1e-7",
                 "--margin-frac", "-0.3", "--outdir", outdir]) == 2
    assert "margin_frac" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "pulse.csv"))


@pytest.mark.parametrize("argv", [
    ["pulse", "--kind", "constant", "--duration", "1e-7", "--dt", "0"],
    ["pulse", "--kind", "constant", "--duration", "nan"],
    ["estimate", "--input", "{pulse}", "--output", "{pulse}",
     "--lambda-grid", "1e-3,abc"],
    ["optics", "aperture", "--steps", "-1"],
    ["optics", "waist-sweep", "--steps", "0"],
])
def test_bad_numeric_flags_exit_2(outdir, capsys, argv):
    pulse = _make_pulse(outdir)
    argv = [a.format(pulse=pulse) for a in argv]
    assert main(argv + ["--outdir", outdir]) == 2
    assert f"pulseloop {argv[0]}" in capsys.readouterr().err


def test_sensitivity_ignores_steps(outdir):
    # sensitivity makes no table of steps; it used to reject --steps 0.
    assert main(["optics", "sensitivity", "--steps", "0",
                 "--outdir", outdir]) == 0
    assert os.path.exists(os.path.join(outdir, "sensitivity.csv"))


# ---------------------------------------------------------------- simulate

def test_simulate_and_demod_round_trip(outdir):
    pulse = _make_pulse(outdir, kind="truncated-gaussian")
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--trace-out", "trace.csv", "--outdir", outdir]) == 0
    assert os.path.exists(os.path.join(outdir, "simulated.csv"))

    # Spec'd demod flags: 200 MHz beat, 20 MHz cutoff, order 4.
    assert main(["demod", "--trace", os.path.join(outdir, "trace.csv"),
                 "--beat-hz", "2e8", "--cutoff-hz", "2e7", "--order", "4",
                 "--outdir", outdir]) == 0
    env = fileio.read_envelope_csv(os.path.join(outdir, "demodulated.csv"))
    sim = fileio.read_envelope_csv(os.path.join(outdir, "simulated.csv"))
    assert env.grid.n == sim.grid.n
    # The demodulated envelope tracks the simulated one away from edges.
    core = slice(100, -100)
    np.testing.assert_allclose(env.amplitude[core], sim.amplitude[core],
                               atol=5e-3)


def test_simulate_window_starts_just_before_the_delayed_response(outdir):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"), delay=3.5e-6,
                          volterra=VolterraModel.identity(),
                          aom_enabled=False)
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--outdir", outdir]) == 0
    inp = fileio.read_envelope_csv(pulse)
    sim = fileio.read_envelope_csv(os.path.join(outdir, "simulated.csv"))
    # 500 samples ahead of the response, which starts 3500 samples after
    # the request; behind it the kernel memory and filter settling, then
    # zeros up to a fast transform length.
    assert sim.grid.n == sfft.next_fast_len(500 + inp.grid.n + 1 + 150)
    assert sim.grid.t0 == pytest.approx(inp.grid.t0 + 3000e-9, abs=1e-12)
    assert sim.norm() == pytest.approx(inp.norm(), rel=1e-12)


@pytest.mark.parametrize("delay", [0.0, 1.4e-6, 1.5e-6, 2e-6, 2.6e-6, 5e-6])
@pytest.mark.parametrize("duration", ["1.8e-7", "5e-7", "2e-6"])
def test_simulate_then_demod_is_the_first_simulated_shot(tmp_path, duration,
                                                         delay):
    # One measurement, one noise rule: the trace written by simulate and
    # demodulated at the cutoff simulate recorded for (the default, then
    # the pulse's own) is shot 0 of a SimulatedChannel at that cutoff,
    # seeded with the channel's seed. Every record window is a fast
    # transform length no shorter than PAD_PRE + request + post_pad - d.
    pulse = _make_pulse(str(tmp_path), duration=duration)
    chan = _write_channel(str(tmp_path / "chan.json"), delay=delay, seed=5)
    config = fileio.read_channel_json(chan)
    env = fileio.read_envelope(pulse)
    d = round(delay / env.grid.dt)
    for cutoff in dict.fromkeys((DEFAULT_CUTOFF,
                                 suggested_cutoff(float(duration)))):
        n = record_response(env, config, cutoff).grid.n
        assert sfft.next_fast_len(n) == n
        assert n >= (SimulatedChannel.PAD_PRE + env.grid.n
                     + post_pad(config, env.grid.dt, cutoff) - d)
        flag = ([] if cutoff == DEFAULT_CUTOFF
                else ["--cutoff-hz", repr(cutoff)])
        outdir = str(tmp_path / f"at-{cutoff:g}")
        assert main(["simulate", "--input", pulse, "--channel", chan,
                     "--trace-out", "trace.csv", "--trace-noise-sigma",
                     "0.02", "--outdir", outdir, *flag]) == 0
        assert main(["demod", "--trace", os.path.join(outdir, "trace.csv"),
                     "--outdir", outdir, *flag]) == 0
        sim = fileio.read_envelope_csv(os.path.join(outdir, "simulated.csv"))
        assert np.array_equal(sim.samples,
                              record_response(env, config, cutoff).samples)
        got = fileio.read_envelope_csv(
            os.path.join(outdir, "demodulated.csv"))
        shot = SimulatedChannel(config, cutoff=cutoff, trace_noise_sigma=0.02,
                                seed=config.seed).measure(env)
        # The trace CSV reads back the period it was written with, so the
        # round trip is the shot bit for bit.
        assert got.grid == shot.grid == sim.grid
        assert np.array_equal(got.samples, shot.samples)


def test_missing_input_exits_2(outdir, capsys):
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    code = main(["simulate", "--input", os.path.join(outdir, "none.csv"),
                 "--channel", chan, "--outdir", outdir])
    assert code == 2


def test_channel_json_missing_key_exits_2_naming_it(outdir, capsys):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    obj = json.loads(Path(chan).read_text())
    del obj["volterra"]["h1_re"]
    with open(chan, "w") as fh:
        json.dump(obj, fh)
    code = main(["simulate", "--input", pulse, "--channel", chan,
                 "--outdir", outdir])
    assert code == 2
    err = capsys.readouterr().err
    assert "h1_re" in err and chan in err


@pytest.mark.parametrize("command", ["simulate", "loop"])
def test_channel_json_nan_delay_exits_2_writing_nothing(tmp_path, capsys,
                                                        command):
    # Python's json reads NaN; it used to surface as a bare ValueError.
    pulse = _make_pulse(str(tmp_path))
    chan = _write_channel(str(tmp_path / "chan.json"))
    obj = json.loads(Path(chan).read_text())
    obj["delay"] = float("nan")
    Path(chan).write_text(json.dumps(obj))
    out = tmp_path / "out"
    argv = (["simulate", "--input", pulse] if command == "simulate"
            else ["loop", "--target", pulse])
    assert main(argv + ["--channel", chan, "--outdir", str(out)]) == 2
    assert "delay" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["v", "w0", "L1", "L2"])
def test_channel_json_non_finite_geometry_exits_2_naming_it(tmp_path, capsys,
                                                            key, value):
    # A NaN v, w0 or L1 used to end in a traceback (exit 1), an infinite
    # L2 in an OverflowError, and an infinite w0 ran on (exit 0).
    pulse = _make_pulse(str(tmp_path))
    chan = _write_channel(str(tmp_path / "chan.json"))
    obj = json.loads(Path(chan).read_text())
    obj["aom"][key] = float(value)
    Path(chan).write_text(json.dumps(obj))
    assert value in Path(chan).read_text()
    out = tmp_path / "out"
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--outdir", str(out)]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("sigma", ["-0.5", "nan"])
def test_bad_trace_noise_sigma_exits_2_writing_nothing(tmp_path, capsys,
                                                       sigma):
    pulse = _make_pulse(str(tmp_path))
    chan = _write_channel(str(tmp_path / "chan.json"))
    out = tmp_path / "out"
    assert main(["loop", "--target", pulse, "--channel", chan,
                 "--trace-noise-sigma", sigma, "--outdir", str(out)]) == 2
    assert "trace_noise_sigma" in capsys.readouterr().err
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--trace-out", "trace.csv", "--trace-noise-sigma", sigma,
                 "--outdir", str(out)]) == 2
    assert "noise_sigma" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("key, value, commands", [
    ("t0", float("nan"), ("simulate", "estimate", "loop")),
    ("dt", float("nan"), ("simulate",)),
    ("dt", float("inf"), ("estimate",)),
])
def test_envelope_json_non_finite_grid_exits_2(tmp_path, capsys, key, value,
                                               commands):
    # These used to run on (exit 0), stop as non-converged (exit 3) or
    # end in a traceback.
    pulse = _make_pulse(str(tmp_path))
    bad = tmp_path / "bad.json"
    fileio.write_envelope_json(str(bad), fileio.read_envelope(pulse))
    obj = json.loads(bad.read_text())
    obj[key] = value
    bad.write_text(json.dumps(obj))
    chan = _write_channel(str(tmp_path / "chan.json"))
    argv = {"simulate": ["simulate", "--input", str(bad), "--channel", chan],
            "estimate": ["estimate", "--input", str(bad), "--output", pulse],
            "loop": ["loop", "--target", str(bad), "--channel", chan]}
    for command in commands:
        out = tmp_path / command
        assert main(argv[command] + ["--outdir", str(out)]) == 2, command
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def test_header_only_envelope_csv_exits_2_naming_it(tmp_path, capsys):
    # NumPy warned about its file object here, and the run then failed on
    # the column count.
    empty = tmp_path / "empty.csv"
    empty.write_text("t_s,i,q\n")
    pulse = _make_pulse(str(tmp_path))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["estimate", "--input", pulse, "--output", str(empty),
                     "--outdir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "no data rows" in err and str(empty) in err
    assert "TextIOWrapper" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("kind", ["envelope", "trace"])
def test_non_finite_csv_sample_exits_2_naming_the_file(tmp_path, capsys,
                                                       kind):
    path = tmp_path / "bad.csv"
    if kind == "envelope":
        path.write_text("t_s,i,q\n0,1,0\n1e-09,nan,0\n2e-09,1,0\n")
        argv = ["estimate", "--input", _make_pulse(str(tmp_path)),
                "--output", str(path)]
    else:
        rows = "".join(f"{k * 5e-10!r},{'nan' if k == 7 else 0.5}\n"
                       for k in range(64))
        path.write_text("t_s,v\n" + rows)
        argv = ["demod", "--trace", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and str(path) in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("fs", ["nan", "inf"])
def test_simulate_non_finite_trace_rate_exits_2(tmp_path, capsys, fs):
    pulse = _make_pulse(str(tmp_path))
    chan = _write_channel(str(tmp_path / "chan.json"))
    out = tmp_path / "out"
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--trace-out", "trace.csv", "--fs", fs,
                 "--outdir", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("cutoff", ["nan", "inf", "0", "-2e7"])
def test_simulate_bad_cutoff_exits_2_naming_it(tmp_path, capsys, cutoff):
    pulse = _make_pulse(str(tmp_path))
    chan = _write_channel(str(tmp_path / "chan.json"))
    out = tmp_path / "out"
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 f"--cutoff-hz={cutoff}", "--outdir", str(out)]) == 2
    assert "cutoff must be finite and > 0" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("out_dt", ["0", "3e-10", "1.2e-9", "nan"])
def test_demod_out_dt_off_the_trace_period_exits_2(tmp_path, capsys, out_dt):
    # On a 0.5 ns trace these used to write 0.5 ns or 1 ns output, or end
    # in a traceback.
    pulse = _make_pulse(str(tmp_path))
    chan = _write_channel(str(tmp_path / "chan.json"))
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--trace-out", "trace.csv", "--outdir", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert main(["demod", "--trace", str(tmp_path / "trace.csv"),
                 "--out-dt", out_dt, "--outdir", str(out)]) == 2
    assert "trace period" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_demod_non_finite_beat_exits_2_naming_f_beat(tmp_path, capsys):
    pulse = _make_pulse(str(tmp_path))
    chan = _write_channel(str(tmp_path / "chan.json"))
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--trace-out", "trace.csv", "--outdir", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert main(["demod", "--trace", str(tmp_path / "trace.csv"),
                 "--beat-hz", "nan", "--outdir", str(out)]) == 2
    assert "f_beat" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_demod_undersampled_beat_exits_2_naming_f_beat(tmp_path, capsys):
    # 1.5 GHz is above half the 2 GS/s trace rate; it used to exit 0.
    pulse = _make_pulse(str(tmp_path))
    chan = _write_channel(str(tmp_path / "chan.json"))
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--trace-out", "trace.csv", "--outdir", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert main(["demod", "--trace", str(tmp_path / "trace.csv"),
                 "--beat-hz", "1.5e9", "--outdir", str(out)]) == 2
    assert "f_beat" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_library_key_error_is_not_a_usage_error(outdir, monkeypatch):
    # Only bad arguments and inputs exit 2; a KeyError inside library
    # code is a bug and must surface with its traceback.
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("pulseloop.cli.estimate_kernel", broken)
    pulse = _make_pulse(outdir)
    with pytest.raises(KeyError, match="internal"):
        main(["estimate", "--input", pulse, "--output", pulse,
              "--lambda", "1e-6", "--outdir", outdir])


# ---------------------------------------------------------------- estimate

def test_estimate_with_cross_validation(outdir):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--outdir", outdir]) == 0
    assert main(["estimate", "--input", pulse,
                 "--output", os.path.join(outdir, "simulated.csv"),
                 "--outdir", outdir]) == 0
    model = fileio.read_model_json(os.path.join(outdir, "model.json"))
    assert model.memory == 64
    scores = Path(outdir, "scores.csv").read_text().splitlines()
    assert scores[0] == "lambda,validation_mse"
    assert len(scores) == 8  # default 7-point grid


def test_estimate_with_fixed_lambda_skips_scores(outdir):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--outdir", outdir]) == 0
    assert main(["estimate", "--input", pulse,
                 "--output", os.path.join(outdir, "simulated.csv"),
                 "--lambda", "1e-6", "--outdir", outdir]) == 0
    assert os.path.exists(os.path.join(outdir, "model.json"))
    assert not os.path.exists(os.path.join(outdir, "scores.csv"))


def _simulated_pair(outdir):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--outdir", outdir]) == 0
    return pulse, os.path.join(outdir, "simulated.csv")


@pytest.mark.parametrize("flags, calls", [([], (1, 0)),
                                          (["--lambda", "1e-6"], (0, 1))])
def test_estimate_fits_once(outdir, monkeypatch, flags, calls):
    # Cross-validation returns the final fit, so the full design matrix
    # is factored only when --lambda pins the weight.
    pulse, simulated = _simulated_pair(outdir)
    counts = {}

    def counted(name):
        func = getattr(cli, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return func(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    counted("cross_validate")
    counted("estimate_kernel")
    assert main(["estimate", "--input", pulse, "--output", simulated,
                 "--outdir", outdir] + flags) == 0
    assert (counts.get("cross_validate", 0),
            counts.get("estimate_kernel", 0)) == calls


def test_estimate_cv_model_equals_a_fit_at_the_scores_minimum(outdir):
    pulse, simulated = _simulated_pair(outdir)
    assert main(["estimate", "--input", pulse, "--output", simulated,
                 "--outdir", outdir]) == 0
    scores = np.array([line.split(",") for line in Path(
        outdir, "scores.csv").read_text().splitlines()[1:]], dtype=float)
    lam = scores[np.argmin(scores[:, 1]), 0]
    inp = fileio.read_envelope(pulse)
    out, _ = _align_to_target(fileio.read_envelope(simulated), inp)
    ref = estimate_kernel(inp, out, 64, lam)
    model = fileio.read_model_json(os.path.join(outdir, "model.json"))
    got = np.concatenate([[model.h0], model.h1])
    want = np.concatenate([[ref.h0], ref.h1])
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("duration", ["1.8e-7", "5e-7", "2e-6"])
@pytest.mark.parametrize("grid", ["1e-6,1e-5,1e-4,1e-3,1e-2,1e-1,1",
                                  "0,1e-6"])
def test_estimate_writes_the_svd_scorers_model(tmp_path, duration, grid):
    # The folds' Cholesky scores move scores.csv from the per-fold QR and
    # SVD scorer's by rounding only, and the model is estimate_kernel's
    # at lambda_star, so model.json keeps the bytes of the SVD scorer's
    # model and of estimate --lambda at the scores' minimum, each taken
    # at the one BLAS thread the command runs at.
    outdir = str(tmp_path)
    pulse = _make_pulse(outdir, duration)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--outdir", outdir]) == 0
    simulated = os.path.join(outdir, "simulated.csv")
    est = os.path.join(outdir, "est")
    assert main(["estimate", "--input", pulse, "--output", simulated,
                 "--lambda-grid", grid, "--outdir", est]) == 0
    inp = fileio.read_envelope(pulse)
    out, _ = _align_to_target(fileio.read_envelope(simulated), inp)
    cv = CVConfig(lambda_grid=tuple(float(v) for v in grid.split(",")))
    with cli._one_blas_thread():
        lam, scores, model = serial_cross_validate(inp, out, 64, cv,
                                                   fold_thetas_by_svd)
    ref = os.path.join(outdir, "ref.json")
    fileio.write_model_json(ref, model)
    assert Path(est, "model.json").read_bytes() == Path(ref).read_bytes()
    fixed = os.path.join(outdir, "fixed")
    assert main(["estimate", "--input", pulse, "--output", simulated,
                 "--lambda", repr(lam), "--outdir", fixed]) == 0
    assert Path(fixed, "model.json").read_bytes() == Path(ref).read_bytes()
    got = np.array([line.split(",") for line in Path(
        est, "scores.csv").read_text().splitlines()[1:]], dtype=float)
    assert got[np.argmin(got[:, 1]), 0] == lam
    np.testing.assert_array_equal(got[:, 0], scores[:, 0])
    np.testing.assert_allclose(got[:, 1], scores[:, 1], rtol=1e-7)


@pytest.mark.parametrize("flags", [["--lambda-grid", "1e-3,nan"],
                                   ["--lambda-grid", "1e-3,x"],
                                   ["--cv-folds", "1"]])
def test_estimate_rejects_a_bad_grid_before_reading_its_inputs(outdir, capsys,
                                                               flags):
    # The grid and folds are checked first, so a missing --input does
    # not mask the error, and nothing is read or written.
    missing = os.path.join(outdir, "missing.csv")
    assert main(["estimate", "--input", missing, "--output", missing,
                 "--outdir", outdir] + flags) == 2
    err = capsys.readouterr().err
    assert "pulseloop estimate" in err
    assert ("lambda" in err) if "--lambda-grid" in flags else ("folds" in err)
    assert "missing.csv" not in err
    assert not os.path.exists(os.path.join(outdir, "model.json"))


@pytest.mark.parametrize("flags", [["--lambda", "nan"], ["--lambda", "inf"],
                                   ["--lambda-grid", "1e-3,nan"]])
def test_estimate_non_finite_lambda_exits_2(outdir, capsys, flags):
    pulse, simulated = _simulated_pair(outdir)
    assert main(["estimate", "--input", pulse, "--output", simulated,
                 "--outdir", outdir] + flags) == 2
    err = capsys.readouterr().err
    assert "pulseloop estimate" in err and "lambda" in err
    assert not os.path.exists(os.path.join(outdir, "model.json"))


# ------------------------------------------------------------------ parser

def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cached_parser_keeps_no_flags_between_runs(tmp_path):
    runs = {}
    for name, argv in [
            ("short", ["pulse", "--kind", "gaussian", "--duration", "1e-7"]),
            ("long", ["pulse", "--kind", "gaussian", "--duration", "3e-7"])]:
        runs[name] = str(tmp_path / name)
        os.makedirs(runs[name])
        assert main(argv + ["--outdir", runs[name]]) == 0
    for name, duration in [("short", 1e-7), ("long", 3e-7)]:
        manifest = json.loads(Path(runs[name], "manifest.json").read_text())
        assert manifest["config"]["duration"] == duration
        # Each run fills in fwhm on its own arguments; the parser's
        # default stays unset, so the second pulse gets its own width.
        assert manifest["config"]["fwhm"] is None
        env = fileio.read_envelope_csv(os.path.join(runs[name], "pulse.csv"))
        expected = make_pulse(
            PulseSpec(kind="gaussian", duration=duration,
                      fwhm=0.3 * duration), default_grid(duration))
        np.testing.assert_allclose(env.samples, expected.samples,
                                   atol=1e-16)

    pulse, simulated = _simulated_pair(str(tmp_path))
    for memory, flags in [(32, ["--memory", "32"]), (64, [])]:
        outdir = str(tmp_path / f"estimate_{memory}")
        os.makedirs(outdir)
        assert main(["estimate", "--input", pulse, "--output", simulated,
                     "--outdir", outdir] + flags) == 0
        manifest = json.loads(Path(outdir, "manifest.json").read_text())
        assert manifest["config"]["memory"] == memory
        model = fileio.read_model_json(os.path.join(outdir, "model.json"))
        assert model.memory == memory


# -------------------------------------------------------------------- loop

def test_loop_example_invocation(outdir):
    # The documented example: target + channel JSON + tf-free method.
    pulse = _make_pulse(outdir, duration="1e-6", kind="gaussian")
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    code = main(["loop", "--target", pulse, "--channel", chan,
                 "--method", "tf-free", "--max-iters", "10",
                 "--outdir", outdir])
    assert code == 0
    report = json.loads(Path(outdir, "report.json").read_text())
    assert report["converged"] is True
    assert report["stop"] == "converged"
    conv = Path(outdir, "convergence.csv").read_text().splitlines()
    assert conv[0] == "iteration,mase"
    assert len(conv) == len(report["records"]) + 1
    # Per-iteration envelope snapshots accompany the report.
    assert os.path.exists(os.path.join(outdir, "iter_001_input.csv"))
    assert os.path.exists(os.path.join(outdir, "iter_001_output.csv"))


def test_loop_method_full_names_accepted(outdir):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    code = main(["loop", "--target", pulse, "--channel", chan,
                 "--method", "transfer-function", "--outdir", outdir])
    assert code == 0
    report = json.loads(Path(outdir, "report.json").read_text())
    assert report["final_model"] is not None


def test_loop_requires_exactly_one_backend(outdir, capsys):
    pulse = _make_pulse(outdir)
    assert main(["loop", "--target", pulse, "--outdir", outdir]) == 2
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["loop", "--target", pulse, "--channel", chan,
                 "--replay", outdir, "--outdir", outdir]) == 2


def test_loop_bad_memory_exits_2_without_a_report(outdir, capsys):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["loop", "--target", pulse, "--channel", chan,
                 "--memory", "0", "--outdir", outdir]) == 2
    assert "memory" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "report.json"))


def test_loop_negative_seed_exits_2_naming_it(outdir, capsys):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["loop", "--target", pulse, "--channel", chan,
                 "--trace-noise-sigma", "0.02", "--seed", "-1",
                 "--outdir", outdir]) == 2
    assert "seed" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "report.json"))


def test_a_fractional_channel_seed_exits_2_naming_it(outdir, capsys):
    # Both used to exit 1 with NumPy's "TypeError: seed must be integer",
    # at the first noisy draw.
    pulse = _make_pulse(outdir)
    chan = os.path.join(outdir, "chan.json")
    obj = fileio.channel_to_dict(ChannelConfig())
    obj.update(seed=1.5, noise_sigma=0.01)
    Path(chan).write_text(json.dumps(obj))
    for argv in (["loop", "--target", pulse, "--channel", chan],
                 ["simulate", "--input", pulse, "--channel", chan,
                  "--trace-out", "trace.csv", "--trace-noise-sigma", "0.02"]):
        out = os.path.join(outdir, argv[0])
        assert main(argv + ["--outdir", out]) == 2, argv[0]
        assert "seed" in capsys.readouterr().err
        assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.parametrize("flag, value", [
    ("--phase-width-frac", "-0.05"), ("--phase-width-frac", "0"),
    ("--phase-jump-rad", "nan"), ("--duration", "inf"), ("--fwhm", "-1")])
def test_pulse_bad_shape_setting_exits_2_naming_it(outdir, capsys, flag,
                                                   value):
    # A negative width used to exit 0 with the phase step reversed, a
    # zero width divided by zero, a NaN jump named no setting, and a
    # width, which a gate-standin does not have, was dropped.
    argv = ["pulse", "--kind", "gate-standin", "--duration", "5e-7",
            flag, value, "--outdir", outdir]
    assert main(argv) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "pulse.csv"))


def test_loop_zero_cutoff_exits_2_naming_it(outdir, capsys):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["loop", "--target", pulse, "--channel", chan,
                 "--cutoff-hz", "0", "--outdir", outdir]) == 2
    assert "cutoff" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "report.json"))


def test_loop_default_cutoff_is_the_suggested_one(outdir, monkeypatch):
    seen = []

    class Recording(cli.SimulatedChannel):
        def __init__(self, config, cutoff, **kwargs):
            seen.append(cutoff)
            super().__init__(config, cutoff=cutoff, **kwargs)

    monkeypatch.setattr(cli, "SimulatedChannel", Recording)
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["loop", "--target", pulse, "--channel", chan,
                 "--method", "tf-free", "--outdir", outdir]) == 0
    span = fileio.read_envelope(pulse).grid.span
    assert seen == [suggested_cutoff(span / 2)]
    assert seen[0] != DEFAULT_CUTOFF


def test_loop_non_convergence_exits_3(outdir):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    code = main(["loop", "--target", pulse, "--channel", chan,
                 "--max-iters", "1", "--converge-mase", "1e-12",
                 "--outdir", outdir])
    assert code == 3
    # The report is still written for inspection, and says why it ended.
    report = json.loads(Path(outdir, "report.json").read_text())
    assert report["stop"] == "max_iters"


def test_loop_failure_exits_3_and_keeps_the_shots_taken(outdir,
                                                        monkeypatch):
    # At this tight gate the 180 ns transfer-function loop used to stop
    # with a singular update (exit 3); stepping on the measured error, it
    # converges. A failure forced at the second update still exits 3 and
    # writes the report of the two shots taken.
    pulse = _make_pulse(outdir, duration="1.8e-7")
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    args = ["loop", "--target", pulse, "--channel", chan,
            "--converge-mase", "7e-4", "--trace-noise-sigma", "0.02",
            "--seed", "1"]
    assert main(args + ["--outdir", os.path.join(outdir, "tight")]) == 0

    def failing(h1, error):
        raise SingularUpdateError("learning step overflows")
    monkeypatch.setattr(loop, "_learning_step", failing)
    run = os.path.join(outdir, "run")
    assert main(args + ["--outdir", run]) == 3
    with open(os.path.join(run, "report.json")) as fh:
        report = json.load(fh)
    assert report["converged"] is False
    assert report["stop"] == "SingularUpdateError"
    n = len(report["records"])
    assert n == 2
    with open(os.path.join(run, "manifest.json")) as fh:
        outputs = json.load(fh)["outputs"]
    assert {"report.json", "convergence.csv", f"iter_{n:03d}_input.csv",
            f"iter_{n:03d}_output.csv"} <= set(outputs)


def test_loop_replay_backend(outdir, tmp_path):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["loop", "--target", pulse, "--channel", chan,
                 "--method", "tf-free", "--outdir", outdir]) == 0
    replay_dir = str(tmp_path / "replay")
    os.makedirs(replay_dir)
    code = main(["loop", "--target", pulse, "--replay", outdir,
                 "--method", "tf-free", "--outdir", replay_dir])
    assert code in (0, 3)  # replay data may end before convergence
    assert os.path.exists(os.path.join(replay_dir, "report.json"))


def test_loop_runs_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    os.makedirs(a)
    os.makedirs(b)
    pulse = _make_pulse(a)
    chan = _write_channel(os.path.join(a, "chan.json"))
    args = ["loop", "--target", pulse, "--channel", chan,
            "--method", "tf-free", "--trace-noise-sigma", "0.02",
            "--seed", "11"]
    assert main(args + ["--outdir", a]) == 0
    assert main(args + ["--outdir", b]) == 0
    for name in ("report.json", "convergence.csv", "iter_001_input.csv"):
        with open(os.path.join(a, name), "rb") as fa, \
                open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def _blas_threads():
    return [get() for get, _ in cli._openblas_thread_controls()]


def test_a_command_runs_at_one_blas_thread_and_restores_the_count(
        outdir, monkeypatch):
    # Each loaded OpenBLAS build (NumPy and SciPy each bring one) runs the
    # command at one thread and gets its own count back afterwards.
    if not cli._openblas_thread_controls():
        pytest.skip("no OpenBLAS build with thread controls is loaded")
    seen = []
    write = fileio.write_envelope

    def spy(path, env):
        seen.append(_blas_threads())
        return write(path, env)
    monkeypatch.setattr(fileio, "write_envelope", spy)
    before = _blas_threads()
    assert main(["pulse", "--kind", "gate-standin", "--duration", "1e-7",
                 "--outdir", outdir]) == 0
    assert seen == [[1] * len(before)]
    assert _blas_threads() == before


def test_a_process_without_openblas_controls_runs_as_before(outdir,
                                                            monkeypatch):
    monkeypatch.setattr(cli, "_openblas_thread_controls", lambda: ())
    assert main(["pulse", "--kind", "gate-standin", "--duration", "1e-7",
                 "--outdir", outdir]) == 0
    assert os.path.exists(os.path.join(outdir, "pulse.csv"))


def test_loop_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # With OpenBLAS at one thread per CPU the 180 ns tf loop's fits used
    # to round differently, and report.json changed; each command now
    # runs at one thread whatever the count it was started with.
    controls = cli._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS build with thread controls is loaded")
    pulse = _make_pulse(str(tmp_path), duration="1.8e-7")
    chan = _write_channel(str(tmp_path / "chan.json"))
    before = _blas_threads()
    reports = []
    try:
        for count in (os.cpu_count() or 1, 1):
            for _, put in controls:
                put(count)
            run = str(tmp_path / f"threads-{count}")
            main(["loop", "--target", pulse, "--channel", chan,
                  "--method", "tf", "--seed", "1",
                  "--trace-noise-sigma", "0.02", "--outdir", run])
            reports.append(Path(run, "report.json").read_bytes())
    finally:
        for (_, put), count in zip(controls, before):
            put(count)
    assert reports[0] == reports[1]


# ------------------------------------------------------------------ optics

def test_optics_sensitivity_output(outdir):
    assert main(["optics", "sensitivity", "--outdir", outdir]) == 0
    lines = Path(outdir, "sensitivity.csv").read_text().splitlines()
    assert lines[0] == "dL_dL_in,dL_dtheta_in,dtheta_dL_in,dtheta_dtheta_in"
    assert len(lines) == 2


def test_optics_aperture_table(outdir):
    assert main(["optics", "aperture", "--t-max", "20", "--steps", "5",
                 "--outdir", outdir]) == 0
    lines = Path(outdir, "aperture.csv").read_text().splitlines()
    assert lines[0] == "delta_T_K,L_m,theta_rad,within_limits"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == 1.0  # no drift passes


def test_optics_waist_sweep(outdir):
    assert main(["optics", "waist-sweep", "--design", "three-waist",
                 "--steps", "7", "--outdir", outdir]) == 0
    lines = Path(outdir, "waist_sweep.csv").read_text().splitlines()
    assert lines[0] == "w_in_m,waist_m,offset_m,within_rayleigh"
    rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
    assert rows[0, 3] == 0.0 and rows[-1, 3] == 1.0


def test_optics_accepts_train_file(outdir):
    from pulseloop.optics import design_three_lens
    train_path = os.path.join(outdir, "train.json")
    fileio.write_train_json(train_path, design_three_lens(mode="compact"))
    assert main(["optics", "sensitivity", "--train", train_path,
                 "--outdir", outdir]) == 0


def test_optics_default_marker_on_a_train_without_markers(outdir):
    from pulseloop.optics import OpticalTrain, free_space, thin_lens
    train = OpticalTrain(elements=(free_space(0.3), thin_lens(0.1),
                                   free_space(0.05)))
    train_path = os.path.join(outdir, "train.json")
    fileio.write_train_json(train_path, train)
    assert main(["optics", "sensitivity", "--train", train_path,
                 "--outdir", outdir]) == 0
    lines = Path(outdir, "sensitivity.csv").read_text().splitlines()
    np.testing.assert_allclose([float(v) for v in lines[1].split(",")],
                               train.matrix().ravel(), rtol=1e-15)


def test_optics_default_marker_is_aom(outdir, tmp_path):
    assert main(["optics", "sensitivity", "--outdir", outdir]) == 0
    assert main(["optics", "sensitivity", "--marker", "aom",
                 "--outdir", str(tmp_path)]) == 0
    name = "sensitivity.csv"
    assert (Path(outdir, name).read_text()
            == Path(tmp_path, name).read_text())


@pytest.mark.parametrize("analysis", ["sensitivity", "aperture",
                                      "waist-sweep"])
def test_optics_unknown_marker_exits_2_naming_it(tmp_path, capsys, analysis):
    # An unknown marker used to fall back silently to the train end.
    out = tmp_path / "out"
    assert main(["optics", analysis, "--marker", "nope",
                 "--outdir", str(out)]) == 2
    assert "nope" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["aperture", "--aperture", "nan"], "aperture must be finite"),
    (["aperture", "--bragg-tol", "nan"], "bragg_tolerance must be finite"),
    (["waist-sweep", "--w-min", "nan"], "w must be finite"),
    (["waist-sweep", "--wavelength", "nan"], "wavelength must be finite"),
    (["waist-sweep", "--wavelength", "inf"], "wavelength must be finite"),
    (["waist-sweep", "--w-min", "1e-170", "--w-max", "1e-170"],
     "w must give a finite Rayleigh length"),
    (["aperture", "--dl-per-k", "inf"], "dl_per_k must be finite"),
    (["aperture", "--dtheta-per-k", "nan"], "dtheta_per_k must be finite"),
    (["aperture", "--t-max", "nan"], "t_max must be finite"),
    (["aperture", "--dtheta-per-k", "1e308", "--t-max", "1e10"],
     "dtheta_per_k * t_max must be finite"),
    (["aperture", "--dl-per-k", "1e300", "--t-max", "1e10"],
     "dl_per_k * t_max must be finite"),
])
def test_optics_non_finite_flag_exits_2_naming_it(tmp_path, capsys, argv,
                                                  message):
    # These used to exit 0, writing all-fail rows or, with a
    # RuntimeWarning, NaN rows; a waist whose Rayleigh length underflows
    # and an aperture drift coefficient or sweep end that is not finite,
    # or whose end drift overflows, warned and then named the derived
    # waist or ray field.
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["optics", *argv, "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Warning" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("analysis", ["sensitivity", "aperture",
                                      "waist-sweep"])
def test_optics_train_nan_parameter_exits_2_naming_it(tmp_path, capsys,
                                                      analysis):
    # It used to exit 0, writing NaN sensitivities.
    train = tmp_path / "train.json"
    fileio.write_train_json(str(train), design_three_lens())
    obj = json.loads(train.read_text())
    obj["elements"][1]["parameter"] = float("nan")
    train.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert main(["optics", analysis, "--train", str(train),
                 "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "parameter must be finite" in err and str(train) in err
    assert not out.exists() or not any(out.iterdir())


# ------------------------------------------------------------- environment

def test_env_var_sets_default_outdir(outdir, monkeypatch):
    monkeypatch.setenv("PULSELOOP_OUTDIR", outdir)
    assert main(["pulse", "--kind", "constant", "--duration", "1e-7"]) == 0
    assert os.path.exists(os.path.join(outdir, "pulse.csv"))


def test_outdir_flag_overrides_env_var(outdir, tmp_path, monkeypatch):
    other = str(tmp_path / "flag")
    os.makedirs(other)
    monkeypatch.setenv("PULSELOOP_OUTDIR", outdir)
    assert main(["pulse", "--kind", "constant", "--duration", "1e-7",
                 "--outdir", other]) == 0
    assert os.path.exists(os.path.join(other, "pulse.csv"))
    assert not os.path.exists(os.path.join(outdir, "pulse.csv"))


def test_manifest_names_inputs_by_content_hash(outdir):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--outdir", outdir]) == 0
    manifest = json.loads(Path(outdir, "manifest.json").read_text())
    assert manifest["inputs"][pulse] == fileio.sha256_file(pulse)
    assert manifest["inputs"][chan] == fileio.sha256_file(chan)
