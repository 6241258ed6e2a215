"""Command-line front end: subcommands, exit codes, manifests."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from pulseloop import fileio
from pulseloop.channel import ChannelConfig
from pulseloop.cli import main
from pulseloop.envelope import PulseSpec, default_grid, make_pulse
from pulseloop.sysid import VolterraModel


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


@pytest.mark.parametrize("argv", [
    ["pulse", "--kind", "constant", "--duration", "1e-7", "--dt", "0"],
    ["pulse", "--kind", "constant", "--duration", "nan"],
    ["estimate", "--input", "{pulse}", "--output", "{pulse}",
     "--lambda-grid", "1e-3,abc"],
    ["optics", "aperture", "--steps", "-1"],
])
def test_bad_numeric_flags_exit_2(outdir, capsys, argv):
    pulse = _make_pulse(outdir)
    argv = [a.format(pulse=pulse) for a in argv]
    assert main(argv + ["--outdir", outdir]) == 2
    assert f"pulseloop {argv[0]}" in capsys.readouterr().err


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


def test_simulate_window_grows_with_the_channel_delay(outdir):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"), delay=3.5e-6,
                          volterra=VolterraModel.identity(),
                          aom_enabled=False)
    assert main(["simulate", "--input", pulse, "--channel", chan,
                 "--outdir", outdir]) == 0
    inp = fileio.read_envelope_csv(pulse)
    sim = fileio.read_envelope_csv(os.path.join(outdir, "simulated.csv"))
    assert sim.grid.n == inp.grid.n + 500 + 3500 + 1 + 150
    assert sim.norm() == pytest.approx(inp.norm(), rel=1e-12)


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


def test_loop_non_convergence_exits_3(outdir):
    pulse = _make_pulse(outdir)
    chan = _write_channel(os.path.join(outdir, "chan.json"))
    code = main(["loop", "--target", pulse, "--channel", chan,
                 "--max-iters", "1", "--converge-mase", "1e-12",
                 "--outdir", outdir])
    assert code == 3
    # The partial report is still written for inspection.
    assert os.path.exists(os.path.join(outdir, "report.json"))


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
