"""Command-line front end: subcommands, exit codes, manifests."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from pulseloop import cli, fileio
from pulseloop.channel import ChannelConfig
from pulseloop.cli import build_parser, main
from pulseloop.demod import DEFAULT_CUTOFF, suggested_cutoff
from pulseloop.envelope import PulseSpec, default_grid, make_pulse
from pulseloop.loop import _align_to_target
from pulseloop.sysid import VolterraModel, estimate_kernel


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
    # the request; behind it the kernel memory and filter settling.
    assert sim.grid.n == 500 + inp.grid.n + 1 + 150
    assert sim.grid.t0 == pytest.approx(inp.grid.t0 + 3000e-9, abs=1e-12)
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
    out = _align_to_target(fileio.read_envelope(simulated), inp)
    ref = estimate_kernel(inp, out, 64, lam)
    model = fileio.read_model_json(os.path.join(outdir, "model.json"))
    got = np.concatenate([[model.h0], model.h1])
    want = np.concatenate([[ref.h0], ref.h1])
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


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
