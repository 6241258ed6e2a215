"""Command-line front end.

Subcommands bind the library into reproducible pipelines: ``pulse``
generates library pulses, ``simulate`` runs the distorting channel,
``demod`` recovers envelopes from beat traces, ``estimate`` identifies
the channel kernel, ``loop`` runs the closed correction loop, and
``optics`` evaluates the beam-delivery trains. Every run writes its
outputs atomically into one directory together with a manifest naming
all inputs and outputs by content hash.

All numeric flags take plain base SI units (Hz, s, m, rad); exit codes
are 0 (success), 2 (invalid arguments or inputs), 3 (non-convergence).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import __version__, fileio
from .envelope import (ComplexEnvelope, GridMismatchError, InvalidSpecError,
                       PulseSpec, TimeGrid, ZeroSignalError, default_grid,
                       make_pulse)
from .demod import (DEFAULT_F_BEAT, DEFAULT_FS, AliasingError, demodulate,
                    design_lowpass, suggested_cutoff, synthesize_beat)
from .sysid import CVConfig, cross_validate, estimate_kernel
from .channel import SimulatedChannel, record_response
from .loop import (LoopConfig, MeasurementError, ReplayChannel,
                   SingularUpdateError, closed_loop)
from .optics import (RayState, aperture_check, design_single_lens,
                     design_three_lens, propagate_ray, sensitivity,
                     waist_vs_input_waist)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3

OUTDIR_ENV = "PULSELOOP_OUTDIR"

METHOD_ALIASES = {
    "transfer-function": "transfer-function",
    "tf": "transfer-function",
    "transfer-function-free": "transfer-function-free",
    "tf-free": "transfer-function-free",
}


class _Run:
    """Collects inputs/outputs of one command for the manifest."""

    def __init__(self, command: str, args: argparse.Namespace):
        self.command = command
        self.started = time.monotonic()
        self.outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
        self.config = {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "outdir")}
        self.inputs: list[str] = []
        self.outputs: list[str] = []

    def in_path(self, path: str) -> str:
        self.inputs.append(path)
        return path

    def out_path(self, name: str) -> str:
        path = os.path.join(self.outdir, name)
        self.outputs.append(path)
        return path

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "version": __version__,
            "seed": self.config.get("seed"),
            "config": {k: (v if not isinstance(v, tuple) else list(v))
                       for k, v in self.config.items()},
            "inputs": {p: fileio.sha256_file(p) for p in self.inputs},
            "outputs": {os.path.relpath(p, self.outdir):
                        fileio.sha256_file(p) for p in self.outputs},
            "duration_s": time.monotonic() - self.started,
        }
        fileio.atomic_write_text(os.path.join(self.outdir, "manifest.json"),
                                 fileio._json_text(manifest))


def _add_outdir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--outdir", default=None,
        help=f"output directory (default: ${OUTDIR_ENV} or the current "
             f"directory)")


# ------------------------------------------------------------------- pulse

def _cmd_pulse(args) -> int:
    run = _Run("pulse", args)
    if args.fwhm is None and args.kind in ("truncated-gaussian", "gaussian"):
        args.fwhm = 0.3 * args.duration
    spec = PulseSpec(kind=args.kind, duration=args.duration, fwhm=args.fwhm,
                     peak=args.peak, phase_jump_rad=args.phase_jump_rad,
                     phase_width_frac=args.phase_width_frac)
    grid = default_grid(args.duration, dt=args.dt,
                        margin_frac=args.margin_frac)
    env = make_pulse(spec, grid)
    fileio.write_envelope(run.out_path(args.out), env)
    run.finish()
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    run = _Run("simulate", args)
    env = fileio.read_envelope(run.in_path(args.input))
    config = fileio.read_channel_json(run.in_path(args.channel))
    out = record_response(env, config)
    trace = None  # synthesized before any write, so a bad flag writes nothing
    if args.trace_out:
        trace = synthesize_beat(out, f_beat=args.beat_hz, fs=args.fs,
                                noise_sigma=args.trace_noise_sigma,
                                seed=config.seed)
    fileio.write_envelope(run.out_path(args.out), out)
    if trace is not None:
        fileio.write_trace_csv(run.out_path(args.trace_out), trace)
    run.finish()
    return EXIT_OK


# ------------------------------------------------------------------- demod

def _cmd_demod(args) -> int:
    run = _Run("demod", args)
    trace = fileio.read_trace_csv(run.in_path(args.trace))
    filt = design_lowpass(args.order, args.cutoff_hz, 1.0 / trace.grid.dt)
    step = max(1, int(round(args.out_dt / trace.grid.dt)))
    out_grid = TimeGrid(t0=trace.grid.t0, dt=step * trace.grid.dt,
                        n=trace.grid.n // step)
    env = demodulate(trace, args.beat_hz, filt, out_grid)
    fileio.write_envelope(run.out_path(args.out), env)
    run.finish()
    return EXIT_OK


# ---------------------------------------------------------------- estimate

def _cmd_estimate(args) -> int:
    run = _Run("estimate", args)
    inp = fileio.read_envelope(run.in_path(args.input))
    out = fileio.read_envelope(run.in_path(args.output))
    from .loop import _align_to_target
    aligned = _align_to_target(out, inp)
    if args.lambda_reg is not None:
        model = estimate_kernel(inp, aligned, args.memory, args.lambda_reg)
    else:
        try:
            grid = tuple(float(v) for v in args.lambda_grid.split(","))
        except ValueError as exc:
            raise InvalidSpecError(f"--lambda-grid: {exc}") from exc
        cv = CVConfig(folds=args.cv_folds, lambda_grid=grid)
        _, scores, model = cross_validate(inp, aligned, args.memory, cv)
        fileio.write_scores_csv(run.out_path(args.scores_out), scores)
    fileio.write_model_json(run.out_path(args.model_out), model)
    run.finish()
    return EXIT_OK


# -------------------------------------------------------------------- loop

def _cmd_loop(args) -> int:
    run = _Run("loop", args)
    target = fileio.read_envelope(run.in_path(args.target))
    if (args.channel is None) == (args.replay is None):
        raise InvalidSpecError("pass exactly one of --channel / --replay")
    if args.channel is not None:
        config = fileio.read_channel_json(run.in_path(args.channel))
        cutoff = args.cutoff_hz
        if cutoff is None:
            cutoff = suggested_cutoff(target.grid.span / 2)
        channel = SimulatedChannel(config, cutoff=cutoff,
                                   trace_noise_sigma=args.trace_noise_sigma,
                                   seed=args.seed)
        measure = channel.measure
    else:
        outputs = []
        for name in sorted(os.listdir(args.replay)):
            if name.endswith("output.csv") or (name.startswith("output")
                                               and name.endswith(".csv")):
                outputs.append(fileio.read_envelope_csv(
                    run.in_path(os.path.join(args.replay, name))))
        measure = ReplayChannel(outputs).measure
    loop_config = LoopConfig(method=METHOD_ALIASES[args.method],
                             max_loop_iters=args.max_iters,
                             convergence_mase=args.converge_mase,
                             memory=args.memory)
    report = closed_loop(measure, target, loop_config)
    fileio.write_report_json(run.out_path("report.json"), report)
    fileio.write_convergence_csv(run.out_path("convergence.csv"), report)
    for rec in report.records:
        fileio.write_envelope_csv(
            run.out_path(f"iter_{rec.index:03d}_input.csv"), rec.s_pred)
        fileio.write_envelope_csv(
            run.out_path(f"iter_{rec.index:03d}_output.csv"), rec.s_out)
    run.finish()
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


# ------------------------------------------------------------------ optics

def _load_train(args, run: _Run):
    if args.train:
        return fileio.read_train_json(run.in_path(args.train))
    designs = {
        "single": design_single_lens,
        "three-compact": lambda: design_three_lens(mode="compact"),
        "three-waist": lambda: design_three_lens(mode="waist-matched"),
    }
    return designs[args.design]()


def _cmd_optics(args) -> int:
    run = _Run("optics", args)
    if args.steps < 1:
        raise InvalidSpecError(f"--steps must be >= 1, got {args.steps}")
    train = _load_train(args, run)
    marker = args.marker
    if marker is None and "aom" in train.markers:
        marker = "aom"
    if args.analysis == "sensitivity":
        s = sensitivity(train, marker)
        rows = (np.array([s.dL_dL_in]), np.array([s.dL_dtheta_in]),
                np.array([s.dtheta_dL_in]), np.array([s.dtheta_dtheta_in]))
        text = fileio._csv_text(
            "dL_dL_in,dL_dtheta_in,dtheta_dL_in,dtheta_dtheta_in", rows)
        fileio.atomic_write_text(run.out_path("sensitivity.csv"), text)
    elif args.analysis == "aperture":
        dts = np.linspace(0.0, args.t_max, args.steps)
        l_out = np.zeros_like(dts)
        th_out = np.zeros_like(dts)
        ok = np.zeros_like(dts)
        for i, dt in enumerate(dts):
            drift = RayState(L=args.dl_per_k * dt,
                             theta=args.dtheta_per_k * dt)
            ray = propagate_ray(train, drift, marker)
            l_out[i], th_out[i] = ray.L, ray.theta
            ok[i] = float(aperture_check(train, drift, args.aperture,
                                         args.bragg_tol, marker).ok)
        text = fileio._csv_text("delta_T_K,L_m,theta_rad,within_limits",
                                (dts, l_out, th_out, ok))
        fileio.atomic_write_text(run.out_path("aperture.csv"), text)
    else:  # waist-sweep
        sweep = np.linspace(args.w_min, args.w_max, args.steps)
        rows = waist_vs_input_waist(train, args.wavelength, sweep, marker)
        text = fileio._csv_text(
            "w_in_m,waist_m,offset_m,within_rayleigh",
            (rows["w_in"], rows["waist"], rows["offset"],
             rows["within_rayleigh"].astype(float)))
        fileio.atomic_write_text(run.out_path("waist_sweep.csv"), text)
    run.finish()
    return EXIT_OK


# ------------------------------------------------------------------ parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="pulseloop",
        description="Closed-loop correction of modulator pulse distortion. "
                    "All numeric flags take base SI units (Hz, s, m, rad).")
    parser.add_argument("--version", action="version",
                        version=f"pulseloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pulse", help="generate a library pulse")
    p.add_argument("--kind", required=True, choices=PulseSpec.KINDS)
    p.add_argument("--duration", type=float, required=True,
                   help="pulse duration, s")
    p.add_argument("--fwhm", type=float, default=None,
                   help="gaussian width, s (default: 0.3 x duration)")
    p.add_argument("--peak", type=float, default=1.0)
    p.add_argument("--phase-jump-rad", type=float, default=np.pi)
    p.add_argument("--phase-width-frac", type=float, default=0.05)
    p.add_argument("--dt", type=float, default=1e-9)
    p.add_argument("--margin-frac", type=float, default=0.5)
    p.add_argument("--out", default="pulse.csv")
    _add_outdir(p)
    p.set_defaults(func=_cmd_pulse)

    p = sub.add_parser("simulate", help="run the distorting channel")
    p.add_argument("--input", required=True, help="input envelope CSV/JSON")
    p.add_argument("--channel", required=True, help="channel config JSON")
    p.add_argument("--out", default="simulated.csv")
    p.add_argument("--trace-out", default=None,
                   help="also write the synthesized beat trace CSV")
    p.add_argument("--beat-hz", type=float, default=DEFAULT_F_BEAT)
    p.add_argument("--fs", type=float, default=DEFAULT_FS)
    p.add_argument("--trace-noise-sigma", type=float, default=0.0)
    _add_outdir(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("demod", help="recover an envelope from a beat trace")
    p.add_argument("--trace", required=True, help="beat trace CSV")
    p.add_argument("--beat-hz", type=float, default=DEFAULT_F_BEAT)
    p.add_argument("--cutoff-hz", type=float, default=20e6)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--out-dt", type=float, default=1e-9,
                   help="sample period of the output envelope, s")
    p.add_argument("--out", default="demodulated.csv")
    _add_outdir(p)
    p.set_defaults(func=_cmd_demod)

    p = sub.add_parser("estimate", help="identify the channel kernel")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--memory", type=int, default=64)
    p.add_argument("--lambda", dest="lambda_reg", type=float, default=None,
                   help="fixed ridge weight (omit to cross-validate)")
    p.add_argument("--cv-folds", type=int, default=5)
    p.add_argument("--lambda-grid", default="1e-6,1e-5,1e-4,1e-3,1e-2,1e-1,1",
                   help="comma-separated ridge weights for cross-validation")
    p.add_argument("--model-out", default="model.json")
    p.add_argument("--scores-out", default="scores.csv")
    _add_outdir(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("loop", help="run the closed correction loop")
    p.add_argument("--target", required=True, help="target envelope CSV/JSON")
    p.add_argument("--channel", default=None,
                   help="channel config JSON (simulated backend)")
    p.add_argument("--replay", default=None,
                   help="directory of recorded output_*.csv (replay backend)")
    p.add_argument("--method", default="transfer-function",
                   choices=sorted(METHOD_ALIASES))
    p.add_argument("--max-iters", type=int, default=10)
    p.add_argument("--converge-mase", type=float, default=1e-3)
    p.add_argument("--memory", type=int, default=64)
    p.add_argument("--cutoff-hz", type=float, default=None,
                   help="demod cutoff (default: scaled to the target span)")
    p.add_argument("--trace-noise-sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    _add_outdir(p)
    p.set_defaults(func=_cmd_loop)

    p = sub.add_parser("optics", help="analyze a beam-delivery train")
    p.add_argument("analysis",
                   choices=["sensitivity", "aperture", "waist-sweep"])
    p.add_argument("--train", default=None, help="train description JSON")
    p.add_argument("--design", default="three-compact",
                   choices=["single", "three-compact", "three-waist"],
                   help="built-in design when --train is not given")
    p.add_argument("--marker", default=None,
                   help="plane to analyze (default: aom when the train has "
                        "it, else the train end)")
    p.add_argument("--aperture", type=float, default=0.6e-3)
    p.add_argument("--bragg-tol", type=float, default=125e-6)
    p.add_argument("--dl-per-k", type=float, default=2e-6,
                   help="input height drift coefficient, m/K")
    p.add_argument("--dtheta-per-k", type=float, default=10e-6,
                   help="input angle drift coefficient, rad/K")
    p.add_argument("--t-max", type=float, default=20.0,
                   help="temperature sweep end, K")
    p.add_argument("--w-min", type=float, default=300e-6)
    p.add_argument("--w-max", type=float, default=1200e-6)
    p.add_argument("--wavelength", type=float, default=405e-9)
    p.add_argument("--steps", type=int, default=41)
    _add_outdir(p)
    p.set_defaults(func=_cmd_optics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, InvalidSpecError, GridMismatchError, ZeroSignalError,
            AliasingError) as exc:
        print(f"pulseloop {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularUpdateError, MeasurementError) as exc:
        print(f"pulseloop {args.command}: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
