"""Command-line front end.

Subcommands bind the library into reproducible pipelines: ``pulse``
generates library pulses, ``simulate`` runs the distorting channel,
``demod`` recovers envelopes from beat traces, ``estimate`` identifies
the channel kernel, ``loop`` runs the closed correction loop, and
``optics`` evaluates the beam-delivery trains. Every run writes its
outputs atomically into one directory together with a manifest naming
all inputs and outputs by content hash.

All numeric flags take plain base SI units (Hz, s, m, rad); exit codes
are 0 (success), 2 (invalid arguments or inputs), 3 (non-convergence;
a loop that fails after its first shot still writes the shots it took).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import os
import sys
import time

import numpy as np

from . import __version__, fileio
from .envelope import (DEFAULT_DT, InvalidSpecError, PulseSpec, TimeGrid,
                       _check_real, default_grid, make_pulse)
from .demod import (DEFAULT_CUTOFF, DEFAULT_F_BEAT, DEFAULT_FS, DEFAULT_ORDER,
                    _decimation, demodulate, design_lowpass, suggested_cutoff,
                    synthesize_beat)
from .sysid import DEFAULT_MEMORY, CVConfig, cross_validate, estimate_kernel
from .channel import SimulatedChannel, record_response
from .loop import (_LOOP_FAILURES, _USAGE_ERRORS, LOOP_METHODS, LoopConfig,
                   ReplayChannel, _align_to_target, closed_loop)
from .optics import (APERTURE, BRAGG_TOLERANCE, DESIGN_WAVELENGTH, RayState,
                     aperture_check, design_single_lens, design_three_lens,
                     propagate_ray, sensitivity, waist_vs_input_waist)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3

OUTDIR_ENV = "PULSELOOP_OUTDIR"

METHOD_ALIASES = {**{method: method for method in LOOP_METHODS},
                  "tf": "transfer-function",
                  "tf-free": "transfer-function-free"}


# (get, set) names of the thread count in each OpenBLAS build's naming.
_OPENBLAS_THREAD_SYMBOLS = [(f"{prefix}get_num_threads{suffix}",
                             f"{prefix}set_num_threads{suffix}")
                            for prefix in ("scipy_openblas_", "openblas_")
                            for suffix in ("64_", "")]


@functools.cache
def _openblas_thread_controls() -> tuple:
    """``(get, set)`` of the thread count of each OpenBLAS build loaded in
    this process (NumPy and SciPy may each load their own), found once:
    the shared objects named in ``/proc/self/maps``, through ``ctypes``.
    Empty where there is no such file or no build exports the symbols."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return ()
    controls = []
    for path in filter(os.path.isfile, paths):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS build at one thread, then
    give each its previous count back. A command's LAPACK calls are 66
    columns wide or banded, too small to gain from threads, and OpenBLAS
    rounds differently with more than one, so a command writes the same
    bytes whatever ``OPENBLAS_NUM_THREADS`` says."""
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, previous):
            put(count)


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

def _cmd_pulse(args, run: _Run) -> int:
    if args.fwhm is None and args.kind in ("truncated-gaussian", "gaussian"):
        args.fwhm = 0.3 * args.duration
    spec = PulseSpec(kind=args.kind, duration=args.duration, fwhm=args.fwhm,
                     peak=args.peak, phase_jump_rad=args.phase_jump_rad,
                     phase_width_frac=args.phase_width_frac)
    grid = default_grid(args.duration, dt=args.dt,
                        margin_frac=args.margin_frac)
    env = make_pulse(spec, grid)
    fileio.write_envelope(run.out_path(args.out), env)
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args, run: _Run) -> int:
    env = fileio.read_envelope(run.in_path(args.input))
    config = fileio.read_channel_json(run.in_path(args.channel))
    _check_real("cutoff", args.cutoff_hz, 0, strict=True)
    out = record_response(env, config, args.cutoff_hz)
    trace = None  # synthesized before any write, so a bad flag writes nothing
    if args.trace_out:
        trace = synthesize_beat(out, f_beat=args.beat_hz, fs=args.fs,
                                noise_sigma=args.trace_noise_sigma,
                                seed=config.seed)
    fileio.write_envelope(run.out_path(args.out), out)
    if trace is not None:
        fileio.write_trace_csv(run.out_path(args.trace_out), trace)
    return EXIT_OK


# ------------------------------------------------------------------- demod

def _trace_rate(dt: float) -> float:
    """The rate a trace of period ``dt`` was synthesized at: the whole
    number of hertz whose period is ``dt`` when there is one, else 1 / dt.

    1 / 5e-10 rounds to 1999999999.9999998, and a filter designed there
    differs in its last bits from the one ``SimulatedChannel`` designs at
    2 GHz for some cutoffs.
    """
    fs = float(round(1.0 / dt))
    return fs if 1.0 / fs == dt else 1.0 / dt


def _cmd_demod(args, run: _Run) -> int:
    trace = fileio.read_trace_csv(run.in_path(args.trace))
    filt = design_lowpass(args.order, args.cutoff_hz,
                          _trace_rate(trace.grid.dt))
    step = _decimation(args.out_dt, trace.grid.dt)
    out_grid = TimeGrid(t0=trace.grid.t0, dt=step * trace.grid.dt,
                        n=trace.grid.n // step)
    env = demodulate(trace, args.beat_hz, filt, out_grid)
    fileio.write_envelope(run.out_path(args.out), env)
    return EXIT_OK


# ---------------------------------------------------------------- estimate

def _cmd_estimate(args, run: _Run) -> int:
    cv = None  # checked before any input is read
    if args.lambda_reg is None:
        try:
            grid = tuple(float(v) for v in args.lambda_grid.split(","))
        except ValueError as exc:
            raise InvalidSpecError(f"--lambda-grid: {exc}") from exc
        cv = CVConfig(folds=args.cv_folds, lambda_grid=grid)
    inp = fileio.read_envelope(run.in_path(args.input))
    out = fileio.read_envelope(run.in_path(args.output))
    aligned, _ = _align_to_target(out, inp)
    if cv is None:
        model = estimate_kernel(inp, aligned, args.memory, args.lambda_reg)
    else:
        _, scores, model = cross_validate(inp, aligned, args.memory, cv)
        fileio.write_scores_csv(run.out_path(args.scores_out), scores)
    fileio.write_model_json(run.out_path(args.model_out), model)
    return EXIT_OK


# -------------------------------------------------------------------- loop

def _write_loop(run: _Run, report) -> None:
    """Write a loop report, its convergence table and every shot's input
    and output."""
    fileio.write_report_json(run.out_path("report.json"), report)
    fileio.write_convergence_csv(run.out_path("convergence.csv"), report)
    for rec in report.records:
        fileio.write_envelope_csv(
            run.out_path(f"iter_{rec.index:03d}_input.csv"), rec.s_pred)
        fileio.write_envelope_csv(
            run.out_path(f"iter_{rec.index:03d}_output.csv"), rec.s_out)


def _cmd_loop(args, run: _Run) -> int:
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
    try:
        report = closed_loop(measure, target, loop_config)
    except _LOOP_FAILURES as exc:
        if exc.report is not None:  # keep the shots taken before it
            _write_loop(run, exc.report)
        raise
    _write_loop(run, report)
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


def _cmd_optics(args, run: _Run) -> int:
    if args.analysis != "sensitivity" and args.steps < 1:
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
        # The sweep's largest drifts are the coefficients times t_max.
        for name in ("dl_per_k", "dtheta_per_k", "t_max"):
            _check_real(name, getattr(args, name))
        _check_real("dl_per_k * t_max", args.dl_per_k * args.t_max)
        _check_real("dtheta_per_k * t_max", args.dtheta_per_k * args.t_max)
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
    p.add_argument("--peak", type=float, default=PulseSpec.peak)
    p.add_argument("--phase-jump-rad", type=float,
                   default=PulseSpec.phase_jump_rad)
    p.add_argument("--phase-width-frac", type=float,
                   default=PulseSpec.phase_width_frac)
    p.add_argument("--dt", type=float, default=DEFAULT_DT)
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
    p.add_argument("--cutoff-hz", type=float, default=DEFAULT_CUTOFF,
                   help="demod cutoff the record window settles for; "
                        "demod the trace at the same cutoff")
    p.add_argument("--trace-noise-sigma", type=float, default=0.0)
    _add_outdir(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("demod", help="recover an envelope from a beat trace")
    p.add_argument("--trace", required=True, help="beat trace CSV")
    p.add_argument("--beat-hz", type=float, default=DEFAULT_F_BEAT)
    p.add_argument("--cutoff-hz", type=float, default=DEFAULT_CUTOFF)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--out-dt", type=float, default=DEFAULT_DT,
                   help="sample period of the output envelope, s; a whole "
                        "multiple of the trace period")
    p.add_argument("--out", default="demodulated.csv")
    _add_outdir(p)
    p.set_defaults(func=_cmd_demod)

    p = sub.add_parser("estimate", help="identify the channel kernel")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--memory", type=int, default=DEFAULT_MEMORY)
    p.add_argument("--lambda", dest="lambda_reg", type=float, default=None,
                   help="fixed ridge weight (omit to cross-validate)")
    p.add_argument("--cv-folds", type=int, default=CVConfig.folds)
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
                   help="directory of recorded shots, read in name order "
                        "from files named *output.csv or output*.csv, e.g. "
                        "loop's iter_NNN_output.csv (replay backend)")
    p.add_argument("--method", default="transfer-function",
                   choices=sorted(METHOD_ALIASES))
    p.add_argument("--max-iters", type=int,
                   default=LoopConfig.max_loop_iters)
    p.add_argument("--converge-mase", type=float,
                   default=LoopConfig.convergence_mase)
    p.add_argument("--memory", type=int, default=DEFAULT_MEMORY)
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
    p.add_argument("--aperture", type=float, default=APERTURE)
    p.add_argument("--bragg-tol", type=float, default=BRAGG_TOLERANCE)
    p.add_argument("--dl-per-k", type=float, default=2e-6,
                   help="input height drift coefficient, m/K")
    p.add_argument("--dtheta-per-k", type=float, default=10e-6,
                   help="input angle drift coefficient, rad/K")
    p.add_argument("--t-max", type=float, default=20.0,
                   help="temperature sweep end, K")
    p.add_argument("--w-min", type=float, default=300e-6)
    p.add_argument("--w-max", type=float, default=1200e-6)
    p.add_argument("--wavelength", type=float, default=DESIGN_WAVELENGTH)
    p.add_argument("--steps", type=int, default=41,
                   help="table rows for aperture and waist-sweep")
    _add_outdir(p)
    p.set_defaults(func=_cmd_optics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run = _Run(args.command, args)
    try:
        with _one_blas_thread():
            code = args.func(args, run)
        run.finish()
        return code
    except _USAGE_ERRORS as exc:
        print(f"pulseloop {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _LOOP_FAILURES as exc:
        if run.outputs:  # the partial report of the shots taken
            run.finish()
        print(f"pulseloop {args.command}: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
