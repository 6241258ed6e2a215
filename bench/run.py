"""pulseloop benchmark: closed-loop solves, shots and residual error.

Run from the repository root:

    python3 bench/run.py --workload loop-model --seed 1 --seconds 20 --trace 0

Workloads (see bench/NOTES.md for why each exists):

  loop-model     closed_loop, method "transfer-function" (sysid + offline)
  loop-feedback  closed_loop, method "transfer-function-free" (channel)
  identify       in-process ``pulseloop estimate`` on recorded CSV pairs

Every case is a gate-standin pulse of 180 ns, 500 ns or 2 us, taken
round-robin, measured through the default ChannelConfig with trace noise
0.02. The seed draws each case's channel noise seed; pulseloop receives
only the generated inputs. One process runs one case at a time (a closed
loop with one client). Each case is checked; a case that fails a check
counts as failed and contributes no timing.

``--trace 0`` prints the end-to-end metrics; their times are scaled by
the speed of a fixed reference computation run between cases (see
Reference). ``--trace 1`` runs every
case twice, untraced and with every traced public function wrapped (see
tracer.py), and prints per-layer metrics per pulse length. The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import os
import time

_T0 = time.perf_counter()  # set-up starts before numpy is imported
# One BLAS thread for both commits compared: with OpenBLAS's default of
# one thread per core, loop-model cases/s spread 4.9-6.5 between runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, summarize  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

DURATIONS = ((1.8e-7, "180ns"), (5e-7, "500ns"), (2e-6, "2us"))
TRACE_NOISE = 0.02
MAX_LOOP_ITERS = 10
MEMORY = 64          # taps fitted by ``pulseloop estimate`` by default
LAMBDA_COUNT = 7     # weights in the CLI's default --lambda-grid
SUPPORT_FLOOR = 0.01  # phase error is taken where |target| >= 1% of max
SETUP_REPEATS = 3    # this process plus two fresh interpreters
BLOCK_ROUNDS = 4     # round-robin rounds per block of the p50 case time
REF_SHARE = 0.2      # reference time run after each case, as a share of it
REF_UNIT_S = 0.0035  # reported seconds are those of a machine that runs
                     # one reference unit in this time (see Reference)

# Quality metrics come from the first ``cases`` cases of a run, which
# always complete, so they repeat exactly for a seed whatever the machine
# speed. Each count is a whole number of p50 blocks and, on a 2-core VM,
# takes 16-20 s with the reference runs between cases.
WORKLOADS = {
    "loop-model": {"method": "transfer-function", "cases": 72},
    "loop-feedback": {"method": "transfer-function-free", "cases": 300},
    "identify": {"method": None, "cases": 24},
}

END_TO_END = (
    ("cases_per_s", "1/s"),
    ("case_s_p50", "s"),
    ("case_s_p90", "s"),
    ("shots_per_case", "count"),
    ("converged_frac", "ratio"),
    ("final_mase", "1"),
    ("final_phase_rms_rad", "rad"),
    ("fit_mase", "1"),
    ("setup_s", "s"),
)

# (metric, unit, span it is computed from, reducer)
LAYER_METRICS = (
    ("sysid.estimate_kernel.calls", "count", "sysid.estimate_kernel", "calls"),
    ("sysid.estimate_kernel.ms", "ms", "sysid.estimate_kernel", "ms"),
    ("sysid.cross_validate.ms", "ms", "sysid.cross_validate", "ms"),
    ("loop.offline_iterate.calls", "count", "loop.offline_iterate", "calls"),
    ("loop.offline_iterate.ms", "ms", "loop.offline_iterate", "ms"),
    ("loop.offline_iterate.accepted_steps", "count", "loop.offline_iterate",
     "accepted"),
    ("loop.offline_iterate.converged_frac", "ratio", "loop.offline_iterate",
     "converged"),
    ("loop.closed_loop.ms", "ms", "loop.closed_loop", "ms"),
    ("loop.closed_loop.self_ms", "ms", "loop.closed_loop", "self_ms"),
    ("loop.improving_shot_frac", "ratio", "loop.closed_loop", "improving"),
    ("channel.measure.calls", "count", "channel.measure", "calls"),
    ("channel.measure.ms", "ms", "channel.measure", "ms"),
    ("channel.apply_channel.ms", "ms", "channel.apply_channel", "ms"),
    ("channel.reflectance_trace.ms", "ms", "channel.reflectance_trace", "ms"),
    ("demod.synthesize_beat.ms", "ms", "demod.synthesize_beat", "ms"),
    ("demod.demodulate.ms", "ms", "demod.demodulate", "ms"),
    ("demod.trace_samples", "samples", "demod.synthesize_beat", "samples"),
    ("envelope.align_delay.ms", "ms", "envelope.align_delay", "ms"),
    ("fileio.read.ms", "ms", "fileio.read", "ms"),
    ("fileio.write.ms", "ms", "fileio.write", "ms"),
    ("cli.main.self_ms", "ms", "cli.main", "self_ms"),
)

TRACE_METRICS = (
    ("trace.untraced_cases_per_s", "1/s"),
    ("trace.traced_cases_per_s", "1/s"),
    ("trace.overhead_frac", "ratio"),
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no src/)."""


class Case(NamedTuple):
    index: int
    duration: float
    label: str
    seed: int           # channel noise seed of the case's measurements
    heldout_seed: int   # identify: noise seed of the held-out measurement


# ------------------------------------------------------------------ set-up

def load_pulseloop():
    """Import pulseloop from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "pulseloop", "__init__.py")):
        raise SetupError(f"no pulseloop package under {SRC}")
    sys.path.insert(0, SRC)
    pl = importlib.import_module("pulseloop")
    importlib.import_module("pulseloop.cli")  # also loads fileio
    if not os.path.abspath(pl.__file__).startswith(SRC + os.sep):
        raise SetupError(f"pulseloop imported from {pl.__file__}, not {SRC}")
    return pl


def make_case(seed, index):
    """Case ``index`` of a seed: its pulse length and channel noise seeds.

    Negative indices are the warm-up cases. String seeding is hashed with
    SHA-512, so a case is the same in every process and on every machine.
    """
    duration, label = DURATIONS[index % len(DURATIONS)]
    rng = random.Random(f"pulseloop-bench/{seed}/{index}")
    return Case(index, duration, label, rng.randrange(2 ** 31),
                rng.randrange(2 ** 31))


class Bench:
    """Generated inputs and the case runner of one workload.

    Loop workloads run a fresh case every time, so a run sees as many
    distinct inputs as it has time for. ``identify`` cycles through the
    ``count`` input/output pairs recorded during set-up.
    """

    def __init__(self, workload, seed, count, workdir):
        self.method = WORKLOADS[workload]["method"]
        self.seed = seed
        self.count = count
        self.workdir = workdir
        self.pl = load_pulseloop()
        self.targets = {
            label: self.pl.make_pulse(
                self.pl.PulseSpec(kind="gate-standin", duration=duration),
                self.pl.default_grid(duration))
            for duration, label in DURATIONS}
        warmups = [make_case(seed, -i) for i in range(1, len(DURATIONS) + 1)]
        digest = hashlib.sha256()
        for _, label in DURATIONS:
            digest.update(self.targets[label].samples.tobytes())
        for case in map(self.case, range(count)):
            digest.update(f"{case.label}:{case.seed}:{case.heldout_seed};"
                          .encode())
        if self.method is None:
            os.makedirs(workdir, exist_ok=True)
            for label, target in self.targets.items():
                self.pl.fileio.write_envelope_csv(self._pulse_csv(label),
                                                  target)
            self.recorded = {}
            for case in [self.case(i) for i in range(count)] + warmups:
                self.recorded[case.index] = self._record(case)
                with open(self._output_csv(case), "rb") as fh:
                    digest.update(fh.read())
        self.inputs_sha256 = digest.hexdigest()
        for case in warmups:
            self.run(case)

    def case(self, i):
        if self.method is None:
            i %= self.count
        return make_case(self.seed, i)

    # identify inputs ------------------------------------------------------
    def _pulse_csv(self, label):
        return os.path.join(self.workdir, f"pulse_{label}.csv")

    def _output_csv(self, case):
        return os.path.join(self.workdir, f"case_{case.index:04d}_output.csv")

    def _outdir(self, case):
        return os.path.join(self.workdir, f"case_{case.index:04d}")

    def _channel(self, case, seed):
        return self.pl.SimulatedChannel(
            self.pl.ChannelConfig(),
            cutoff=self.pl.suggested_cutoff(case.duration),
            trace_noise_sigma=TRACE_NOISE, seed=seed)

    def _aligned(self, raw, target):
        aligned, _ = self.pl.align_delay(raw, target)
        return self.pl.ComplexEnvelope(target.grid,
                                       aligned.samples[:target.grid.n])

    def _record(self, case):
        """Measure the training pair and an independently noised repeat."""
        target = self.targets[case.label]
        train = self._channel(case, case.seed).measure(target)
        heldout = self._channel(case, case.heldout_seed).measure(target)
        self.pl.fileio.write_envelope_csv(self._output_csv(case), train)
        return (self._aligned(train, target), self._aligned(heldout, target))

    # one case -------------------------------------------------------------
    def run(self, case):
        """Run one case; return (wall seconds, outcome for ``check``)."""
        pl = self.pl
        if self.method is None:
            argv = ["estimate", "--input", self._pulse_csv(case.label),
                    "--output", self._output_csv(case),
                    "--outdir", self._outdir(case)]
            start = time.perf_counter()
            code = pl.cli.main(argv)
            return time.perf_counter() - start, code
        shots = 0
        start = time.perf_counter()
        channel = self._channel(case, case.seed)

        def measure(env):
            nonlocal shots
            shots += 1
            return channel.measure(env)

        config = pl.loop.LoopConfig(method=self.method,
                                    max_loop_iters=MAX_LOOP_ITERS)
        report = pl.loop.closed_loop(measure, self.targets[case.label],
                                     config)
        return time.perf_counter() - start, (report, shots, config)

    def check(self, case, outcome):
        """Return (list of failed checks, quality figures of the case)."""
        if self.method is None:
            return self._check_identify(case, outcome)
        return self._check_loop(case, *outcome)

    def _check_loop(self, case, report, shots, config):
        pl = self.pl
        target = self.targets[case.label]
        errors = []
        if shots != len(report.records):
            errors.append(f"{shots} measurements but "
                          f"{len(report.records)} records")
        if not all(np.all(np.isfinite(r.s_out.samples))
                   for r in report.records):
            errors.append("non-finite s_out")
            return errors, None
        last = report.records[-1]
        final = pl.mase(last.s_out, target)
        if not math.isclose(final, report.mase_trace[-1], rel_tol=1e-9):
            errors.append(f"recomputed MASE {final!r} != reported "
                          f"{report.mase_trace[-1]!r}")
        if report.converged and final > config.convergence_mase:
            errors.append(f"converged with MASE {final:.3e} > "
                          f"{config.convergence_mase}")
        # The loop's model of the channel: the last identified kernel
        # (fitted on an earlier shot than the one it predicts), or the
        # identity the feedback update and the first shot assume.
        model = report.final_model
        pred = (last.s_pred if model is None
                else pl.volterra_forward(model, last.s_pred))
        return errors, {
            "label": case.label,
            "shots": shots, "converged": report.converged,
            "final_mase": final,
            "phase_rms": phase_rms(last.s_out.samples, target.samples,
                                   target.samples),
            "fit_mase": pl.mase(pred, last.s_out)}

    def _check_identify(self, case, code):
        pl = self.pl
        if code != 0:
            return [f"estimate exited {code}"], None
        outdir = self._outdir(case)
        model = pl.fileio.read_model_json(os.path.join(outdir, "model.json"))
        errors = []
        if model.memory != MEMORY:
            errors.append(f"model has {model.memory} taps, not {MEMORY}")
        with open(os.path.join(outdir, "scores.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != LAMBDA_COUNT:
            errors.append(f"scores.csv has {len(rows)} rows, not "
                          f"{LAMBDA_COUNT}")
        train, heldout = self.recorded[case.index]
        pred = pl.volterra_forward(model, self.targets[case.label])
        return errors, {
            "label": case.label,
            "shots": 1, "converged": True,
            "final_mase": pl.mase(pred, train),
            "phase_rms": phase_rms(pred.samples, heldout.samples,
                                   self.targets[case.label].samples),
            "fit_mase": pl.mase(pred, heldout)}


def phase_rms(out, ref, target):
    """RMS of angle(out * conj(ref)) over the target pulse's support.

    The support is where |target| >= 1% of its maximum; the mean offset
    is removed (after rotating by the mean phasor so no sample wraps).
    """
    amp = np.abs(target)
    sel = amp >= SUPPORT_FLOOR * amp.max()
    z = out[sel] * np.conj(ref[sel])
    ph = np.angle(z * np.conj(np.sum(z)))
    ph = ph - ph.mean()
    return float(np.sqrt(np.mean(ph ** 2)))


# -------------------------------------------------------------- measuring

def run_case(bench, case, stats, tracer=None):
    """Run and check one case: ``(wall seconds, quality, span summary)``.

    Seconds and quality are None for a case that failed. Spans are
    recorded only when a tracer is given, and only around the case
    itself, not its checks.
    """
    stats["attempted"] += 1
    spans = []
    try:
        if tracer is None:
            elapsed, outcome = bench.run(case)
        else:
            with tracer.recording() as spans:
                elapsed, outcome = bench.run(case)
        errors, quality = bench.check(case, outcome)
    except Exception:  # a failed case is counted, the run goes on
        traceback.print_exc()
        errors = ["raised"]
    if errors:
        stats["failed"] += 1
        print(f"case {case.index} ({case.label}) failed: "
              f"{'; '.join(errors)}", file=sys.stderr)
        return None, None, {}
    return elapsed, quality, summarize(spans)


def run_window(bench, budget_s, min_cases, each_case, step=len(DURATIONS)):
    """Call ``each_case`` on cases 0, 1, 2, ... for ``budget_s`` seconds.

    Stops on a multiple of ``step`` cases (a round-robin boundary by
    default, so each pulse length gets the same share) once ``min_cases``
    have run.
    """
    start = time.perf_counter()
    i = 0
    while True:
        each_case(bench.case(i))
        i += 1
        if (i >= min_cases and i % step == 0
                and time.perf_counter() - start >= budget_s):
            return


def by_label(qualities):
    """Quality figures grouped by pulse length, leaving out empty groups."""
    groups = [[q for q in qualities if q["label"] == label]
              for _, label in DURATIONS]
    return [group for group in groups if group]


def rate(times):
    return len(times) / sum(times) if times else 0.0


class Reference:
    """Fixed numpy/scipy work that gauges how fast the machine is running.

    The 2-core VM measured switches between a fast and a slow state, about
    1.5x apart, every fraction of a second and independently on each vCPU,
    and the share of time spent slow drifts by tens of percent over
    minutes. Wall times of the same code then differ by 20-30 % from one
    run to the next. After every timed case, and after set-up, the
    reference runs for a REF_SHARE of the time just measured, so it
    samples the same states; that time is then scaled by REF_UNIT_S over
    the mean time of one reference unit (taken per block of cases). The
    reference never calls pulseloop, so it costs the same on every commit
    compared.
    """

    def __init__(self):
        # Imported here, after set-up is timed, so that setup_s counts
        # only what pulseloop itself imports.
        import scipy.fft
        import scipy.signal
        self._fft, self._signal = scipy.fft, scipy.signal
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(6000) + 1j * rng.standard_normal(6000)
        self.b, self.a = scipy.signal.butter(4, 0.1)
        for _ in range(5):
            self.unit()

    def unit(self):
        """Seconds taken by one unit: FFTs, filtfilt, a correlation and a
        Python loop, the kinds of work a pulseloop case does."""
        start = time.perf_counter()
        self._fft.ifft(self._fft.fft(self.x, 16384)
                       * self._fft.fft(self.x[::-1], 16384))
        self._signal.filtfilt(self.b, self.a, self.x.real)
        np.correlate(self.x[:1500], self.x[:1500], "full")
        total = 0
        for v in range(20000):
            total += v
        return time.perf_counter() - start

    def sample(self, seconds):
        """Run units for about ``seconds``, at least one: (units, time)."""
        units, spent = 0, 0.0
        while units == 0 or spent < seconds:
            spent += self.unit()
            units += 1
        return units, spent


def scale_of(samples):
    """Factor from wall to reported seconds for (units, time) samples."""
    return (REF_UNIT_S * sum(n for n, _ in samples)
            / sum(t for _, t in samples))


def end_to_end(bench, reference, seconds, setup_s, stats):
    rows, samples = [], []

    def each_case(case):
        rows.append(run_case(bench, case, stats))
        samples.append(reference.sample(REF_SHARE * (rows[-1][0] or 0.0)))

    block = BLOCK_ROUNDS * len(DURATIONS)
    run_window(bench, seconds, bench.count, each_case, block)
    wall = [elapsed for elapsed, _, _ in rows]
    times = []
    for i in range(0, len(wall), block):
        scale = scale_of(samples[i:i + block])
        times += [None if t is None else t * scale for t in wall[i:i + block]]
    passed = [t for t in times if t is not None]
    # Case times are multi-modal: three pulse lengths, and 180 ns solves
    # that split close to half and half between two shot counts (2 or 3
    # with the transfer-function update). A median over single cases, or
    # over rounds of one case per pulse length, sits on the boundary
    # between two modes and jumps by 20-25 % as the seed moves the split.
    # So the median is taken over blocks of BLOCK_ROUNDS rounds, of the
    # block's mean case time. p90 is taken over single cases, the slow
    # solves a user waits for.
    blocks = [statistics.fmean(times[i:i + block])
              for i in range(0, len(times), block)
              if None not in times[i:i + block]]
    if not blocks:
        return {}
    first = [quality for _, quality, _ in rows[:bench.count]]
    good = [q for q in first if q is not None]
    metrics = {
        "cases_per_s": rate(passed),
        "case_s_p50": statistics.median(blocks),
        "case_s_p90": statistics.quantiles(passed, n=10)[-1],
        "setup_s": setup_s,
    }
    if good:
        metrics.update({
            "shots_per_case": statistics.fmean(q["shots"] for q in good),
            "converged_frac": sum(q["converged"] for q in good) / len(first),
            "final_mase": statistics.median(q["final_mase"] for q in good),
            # The three pulse lengths' phase errors differ by up to 5x, so
            # a median over all cases lands between their groups and moves
            # with the seed (IQR / median 0.10 over ten seeds, 96 cases);
            # the mean of the per-length medians moved 0.03.
            "final_phase_rms_rad": statistics.fmean(
                statistics.median(q["phase_rms"] for q in group)
                for group in by_label(good)),
            "fit_mase": statistics.median(q["fit_mase"] for q in good),
        })
    raw = [t for t in wall if t is not None]
    unit_ms = [1e3 * t / n for n, t in samples]
    print(f"wall time: {rate(raw):.4g} cases/s, p90 "
          f"{statistics.quantiles(raw, n=10)[-1]:.4g} s; reference unit "
          f"{min(unit_ms):.3g}-{max(unit_ms):.3g} ms, median "
          f"{statistics.median(unit_ms):.3g} ms")
    print(f"timed cases: {len(passed)} "
          f"({len(passed) - math.ceil(0.9 * len(passed))} beyond p90), "
          f"{len(blocks)} blocks of {block} for p50; quality from the "
          f"first {len(first)}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END if name in metrics}


def trace_targets(pl):
    """(span name, module, qualname, hook) for every traced function."""
    targets = [
        ("sysid.estimate_kernel", "pulseloop.sysid", "estimate_kernel", None),
        ("sysid.cross_validate", "pulseloop.sysid", "cross_validate", None),
        ("loop.offline_iterate", "pulseloop.loop", "offline_iterate",
         lambda r: (len(r.costs) - 1, bool(r.converged))),
        ("loop.closed_loop", "pulseloop.loop", "closed_loop",
         lambda r: [rec.mase for rec in r.records]),
        ("channel.measure", "pulseloop.channel", "SimulatedChannel.measure",
         None),
        ("channel.apply_channel", "pulseloop.channel", "apply_channel", None),
        ("channel.reflectance_trace", "pulseloop.channel",
         "reflectance_trace", None),
        ("demod.synthesize_beat", "pulseloop.demod", "synthesize_beat",
         lambda r: r.grid.n),
        ("demod.demodulate", "pulseloop.demod", "demodulate", None),
        ("envelope.align_delay", "pulseloop.envelope", "align_delay", None),
        ("cli.main", "pulseloop.cli", "main", None),
    ]
    fileio = vars(pl.fileio)
    for prefix in ("read", "write"):
        names = sorted(n for n, v in fileio.items()
                       if n.startswith(prefix + "_") and callable(v))
        targets += [(f"fileio.{prefix}", "pulseloop.fileio", n, None)
                    for n in names]
    return targets


def reduce_layer(kind, rows, span):
    """Per-case mean of one span statistic over ``rows`` (one per case)."""
    per_case = [row.get(span) for row in rows]
    infos = [info for r in per_case if r for info in r["infos"]]
    if kind == "calls":
        return statistics.fmean(r["calls"] if r else 0 for r in per_case)
    if kind in ("ms", "self_ms"):
        key = "incl_s" if kind == "ms" else "self_s"
        return 1e3 * statistics.fmean(r[key] if r else 0.0 for r in per_case)
    if kind == "accepted":
        return statistics.fmean(sum(a for a, _ in r["infos"]) if r else 0
                                for r in per_case)
    if kind == "converged":  # share of calls; 0 when the layer never ran
        return sum(c for _, c in infos) / len(infos) if infos else 0.0
    if kind == "improving":  # shots that lowered MASE / shots after first
        better = sum(sum(b < a for a, b in zip(t, t[1:])) for t in infos)
        later = sum(len(t) - 1 for t in infos)
        return better / later if later else 0.0
    if kind == "samples":  # per shot
        return statistics.fmean(infos) if infos else 0.0
    raise ValueError(kind)


def per_layer(bench, seconds, stats):
    """Run every case untraced and traced, in alternating order.

    Pairing the two runs of the same input keeps drift in machine speed
    out of the tracing overhead.
    """
    tracer = Tracer(trace_targets(bench.pl))
    summaries = {label: [] for _, label in DURATIONS}
    plain, traced = [], []

    def each_case(case):
        order = (None, tracer) if case.index % 2 == 0 else (tracer, None)
        for with_tracer in order:
            elapsed, _, summary = run_case(bench, case, stats, with_tracer)
            if elapsed is None:
                continue
            (plain if with_tracer is None else traced).append(elapsed)
            if with_tracer is not None:
                summaries[case.label].append(summary)

    run_window(bench, seconds, len(DURATIONS), each_case)
    for note in tracer.notes:
        print(f"note: {note}")
    metrics = {}
    for _, label in DURATIONS:
        for name, unit, span, kind in LAYER_METRICS:
            if span in tracer.installed and summaries[label]:
                metrics[f"{name}.{label}"] = {
                    "value": reduce_layer(kind, summaries[label], span),
                    "unit": unit}
    if plain and traced:
        values = (rate(plain), rate(traced), sum(traced) / sum(plain) - 1)
        for (name, unit), value in zip(TRACE_METRICS, values):
            metrics[name] = {"value": value, "unit": unit}
    return metrics


# ------------------------------------------------------------- provenance

OPENBLAS_SYMBOLS = [(f"{prefix}get_num_threads{suffix}",
                     f"{prefix}get_config{suffix}")
                    for prefix in ("scipy_openblas_", "openblas_")
                    for suffix in ("64_", "")]


def openblas_info():
    """OpenBLAS builds loaded in this process and their thread counts."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    found = []
    for path in filter(os.path.isfile, paths):
        lib = ctypes.CDLL(path)
        for threads_name, config_name in OPENBLAS_SYMBOLS:
            get_threads = getattr(lib, threads_name, None)
            get_config = getattr(lib, config_name, None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            found.append({"library": os.path.basename(path),
                          "config": get_config().decode().strip(),
                          "threads": get_threads()})
            break
    return found


def git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"git_sha": "unavailable (not a git checkout)",
                "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
            check=True).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"git_sha": f"unavailable ({exc})", "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(bench, args):
    import scipy
    nproc = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "quality_cases": bench.count,
        "inputs_sha256": bench.inputs_sha256,
        "cpu_model": cpu_model(), "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas": openblas_info(),
        **git_state(),
    }


# ------------------------------------------------------------------- main

def setup_repeats(args):
    """Set-up seconds of fresh interpreters, run one after another."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "0", "--setup-probe"]
    if args.cases:
        cmd += ["--cases", str(args.cases)]
    values = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        if done.returncode != 0:
            raise SetupError(f"set-up repeat failed: {done.stderr.strip()}")
        values.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cases", type=int, default=None,
                        help="cases the quality metrics cover, a multiple "
                             "of 3 (default: per workload); for self-tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cases is not None and (args.cases < 3 or args.cases % 3):
        parser.error("--cases must be a positive multiple of 3")
    return args


def main(argv=None):
    args = parse_args(argv)
    count = args.cases or WORKLOADS[args.workload]["cases"]
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    try:
        bench = Bench(args.workload, args.seed, count, workdir)
        setup_s = time.perf_counter() - _T0
        if not args.trace:
            reference = Reference()
            setup_s *= scale_of([reference.sample(REF_SHARE * setup_s)])
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print("provenance " + json.dumps(provenance(bench, args)))
        stats = {"attempted": 0, "failed": 0}
        if args.trace:
            metrics = per_layer(bench, args.seconds, stats)
        else:
            setups = [setup_s] + setup_repeats(args)
            print("setup_s runs (scaled by the reference): "
                  + ", ".join(f"{v:.3f}" for v in setups))
            metrics = end_to_end(bench, reference, args.seconds,
                                 statistics.median(setups), stats)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # fails while others use it
            os.rmdir(os.path.dirname(workdir))
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": stats["failed"] == 0,
                      "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
