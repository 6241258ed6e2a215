"""End-to-end acceptance checks for the correction pipeline.

Each test exercises one release criterion and prints a single verdict
line so a plain ``pytest -v`` run doubles as an acceptance report.
"""

import json
import os
from pathlib import Path
import time

import numpy as np
import pytest

from pulseloop.channel import (AcoustoOpticParams, ChannelConfig,
                               SimulatedChannel, apply_channel,
                               calibrate_kappa, quadrature_phase,
                               reflectance_trace)
from pulseloop.cli import main as cli_main
from pulseloop.demod import (DEFAULT_F_BEAT, DEFAULT_FS, design_lowpass,
                             demodulate, suggested_cutoff, synthesize_beat)
from pulseloop.envelope import (ComplexEnvelope, PulseSpec, TimeGrid,
                                default_grid, make_pulse, mase)
from pulseloop.loop import (LMConfig, LoopConfig, closed_loop, jacobian,
                            offline_iterate)
from pulseloop.optics import (design_single_lens, design_three_lens,
                              max_temperature_drift, sensitivity)
from pulseloop.sysid import VolterraModel, estimate_kernel, volterra_forward


def _verdict(capsys, number, ok, detail):
    line = f"[acceptance {number}] {'PASS' if ok else 'FAIL'}  {detail}"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


def _pulse(kind, duration, fwhm=None):
    spec = PulseSpec(kind=kind, duration=duration, fwhm=fwhm)
    return make_pulse(spec, default_grid(duration))


def test_acceptance_1_demodulation_round_trip(capsys):
    """Synthesize-then-demodulate reproduces library pulses to < 1e-4."""
    worst_err, worst_time = 0.0, 0.0
    for duration in (1e-7, 1.8e-7, 5e-7, 1e-6):
        for kind, fwhm in (("truncated-gaussian", 0.3 * duration),
                           ("gaussian", duration / 3),
                           ("gate-standin", None)):
            env = _pulse(kind, duration, fwhm)
            start = time.perf_counter()
            trace = synthesize_beat(env, f_beat=DEFAULT_F_BEAT, fs=DEFAULT_FS)
            filt = design_lowpass(4, suggested_cutoff(duration), DEFAULT_FS)
            rec = demodulate(trace, DEFAULT_F_BEAT, filt, env.grid)
            elapsed = time.perf_counter() - start
            worst_err = max(worst_err, mase(rec, env))
            worst_time = max(worst_time, elapsed)
    ok = worst_err < 1e-4 and worst_time < 5.0
    _verdict(capsys, 1, ok,
             f"round trip over 12 library pulses: worst MASE "
             f"{worst_err:.2e} (< 1e-4), slowest {worst_time:.2f} s (< 5 s)")


def test_acceptance_2_kernel_identifiability(capsys):
    """Noiseless random kernels are recovered exactly, 100 trials."""
    rng = np.random.default_rng(101)
    worst_tap, worst_mase = 0.0, 0.0
    for _ in range(100):
        memory = int(rng.integers(1, 65))
        n = 4 * memory + int(rng.integers(8, 64))
        inp = ComplexEnvelope(TimeGrid(0.0, 1e-9, n),
                              rng.standard_normal(n)
                              + 1j * rng.standard_normal(n))
        true = VolterraModel(h0=complex(*rng.standard_normal(2)) * 0.3,
                             h1=rng.standard_normal(memory)
                             + 1j * rng.standard_normal(memory))
        out = volterra_forward(true, inp)
        model = estimate_kernel(inp, out, memory, 0.0)
        scale = np.max(np.abs(true.h1))
        worst_tap = max(worst_tap,
                        np.max(np.abs(model.h1 - true.h1)) / scale,
                        abs(model.h0 - true.h0) / scale)
        worst_mase = max(worst_mase, mase(volterra_forward(model, inp), out))
    ok = worst_tap < 1e-8 and worst_mase < 1e-8
    _verdict(capsys, 2, ok,
             f"100 random kernels (memory <= 64): worst relative tap error "
             f"{worst_tap:.2e}, worst fitted MASE {worst_mase:.2e} "
             f"(both < 1e-8)")


def test_acceptance_3_offline_lm_convergence(capsys):
    """Damped Gauss-Newton drives invertible 4-tap models below 1e-6."""
    rng = np.random.default_rng(102)
    target = _pulse("gate-standin", 3e-7)
    worst_cost, all_converged = 0.0, True
    for _ in range(8):
        # Dominant leading tap keeps the channel invertible.
        lead = 0.7 + 0.3 * rng.random()
        rest = 0.15 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        model = VolterraModel(h0=0.02 * complex(*rng.standard_normal(2)),
                              h1=np.concatenate(([lead], rest)))
        result = offline_iterate(model, target, LMConfig(max_iters=50))
        all_converged = all_converged and result.converged
        worst_cost = max(worst_cost, result.costs[-1])
    ok = all_converged and worst_cost < 1e-6
    _verdict(capsys, 3, ok,
             f"8 invertible 4-tap models, <= 50 inner iterations: worst "
             f"final cost {worst_cost:.2e} (< 1e-6)")


def test_acceptance_4_closed_loop_residual_feedback(capsys):
    """500 ns gate pulse converges in under 4 iterations with noise."""
    target = _pulse("gate-standin", 5e-7)
    chan = SimulatedChannel(ChannelConfig(), cutoff=24e6,
                            trace_noise_sigma=0.02, seed=1)
    report = closed_loop(chan.measure, target,
                         LoopConfig(method="transfer-function-free",
                                    max_loop_iters=10,
                                    convergence_mase=1e-3))
    iters = len(report.records)
    final = report.mase_trace[-1]
    ok = report.converged and iters < 4 and final <= 2e-3
    _verdict(capsys, 4, ok,
             f"residual-feedback loop, 500 ns gate, noisy channel: "
             f"{iters} iterations (< 4), final MASE {final:.2e} (<= 2e-3)")


def test_acceptance_5_closed_loop_model_inversion(capsys):
    """180 ns and 500 ns pulses reach 1e-3 via the identified model."""
    start = time.perf_counter()
    results = []
    for duration, cutoff in ((1.8e-7, 67e6), (5e-7, 24e6)):
        target = _pulse("gate-standin", duration)
        chan = SimulatedChannel(ChannelConfig(), cutoff=cutoff,
                                trace_noise_sigma=0.02, seed=3)
        report = closed_loop(chan.measure, target,
                             LoopConfig(method="transfer-function",
                                        max_loop_iters=6,
                                        convergence_mase=1e-3))
        results.append((duration, report))
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and all(
        r.converged and len(r.records) <= 6 and r.mase_trace[-1] <= 1e-3
        for _, r in results)
    summary = ", ".join(
        f"{d * 1e9:.0f} ns in {len(r.records)} iters to {r.mase_trace[-1]:.1e}"
        for d, r in results)
    _verdict(capsys, 5, ok,
             f"model-inversion loop: {summary} (<= 6 iters, <= 1e-3); "
             f"total {elapsed:.1f} s (< 60 s)")


def test_acceptance_6_quadrature_distortion_signature(capsys):
    """Pure-amplitude Gaussian picks up ~0.25 rad peak phase."""
    params = AcoustoOpticParams()
    kappa = calibrate_kappa(params)

    grid = TimeGrid(-8e-7, 1e-9, 1601)
    env = make_pulse(PulseSpec(kind="gaussian", duration=16e-7, fwhm=3e-7),
                     grid)
    assert np.allclose(env.samples.imag, 0.0)
    r = reflectance_trace(env, params, kappa)
    phase = quadrature_phase(r)
    support = np.flatnonzero(np.abs(r) >= 0.01 * np.abs(r).max())
    core = phase[support]
    peak = float(np.max(np.abs(core)))

    # One contiguous same-signed lobe per envelope transition: the
    # half-peak set splits into a leading and a trailing run around the
    # pulse centre, with no sign flips above 10% of the peak.
    half = np.flatnonzero(np.abs(core) >= 0.5 * peak)
    runs = np.split(half, np.flatnonzero(np.diff(half) > 1) + 1)
    centre = int(np.abs(env.samples).argmax()) - support[0]
    single_lobed = (len(runs) == 2
                    and runs[0][-1] < centre < runs[1][0]
                    and np.all(core[np.abs(core) > 0.1 * peak] * core[
                        np.abs(core).argmax()] > 0))

    # Constant-amplitude regions carry no phase: trapezoid drive through
    # the full channel, plateau interior stays below 1e-3 rad.
    tgrid = TimeGrid(0.0, 1e-9, 6000)
    t = tgrid.times()
    ramp = 5e-7
    amp = np.clip((t - 5e-7) / ramp, 0, 1) * np.clip((5.5e-6 - t) / ramp, 0, 1)
    trap = ComplexEnvelope(tgrid, amp.astype(complex))
    out = apply_channel(trap, ChannelConfig(delay=0.0,
                                            volterra=VolterraModel.identity(),
                                            aom_enabled=True,
                                            noise_sigma=0.0))
    plateau = float(np.max(np.abs(out.phase[(t > 1.5e-6) & (t < 4.5e-6)])))

    ok = abs(peak - 0.25) <= 0.05 and single_lobed and plateau < 1e-3
    _verdict(capsys, 6, ok,
             f"quadrature distortion: peak phase {peak:.3f} rad "
             f"(0.25 +/- 0.05), one lobe per transition: {single_lobed}, "
             f"plateau phase {plateau:.1e} rad (< 1e-3)")


def test_acceptance_7_jacobian_matches_finite_differences(capsys):
    """Analytic Jacobian agrees with central differences, 50 kernels."""
    rng = np.random.default_rng(103)
    step = 1e-6
    worst = 0.0
    for _ in range(50):
        memory = int(rng.integers(1, 33))
        n = memory + int(rng.integers(4, 24))
        model = VolterraModel(h0=complex(*rng.standard_normal(2)),
                              h1=rng.standard_normal(memory)
                              + 1j * rng.standard_normal(memory))
        grid = TimeGrid(0.0, 1e-9, n)
        env = ComplexEnvelope(grid, rng.standard_normal(n)
                              + 1j * rng.standard_normal(n))
        j = jacobian(model, env)
        scale = np.max(np.abs(j))
        for m in range(0, n, max(1, n // 5)):
            for direction in (step, 1j * step):
                plus = env.samples.copy()
                plus[m] += direction
                minus = env.samples.copy()
                minus[m] -= direction
                diff = (volterra_forward(model,
                                         ComplexEnvelope(grid, plus)).samples
                        - volterra_forward(model,
                                           ComplexEnvelope(grid,
                                                           minus)).samples)
                column = diff / (2 * direction)
                worst = max(worst,
                            np.max(np.abs(column - j[:, m])) / scale)
    ok = worst < 1e-6
    _verdict(capsys, 7, ok,
             f"50 random kernels, central differences at step 1e-6: worst "
             f"relative column error {worst:.2e} (< 1e-6)")


def test_acceptance_8_optical_train_comparison(capsys):
    """Three-lens relay beats the single lens on angle drift and heat."""
    single = sensitivity(design_single_lens(), "aom")
    three = sensitivity(design_three_lens(mode="compact"), "aom")
    ratio = abs(single.dL_dtheta_in) / abs(three.dL_dtheta_in)

    compact = max_temperature_drift(design_three_lens(mode="compact"),
                                    dL_dT=2e-6, dtheta_dT=10e-6,
                                    marker="aom")
    reference = max_temperature_drift(design_single_lens(),
                                      dL_dT=11e-6, dtheta_dT=23e-6,
                                      marker="aom")
    ok = abs(ratio - 2.5) <= 0.5 and compact > reference
    _verdict(capsys, 8, ok,
             f"angle-sensitivity ratio single/three = {ratio:.2f} "
             f"(2.5 +/- 20%); max temperature drift compact {compact:.1f} K "
             f"> reference {reference:.1f} K")


def test_acceptance_9_loop_runs_are_deterministic(capsys, tmp_path):
    """Identical seeds reproduce the loop report byte for byte."""
    dirs = []
    for name in ("a", "b"):
        outdir = str(tmp_path / name)
        os.makedirs(outdir)
        dirs.append(outdir)
    assert cli_main(["pulse", "--kind", "gate-standin",
                     "--duration", "5e-7", "--outdir", dirs[0]]) == 0
    from pulseloop import fileio
    chan = os.path.join(dirs[0], "chan.json")
    fileio.write_channel_json(chan, ChannelConfig())
    pulse = os.path.join(dirs[0], "pulse.csv")

    identical = True
    for outdir in dirs:
        code = cli_main(["loop", "--target", pulse, "--channel", chan,
                         "--method", "tf-free", "--seed", "7",
                         "--trace-noise-sigma", "0.02", "--outdir", outdir])
        identical = identical and code == 0
    for name in ("report.json", "convergence.csv"):
        with open(os.path.join(dirs[0], name), "rb") as fa, \
                open(os.path.join(dirs[1], name), "rb") as fb:
            identical = identical and fa.read() == fb.read()
    reports = [json.loads(Path(d, "report.json").read_text()) for d in dirs]
    _verdict(capsys, 9, identical,
             f"two seeded loop runs: report.json and convergence.csv byte "
             f"identical, {len(reports[0]['records'])} iterations each")
