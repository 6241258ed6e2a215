"""Closed-loop correction of modulator pulse distortion.

Simulates an acousto-optic channel (delay, complex FIR distortion,
quadrature phase physics, noise), measures envelopes through heterodyne
beat-note synthesis and IQ demodulation, identifies the channel kernel
by cross-validated ridge regression, and computes pre-distorted input
pulses in a closed feedback loop. A paraxial optics toolkit covers the
beam-delivery analysis.
"""

from .envelope import (ComplexEnvelope, GridMismatchError, InvalidSpecError,
                       PulseSpec, TimeGrid, ZeroSignalError, align_delay,
                       default_grid, embed, make_pulse, mase, mse_cost,
                       shift_samples)
from .demod import (AliasingError, BeatTrace, FilterSpec, demodulate,
                    design_lowpass, filtfilt, suggested_cutoff,
                    synthesize_beat)
from .sysid import (CVConfig, VolterraModel, build_design_matrix,
                    cross_validate, estimate_kernel, volterra_forward)
from .channel import (AcoustoOpticParams, ChannelConfig, SimulatedChannel,
                      apply_channel, calibrate_kappa, default_kernel,
                      peak_quadrature_phase, quadrature_phase,
                      reflectance_trace)
from .loop import (IterationRecord, LMConfig, LoopConfig, LoopReport,
                   MeasurementError, OfflineResult, ReplayChannel,
                   SingularUpdateError, closed_loop, jacobian,
                   offline_iterate, tf_free_step)
from .optics import (ABCDElement, ApertureReport, GaussianBeam, OpticalTrain,
                     RayState, SensitivityReport, aperture_check,
                     design_single_lens, design_three_lens, free_space,
                     max_temperature_drift, propagate_beam, propagate_ray,
                     sensitivity, thin_lens, waist_vs_input_waist)

__version__ = "0.1.0"
