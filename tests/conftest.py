"""Helpers shared by the test modules."""

import math
import tracemalloc

import numpy as np

from thz_ris_planner.core import _wavenumber
from thz_ris_planner.surface import _centred_axis


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak in bytes of that call): what it allocates over what was already held."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def gradient_phasor(panel, incident, outgoing):
    """exp(j psi), psi = mod(-k0 (u_out - u_in) . r, 2 pi): synthesize_profile's own arithmetic at any incidence.

    Synthesis refuses an oblique incident wave; a test that only wants a random
    wrapped gradient draws it from an incident and an outgoing direction here.
    """
    x = _centred_axis(panel.n_per_side, panel.cell_pitch_m)
    k0 = _wavenumber(panel.design_freq.hertz)
    (u_in, v_in), (u_out, v_out) = incident.transverse(), outgoing.transverse()
    return np.exp(np.mod(-k0 * ((u_out - u_in) * x[:, None] + (v_out - v_in) * x[None, :]), 2.0 * math.pi) * 1j)
