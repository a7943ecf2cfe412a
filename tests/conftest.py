"""Shared builders for test scenarios.

Grids: the response has two frequency scales (cavity linewidth ~ 100 MHz, LC
linewidth ~ 2 MHz), so fits use a merged grid that is coarse across the cavity
and dense across the LC feature.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.errors import InvalidArgument

from cavlink import (
    SystemParams,
    TWO_PI,
    angular_to_hz,
    dressed_modes,
    effective_rates,
)

# `pytest --hypothesis-profile=ci` prints the @reproduce_failure blob of a
# failing property, so that a failure seen in CI can be replayed anywhere.
# Recent hypothesis versions ship a "ci" profile of their own (and load it on
# CI hosts); the profile registered here keeps all of its settings.
try:
    _hypothesis_ci = settings.get_profile("ci")
except InvalidArgument:
    _hypothesis_ci = None
settings.register_profile("ci", _hypothesis_ci, print_blob=True)


def reference_params(delta_bare_hz=520e6, **overrides_hz):
    """Hat-style parameter set: fitted cavity rates, published g and LC loss."""
    values = dict(
        omega_cav=7.0e9 + delta_bare_hz,
        omega_lc=7.0e9,
        kappa_cav_1=150e6,
        kappa_cav_2=5e6,
        kappa_cav_loss=10e6,
        kappa_lc_bare=0.48e6,
        g=57e6,
    )
    values.update(overrides_hz)
    return SystemParams.from_hz(**values)


def merged_grid(params, cavity_span=4.0, cavity_step_frac=0.02,
                lc_span=8.0, lc_points_per_linewidth=24):
    """Coarse grid over the cavity peak plus a dense grid over the LC line."""
    rates = effective_rates(params)
    modes = dressed_modes(params)
    f_cav = angular_to_hz(modes.omega_cav)
    k_cav = angular_to_hz(params.kappa_cav_tot)
    f_lc = angular_to_hz(modes.omega_lc)
    k_lc = angular_to_hz(rates.kappa_lc_tot)
    coarse = np.arange(
        f_cav - cavity_span * k_cav,
        f_cav + cavity_span * k_cav,
        cavity_step_frac * k_cav,
    )
    dense = np.arange(
        f_lc - lc_span * k_lc,
        f_lc + lc_span * k_lc,
        k_lc / lc_points_per_linewidth,
    )
    return np.unique(np.concatenate([coarse, dense]))


def random_params(rng):
    """Physically plausible parameter draw with a well-separated LC mode."""
    k1 = rng.uniform(50e6, 200e6)
    k2 = rng.uniform(0.0, 0.15) * k1
    kl = rng.uniform(0.01, 0.15) * k1
    g = rng.uniform(30e6, 80e6)
    delta = rng.uniform(3.0, 10.0) * max(k1 + k2 + kl, g)
    return SystemParams.from_hz(
        omega_cav=7.0e9 + delta,
        omega_lc=7.0e9,
        kappa_cav_1=k1,
        kappa_cav_2=k2,
        kappa_cav_loss=kl,
        kappa_lc_bare=rng.uniform(0.1e6, 1.0e6),
        g=g,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
