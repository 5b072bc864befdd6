"""Truncated Fock space: the cutoff, and the truncated TMSV amplitudes on it."""

import numpy as np
import pytest

from tmsvfisher import ConfigError, FockCutoff, SqueezingParams

from conftest import tmsv_state


class TestFockCutoff:
    def test_dimensions(self):
        c = FockCutoff(10)
        assert c.dim == 11
        assert c.joint_dim == 121

    def test_minimum_cutoff_enforced(self):
        with pytest.raises(ConfigError):
            FockCutoff(0)


class TestPartialTrace:
    def test_tmsv_reduces_to_thermal(self):
        z = 0.4
        c = FockCutoff(8)
        pops = np.abs(tmsv_state(z, c)) ** 2
        # the TMSV populates only |n, n>, so the idler trace leaves the signal
        # diagonal; oracle: the thermal weights (1 - z^2) z^(2n)
        expected = (1 - z**2) * z ** (2 * np.arange(c.dim))
        assert np.max(np.abs(pops.sum(axis=1) - expected)) < 1e-12
        assert np.count_nonzero(pops - np.diag(np.diag(pops))) == 0


class TestExpectation:
    def test_tmsv_mean_photons(self):
        z = 0.3
        c = FockCutoff(10)
        pops = np.abs(tmsv_state(z, c)) ** 2
        n = np.arange(c.dim)
        got = float(np.sum(pops * np.add.outer(n, n)))
        n_bar = SqueezingParams(z).mean_photons
        # the truncated tail carries ~2n photons per missing pair term
        tol = 10 * c.max_photons * z ** (2 * (c.max_photons + 1)) + 1e-12
        assert abs(got - n_bar) < tol


class TestStateValidation:
    def test_tmsv_norm_deficit_within_tail_bound(self):
        for z in (0.1, 0.5, 0.8):
            c = FockCutoff(6)
            deficit = 1.0 - float(np.sum(np.abs(tmsv_state(z, c)) ** 2))
            assert 0.0 <= deficit <= z ** (2 * (c.max_photons + 1)) + 1e-15
