import math

import numpy as np
import pytest

from lpdecode.channel import (Awgn, Bsc, ChannelError, CostVector, llr_costs,
                              transmit, trial_rng)


class TestModels:
    def test_bsc_range(self):
        with pytest.raises(ChannelError):
            Bsc(p=0.0)
        with pytest.raises(ChannelError):
            Bsc(p=0.5)
        Bsc(p=0.499)

    def test_awgn_range(self):
        for sigma in (0.0, math.inf, math.nan):
            with pytest.raises(ChannelError):
                Awgn(sigma=sigma)
        Awgn(sigma=1e-9)

    def test_cost_vector_finite(self):
        for gammas in ((float("inf"),), [1.0, float("nan")], np.array([-np.inf, 0.0]),
                       np.ones((2, 2))):
            with pytest.raises(ChannelError):
                CostVector(gammas=gammas)

    def test_cost_vector_owns_read_only_float64(self):
        source = np.array([1.5, -2.0, 3.0])
        gamma = CostVector(gammas=source)
        source[0] = 7.0
        assert gamma.gammas.tolist() == [1.5, -2.0, 3.0]
        assert CostVector(gammas=[1, -2]).gammas.dtype == np.float64
        with pytest.raises(ValueError):
            gamma.gammas[0] = 0.0


class TestTransmit:
    def test_deterministic_given_seed(self):
        ch = Bsc(p=0.2)
        x = [0, 1, 0, 1, 1, 0]
        a = transmit(x, ch, seed=7, trial=3)
        b = transmit(x, ch, seed=7, trial=3)
        assert np.array_equal(a, b)

    def test_distinct_trials_differ(self):
        ch = Bsc(p=0.4)
        x = [0] * 64
        a = transmit(x, ch, seed=7, trial=0)
        b = transmit(x, ch, seed=7, trial=1)
        assert not np.array_equal(a, b)

    def test_tiny_p_is_identity(self):
        # regression: pinned seed, overwhelming no-flip probability
        ch = Bsc(p=1e-9)
        x = [0, 1, 1, 0]
        assert np.array_equal(transmit(x, ch, seed=0, trial=0), x)

    def test_tiny_sigma_close_to_bpsk(self):
        ch = Awgn(sigma=1e-9)
        x = np.array([0, 1, 0, 1])
        y = transmit(x, ch, seed=0)
        assert np.allclose(y, 1 - 2 * x, atol=1e-6)

    def test_flip_fraction_concentrates(self):
        p = 0.499
        n = 100_000
        y = transmit([0] * n, Bsc(p=p), seed=11)
        frac = y.mean()
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(frac - p) < 3 * sigma

    def test_non_binary_rejected(self):
        for codeword in ([0, 2], [0.5, 1], [1.7, 0]):
            with pytest.raises(ChannelError):
                transmit(codeword, Bsc(p=0.1), seed=0)


class TestLlrCosts:
    def test_bsc_value(self):
        gamma = llr_costs([1], Bsc(p=0.1))
        assert gamma.gammas[0] == pytest.approx(math.log(1 / 9), abs=1e-12)

    def test_bsc_all_zero_received(self):
        gamma = llr_costs([0, 0, 0], Bsc(p=0.2))
        assert len(set(gamma.gammas)) == 1
        assert gamma.gammas[0] > 0

    def test_bsc_constant_magnitude(self):
        p = 0.3
        gamma = llr_costs([0, 1, 1, 0], Bsc(p=p))
        expected = math.log((1 - p) / p)
        assert all(abs(g) == pytest.approx(expected, abs=1e-12) for g in gamma.gammas)

    def test_bsc_non_binary_rejected(self):
        for received in ([0, 0.5, 2, float("nan")], [0, 2], [0.5], [-1, 1]):
            with pytest.raises(ChannelError):
                llr_costs(received, Bsc(p=0.1))

    def test_awgn_zero_received_is_erasure(self):
        gamma = llr_costs([0.0], Awgn(sigma=1.0))
        assert gamma.gammas[0] == 0.0

    def test_awgn_linear_slope(self):
        sigma = 0.7
        y = np.array([-1.3, 0.2, 2.5])
        gamma = llr_costs(y, Awgn(sigma=sigma))
        assert np.allclose(gamma.gammas, 2 * y / sigma ** 2)

    def test_hard_decision_is_unconstrained_argmin(self):
        # minimizing Gamma.x bitwise picks x_i = 1 iff gamma_i < 0
        rng = trial_rng(3, 0)
        y = rng.normal(0, 1, 20)
        gamma = llr_costs(y, Awgn(sigma=0.8))
        hard = [1 if g < 0 else 0 for g in gamma.gammas]
        best = min(
            (sum(g * b for g, b in zip(gamma.gammas, bits)), bits)
            for bits in [[(k >> i) & 1 for i in range(20)] for k in range(0, 1 << 20, 997)]
        )
        assert sum(g * b for g, b in zip(gamma.gammas, hard)) <= best[0] + 1e-12

    def test_scaling_leaves_argmin_unchanged(self):
        y = [1, 0, 1, 1, 0]
        g1 = llr_costs(y, Bsc(p=0.1))
        g2 = llr_costs(y, Bsc(p=0.25))
        # both are positive scalings of the same sign pattern
        assert [g < 0 for g in g1.gammas] == [g < 0 for g in g2.gammas]
