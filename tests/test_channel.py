"""Steering vectors, target responses, and seeded channel sampling."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacfl.channel import (
    RngStream,
    _generators,
    SteeringConfig,
    pcg64_start_states,
    sample_rcs,
    sample_rician,
    sample_uniform,
    steering_vector,
    target_response,
)
from oracles import oracle_rcs, oracle_rician


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        v = steering_vector(0.0, SteeringConfig(4))
        np.testing.assert_array_equal(v, np.ones(4, dtype=complex))

    def test_endfire_two_elements(self):
        v = steering_vector(np.pi / 2, SteeringConfig(2, 0.5))
        np.testing.assert_allclose(v, [1.0, -1.0], atol=1e-12)

    def test_thirty_degrees_high_precision(self):
        # exp(j*pi*0.5*i*2*sin(pi/6)) evaluated at 40-digit precision
        expected = np.array(
            [
                1.0 + 0.0j,
                1.5621768045378845e-16 + 1.0j,
                -1.0 + 3.1243536090757689e-16j,
            ]
        )
        v = steering_vector(np.pi / 6, SteeringConfig(3, 0.5))
        np.testing.assert_allclose(v, expected, atol=1e-12)

    def test_unit_modulus_everywhere(self):
        gen = np.random.default_rng(0)
        cfg = SteeringConfig(8)
        for theta in gen.uniform(-np.pi / 2, np.pi / 2, size=1000):
            assert np.max(np.abs(np.abs(steering_vector(theta, cfg)) - 1.0)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            steering_vector(np.pi / 2 + 0.01, SteeringConfig(4))
        with pytest.raises(ValueError):
            steering_vector(-2.0, SteeringConfig(4))
        with pytest.raises(ValueError):
            steering_vector(float("nan"), SteeringConfig(4))

    @pytest.mark.parametrize("n_elements, spacing", [(1, 0.5), (4, 0.5), (8, 0.37)])
    def test_array_of_angles_matches_scalar_calls(self, n_elements, spacing):
        cfg = SteeringConfig(n_elements, spacing)
        thetas = np.random.default_rng(1).uniform(-np.pi / 2, np.pi / 2, size=200)
        thetas[:3] = (-np.pi / 2, 0.0, np.pi / 2)
        rows = steering_vector(thetas, cfg)
        assert rows.shape == (thetas.size, n_elements)
        np.testing.assert_array_equal(rows, np.stack([steering_vector(t, cfg) for t in thetas]))

    @pytest.mark.parametrize("bad", [np.pi / 2 + 1e-9, -2.0, np.nan])
    def test_one_bad_angle_in_an_array_raises(self, bad):
        thetas = np.array([0.1, -0.4, bad, 0.3, bad])
        message = rf"^theta must lie in \[-pi/2, pi/2\]; 2 angle\(s\) outside, the first {re.escape(str(bad))} at index 2$"
        with pytest.raises(ValueError, match=message):
            steering_vector(thetas, SteeringConfig(4))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SteeringConfig(0)
        with pytest.raises(ValueError):
            SteeringConfig(4, 0.0)


class TestTargetResponse:
    def test_zero_rcs(self):
        g = target_response(0.0, 0.3, SteeringConfig(3), SteeringConfig(2))
        np.testing.assert_array_equal(g, np.zeros((3, 2), dtype=complex))

    def test_broadside_unit_rcs(self):
        g = target_response(1.0, 0.0, SteeringConfig(3), SteeringConfig(4))
        np.testing.assert_array_equal(g, np.ones((3, 4), dtype=complex))

    def test_frobenius_norm(self):
        g = target_response(2.0 + 0.0j, np.pi / 6, SteeringConfig(2), SteeringConfig(2))
        assert abs(np.linalg.norm(g) - 4.0) < 1e-12

    def test_rank_one(self):
        g = target_response(0.7 - 0.2j, 0.9, SteeringConfig(4), SteeringConfig(4))
        assert np.linalg.matrix_rank(g, tol=1e-10) == 1

    def test_outer_product_oracle(self):
        gen = np.random.default_rng(3)
        rx, tx = SteeringConfig(4), SteeringConfig(3)
        for _ in range(50):
            theta = gen.uniform(-np.pi / 2, np.pi / 2)
            beta = complex(gen.standard_normal(), gen.standard_normal())
            a = steering_vector(theta, rx)
            b = steering_vector(theta, tx)
            expected = beta * a[:, None] * b.conj()[None, :]
            np.testing.assert_allclose(target_response(beta, theta, rx, tx), expected, atol=1e-12)


class TestSampleRician:
    def test_pure_los_limit(self):
        h = sample_rician(RngStream(1), 6, 5, k_factor=1e12, mean_power=2.5)
        np.testing.assert_allclose(np.abs(h), np.sqrt(2.5), atol=0.0)

    def test_rayleigh_mean_power(self):
        h = sample_rician(RngStream(2), 250, 400, k_factor=0.0, mean_power=1.0)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02

    def test_k3_mean_power(self):
        h = sample_rician(RngStream(3), 250, 400, k_factor=3.0, mean_power=1.0)
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02

    def test_scale_covariance(self):
        h1 = sample_rician(RngStream(4), 8, 8, 3.0, mean_power=1.0)
        hp = sample_rician(RngStream(4), 8, 8, 3.0, mean_power=7.3)
        np.testing.assert_allclose(hp / np.sqrt(7.3), h1, atol=1e-12)

    def test_deterministic(self):
        a = sample_rician(RngStream(5, 9), 4, 4, 3.0)
        b = sample_rician(RngStream(5, 9), 4, 4, 3.0)
        np.testing.assert_array_equal(a, b)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_rician(RngStream(0), 2, 2, 3.0, mean_power=0.0)
        with pytest.raises(ValueError):
            sample_rician(RngStream(0), 2, 2, -1.0)


class TestSampleRcs:
    @pytest.mark.parametrize("alpha", [1.0, 4.0])
    def test_mean_square(self, alpha):
        draws = sample_rcs(RngStream(10, np.arange(100_000, dtype=np.uint64)), alpha)
        assert abs(np.mean(np.abs(draws) ** 2) - alpha) < 0.02 * alpha

    def test_deterministic(self):
        assert sample_rcs(RngStream(11, 3), 2.0) == sample_rcs(RngStream(11, 3), 2.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            sample_rcs(RngStream(0), 0.0)


class TestRngStream:
    def test_same_stream_same_draws(self):
        a = RngStream(42, 7).generator().standard_normal(16)
        b = RngStream(42, 7).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_children_are_distinct(self):
        parent = RngStream(42)
        seen = {parent.child(i).stream for i in range(1000)}
        assert len(seen) == 1000

    def test_child_is_deterministic(self):
        assert RngStream(1, 2).child(3) == RngStream(1, 2).child(3)

    def test_child_of_a_batch_is_the_batch_of_children(self):
        parent = RngStream(42, 5)
        index = np.array([0, 1, 7, 2**32, 2**64 - 1], dtype=np.uint64)
        batch = parent.child(index).child(1000)
        assert batch.stream.dtype == np.uint64
        assert batch.stream.tolist() == [parent.child(int(i)).child(1000).stream for i in index]


def _numpy_start(seed, stream):
    state = RngStream(seed, stream).generator().bit_generator.state
    return state["state"]["state"], state["state"]["inc"]


class TestStartStates:
    """pcg64_start_states against numpy's own SeedSequence + PCG64 seeding."""

    @pytest.mark.parametrize("seed", [0, -1, 2**32, 2**40])
    def test_edge_streams(self, seed):
        streams = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        got = pcg64_start_states(seed, np.array(streams, dtype=np.uint64))
        assert got == [_numpy_start(seed, s) for s in streams]
        # the re-seeded generator carries the whole state a fresh one starts with
        batch = RngStream(seed, np.array(streams, dtype=np.uint64))
        for s, gen in zip(streams, _generators(batch)):
            assert gen.bit_generator.state == RngStream(seed, s).generator().bit_generator.state

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        seed=st.integers(-(2**70), 2**70),
        streams=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    )
    def test_matches_numpy(self, seed, streams):
        got = pcg64_start_states(seed, np.array(streams, dtype=np.uint64))
        assert got == [_numpy_start(seed, s) for s in streams]


class TestBatchDraws:
    """A batch of streams draws exactly what each stream draws on its own generator."""

    STREAMS = RngStream(-7, 3).child(np.arange(6, dtype=np.uint64)).stream

    @pytest.mark.parametrize("k_factor", [0.0, 3.0, 1e12])
    def test_rician(self, k_factor):
        batch = sample_rician(RngStream(-7, self.STREAMS), 3, 5, k_factor, 0.4)
        assert batch.shape == (6, 3, 5)
        want = np.stack([oracle_rician(RngStream(-7, int(s)), 3, 5, k_factor, 0.4) for s in self.STREAMS])
        assert batch.tobytes() == want.tobytes()
        single = sample_rician(RngStream(-7, int(self.STREAMS[2])), 3, 5, k_factor, 0.4)
        assert single.tobytes() == want[2].tobytes()

    def test_rcs(self):
        batch = sample_rcs(RngStream(-7, self.STREAMS), 2.5)
        want = np.array([oracle_rcs(RngStream(-7, int(s)), 2.5) for s in self.STREAMS])
        assert batch.tobytes() == want.tobytes()
        assert sample_rcs(RngStream(-7, int(self.STREAMS[4])), 2.5) == want[4]

    def test_uniform(self):
        batch = sample_uniform(RngStream(-7, self.STREAMS), -np.pi / 2, np.pi / 2)
        want = np.array([RngStream(-7, int(s)).generator().uniform(-np.pi / 2, np.pi / 2) for s in self.STREAMS])
        assert batch.tobytes() == want.tobytes()
