"""Scenario presets, dataset synthesis, and the binary file format."""

import struct

import numpy as np
import pytest

from isacfl.datagen import (
    SCENARIO_VARIANTS,
    DatasetFormatError,
    DatasetVersionError,
    build_scenario,
    generate_bs_dataset,
    generate_dataset,
    read_bs_dataset,
    read_dataset,
    write_bs_dataset,
    write_dataset,
)
from oracles import oracle_bs_dataset


class TestScenarioVariants:
    def test_homogeneous(self):
        scn = build_scenario("homogeneous", n_t=8, n_r=8)
        assert scn.n_cells == 3 and scn.n_t == 8 and scn.n_r == 8
        assert scn.k_per_cell == (2, 3, 4)
        assert scn.rho_per_cell == (0.5, 0.5, 0.5)
        assert scn.rician_k == 3.0

    def test_heterogeneous(self):
        scn = build_scenario("heterogeneous", n_t=8, n_r=8)
        assert scn.rho_per_cell == (0.2, 0.6, 0.8)
        assert scn.k_per_cell == (2, 3, 4)

    def test_equal_ue_variants(self):
        assert build_scenario("equal_ue_homogeneous", n_t=8, n_r=8).k_per_cell == (2, 2, 2)
        assert build_scenario("equal_ue_homogeneous", n_t=8, n_r=8).rho_per_cell == (0.5, 0.5, 0.5)
        assert build_scenario("equal_ue_heterogeneous", n_t=8, n_r=8).k_per_cell == (2, 2, 2)
        assert build_scenario("equal_ue_heterogeneous", n_t=8, n_r=8).rho_per_cell == (0.2, 0.6, 0.8)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_scenario("ultra", n_t=8, n_r=8)

    @pytest.mark.parametrize(
        "field, value",
        [("rician_k", 1e12), ("k_per_cell", (1, 2, 3)), ("rho_per_cell", (0.1, 0.9, 0.4))],
    )
    def test_override_replaces_preset(self, field, value):
        scn = build_scenario("heterogeneous", n_t=3, n_r=5, **{field: value})
        assert getattr(scn, field) == value
        assert (scn.n_t, scn.n_r) == (3, 5)


@pytest.fixture(scope="module")
def small_scn():
    return build_scenario("heterogeneous", n_t=3, n_r=3)


@pytest.fixture(scope="module")
def small_data(small_scn):
    return generate_dataset(small_scn, 40, seed=9)


class TestGeneration:
    def test_deterministic(self, small_scn, small_data):
        again = generate_dataset(small_scn, 40, seed=9)
        for a, b in zip(small_data, again):
            np.testing.assert_array_equal(a.comm_direct, b.comm_direct)
            np.testing.assert_array_equal(a.target_theta, b.target_theta)
            np.testing.assert_array_equal(a.target_beta, b.target_beta)
            for i in a.comm_cross:
                np.testing.assert_array_equal(a.comm_cross[i], b.comm_cross[i])
            for i in a.radar_cross:
                np.testing.assert_array_equal(a.radar_cross[i], b.radar_cross[i])

    def test_different_seed_differs(self, small_scn, small_data):
        other = generate_bs_dataset(small_scn, 0, 40, seed=10)
        assert not np.array_equal(other.comm_direct, small_data[0].comm_direct)

    def test_theta_range(self, small_data):
        for ds in small_data:
            assert np.all(ds.target_theta >= -np.pi / 2)
            assert np.all(ds.target_theta <= np.pi / 2)

    def test_split_is_90_10(self, small_data):
        ds = small_data[0]
        assert ds.n_train == 36

    def test_too_few_samples(self, small_scn):
        with pytest.raises(ValueError):
            generate_bs_dataset(small_scn, 0, 9, seed=0)

    def test_mean_power(self):
        scn = build_scenario("homogeneous", n_t=4, n_r=4)
        ds = generate_bs_dataset(scn, 0, 3000, seed=4)
        direct = np.mean(np.abs(ds.comm_direct) ** 2)
        assert abs(direct - 1.0) < 0.02
        for i, arr in ds.comm_cross.items():
            cross = np.mean(np.abs(arr) ** 2)
            assert abs(cross - scn.cross_power_ratio) < 0.02 * 1.0
            assert cross < direct

    def test_shapes_and_finiteness(self, small_scn, small_data):
        for m, ds in enumerate(small_data):
            k_m = small_scn.k_per_cell[m]
            assert ds.comm_direct.shape == (40, k_m, 3)
            assert set(ds.comm_cross) == {i for i in range(3) if i != m}
            assert set(ds.radar_cross) == {i for i in range(3) if i != m}
            for arr in (ds.comm_direct, ds.target_theta, ds.target_beta):
                assert np.all(np.isfinite(arr.view(np.float64)))


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, small_data):
        paths = write_dataset(tmp_path / "d", small_data)
        assert [p.name for p in paths] == ["bs0.ds", "bs1.ds", "bs2.ds"]
        loaded = read_dataset(tmp_path / "d")
        for a, b in zip(small_data, loaded):
            assert a.scenario == b.scenario
            assert a.cell == b.cell and a.seed == b.seed and a.n_train == b.n_train
            np.testing.assert_array_equal(a.comm_direct, b.comm_direct)
            np.testing.assert_array_equal(a.target_theta, b.target_theta)
            np.testing.assert_array_equal(a.target_beta, b.target_beta)
            for i in a.comm_cross:
                np.testing.assert_array_equal(a.comm_cross[i], b.comm_cross[i])
            for i in a.radar_cross:
                np.testing.assert_array_equal(a.radar_cross[i], b.radar_cross[i])

    def test_regenerated_files_identical(self, tmp_path, small_scn):
        a = write_dataset(tmp_path / "a", generate_dataset(small_scn, 20, seed=3))
        b = write_dataset(tmp_path / "b", generate_dataset(small_scn, 20, seed=3))
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_corrupted_header(self, tmp_path, small_data):
        path = tmp_path / "x.ds"
        write_bs_dataset(path, small_data[0])
        raw = bytearray(path.read_bytes())
        raw[12] ^= 0xFF  # flip a byte inside the JSON header
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError):
            read_bs_dataset(path)

    def test_version_mismatch(self, tmp_path, small_data):
        path = tmp_path / "x.ds"
        write_bs_dataset(path, small_data[0])
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[:8])
        header = raw[8 : 8 + hlen].decode()
        header2 = header.replace('"version": 1', '"version": 99').encode()
        path.write_bytes(struct.pack("<Q", len(header2)) + header2 + raw[8 + hlen :])
        with pytest.raises(DatasetVersionError):
            read_bs_dataset(path)

    def test_truncated_body(self, tmp_path, small_data):
        path = tmp_path / "x.ds"
        write_bs_dataset(path, small_data[0])
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(DatasetFormatError):
            read_bs_dataset(path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            read_dataset(tmp_path / "nope")

    @pytest.mark.parametrize("other", [("heterogeneous", 4), ("homogeneous", 9)], ids=["seed", "scenario"])
    def test_mixed_directory_rejected(self, tmp_path, small_data, other):
        variant, seed = other
        write_dataset(tmp_path / "d", small_data)
        stray = generate_bs_dataset(build_scenario(variant, n_t=3, n_r=3), 2, 40, seed=seed)
        write_bs_dataset(tmp_path / "d" / "bs2.ds", stray)
        with pytest.raises(DatasetFormatError, match="different scenarios or seeds"):
            read_dataset(tmp_path / "d")

    def test_non_finite_value_named(self, tmp_path, small_scn):
        ds = generate_bs_dataset(small_scn, 0, 40, seed=9)
        ds.radar_cross[2].reshape(-1)[7] = complex(0.5, np.inf)
        write_bs_dataset(tmp_path / "bs0.ds", ds)
        with pytest.raises(DatasetFormatError, match=r"bs0\.ds: radar_cross\[2\] holds the non-finite value inf at flat index 15"):
            read_bs_dataset(tmp_path / "bs0.ds")

    def test_not_a_dataset(self, tmp_path):
        path = tmp_path / "junk.ds"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(DatasetFormatError):
            read_bs_dataset(path)


def _file_order(ds):
    """The dataset's arrays keyed as in oracle_bs_dataset."""
    arrays = {"comm_direct": ds.comm_direct}
    arrays.update({f"comm_cross{i}": a for i, a in sorted(ds.comm_cross.items())})
    arrays.update(target_theta=ds.target_theta, target_beta=ds.target_beta)
    arrays.update({f"radar_cross{i}": a for i, a in sorted(ds.radar_cross.items())})
    return arrays


class TestBitwiseOracle:
    """generate_bs_dataset against the loop that builds one generator per draw."""

    @staticmethod
    def check(scn, n_samples, seed):
        for m in range(scn.n_cells):
            got = _file_order(generate_bs_dataset(scn, m, n_samples, seed))
            want = oracle_bs_dataset(scn, m, n_samples, seed)
            assert list(got) == list(want)
            for name, arr in want.items():
                f32 = arr.astype(np.complex64 if np.iscomplexobj(arr) else np.float32).astype(arr.dtype)
                assert got[name].tobytes() == f32.tobytes(), (m, name)

    @pytest.mark.parametrize("seed", [0, -1, 2**40])
    @pytest.mark.parametrize("variant", SCENARIO_VARIANTS)
    def test_variants_and_seeds(self, variant, seed):
        self.check(build_scenario(variant, n_t=3, n_r=5), 12, seed)

    def test_pure_los_skips_the_scatter_draw(self):
        scn = build_scenario("heterogeneous", n_t=4, n_r=2, rician_k=1e12)
        self.check(scn, 12, 5)
        ds = generate_bs_dataset(scn, 0, 12, 5)
        np.testing.assert_allclose(np.abs(ds.comm_direct), 1.0, rtol=1e-6)


class TestStoragePrecision:
    def test_values_are_f32_exact(self, small_data):
        ds = small_data[0]
        assert np.array_equal(ds.comm_direct, ds.comm_direct.astype(np.complex64).astype(np.complex128))
        assert np.array_equal(ds.target_theta, ds.target_theta.astype(np.float32).astype(np.float64))
