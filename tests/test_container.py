"""The shared binary container: byte layout, strict reading, and fuzzed readers."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isacfl.channel import RngStream
from isacfl.container import MAX_HEADER_BYTES, DatasetFormatError, write_container
from isacfl.datagen import build_scenario, generate_bs_dataset, read_bs_dataset, write_bs_dataset
from isacfl.nn import AdamState, NetConfig, init_params, load_adam, load_params, param_count, save_adam, save_params


def rewrite_header(path, edit, length=None):
    """Apply ``edit`` to the JSON header of a container file in place.

    ``length`` overrides the stored header length, to forge implausible ones.
    """
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8 : 8 + hlen])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(struct.pack("<Q", len(new) if length is None else length) + new + raw[8 + hlen :])


def _adam_state():
    state = AdamState.fresh(12)
    state.m[:] = np.linspace(-1.0, 1.0, 12)
    state.v[:] = np.arange(12) ** 2
    state.step = 9
    return state


NET = NetConfig(3, 2, 4)

# (make a value, save it, load it) for every file kind the container carries
KINDS = {
    "params": (
        lambda: init_params(NET, RngStream(3)),
        lambda path, params: save_params(path, params, NET),
        lambda path: load_params(path, NET),
    ),
    "adam": (_adam_state, lambda path, state: save_adam(path, state, 3e-4), lambda path: load_adam(path, 12, 3e-4)),
    "dataset": (
        lambda: generate_bs_dataset(build_scenario("heterogeneous", n_t=2, n_r=2), 1, 12, 5),
        write_bs_dataset,
        read_bs_dataset,
    ),
}


def load(kind, path):
    return KINDS[kind][2](path)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    out = {}
    for kind, (make, save, _) in KINDS.items():
        save(root / kind, make())
        out[kind] = (root / kind).read_bytes()
    return out


class TestLayout:
    def test_header_then_length_prefixed_arrays(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, {"format": "x", "version": 1}, [np.array([1.5, -2.0]), np.zeros(0)], "<f8")
        raw = path.read_bytes()
        header = b'{"format": "x", "version": 1}'
        expected = struct.pack("<Q", len(header)) + header
        expected += struct.pack("<Q", 2) + np.array([1.5, -2.0], dtype="<f8").tobytes() + struct.pack("<Q", 0)
        assert raw == expected

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_round_trip_rewrites_identical_bytes(self, kind, tmp_path, valid_files):
        path = tmp_path / kind
        path.write_bytes(valid_files[kind])
        KINDS[kind][1](tmp_path / "again", load(kind, path))
        assert (tmp_path / "again").read_bytes() == valid_files[kind]


class TestMalformed:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_implausible_header_length(self, kind, tmp_path, valid_files):
        path = tmp_path / kind
        path.write_bytes(valid_files[kind])
        rewrite_header(path, lambda h: None, length=MAX_HEADER_BYTES + 1)
        with pytest.raises(DatasetFormatError, match="implausible header length"):
            load(kind, path)

    @pytest.mark.parametrize(
        "kind, key",
        [("params", "net"), ("adam", "step"), ("adam", "eps"), ("dataset", "scenario"), ("dataset", "seed")],
    )
    def test_missing_header_key(self, kind, key, tmp_path, valid_files):
        path = tmp_path / kind
        path.write_bytes(valid_files[kind])
        rewrite_header(path, lambda h: h.pop(key))
        with pytest.raises(DatasetFormatError, match=key):
            load(kind, path)

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("adam", lambda h: h.update(step="7")),
            ("adam", lambda h: h.update(lr=[1e-4])),
            ("params", lambda h: h["net"].update(hidden=4.0)),
        ],
        ids=["adam-step-string", "adam-lr-list", "params-hidden-float"],
    )
    def test_ill_typed_header_value(self, kind, edit, tmp_path, valid_files):
        path = tmp_path / kind
        path.write_bytes(valid_files[kind])
        rewrite_header(path, edit)
        with pytest.raises(DatasetFormatError, match="must be"):
            load(kind, path)

    @pytest.mark.parametrize("cell", [7, -1])
    def test_dataset_cell_out_of_range(self, cell, tmp_path, valid_files):
        path = tmp_path / "dataset"
        path.write_bytes(valid_files["dataset"])
        rewrite_header(path, lambda h: h.update(cell=cell))
        with pytest.raises(DatasetFormatError, match="cell"):
            read_bs_dataset(path)

    def test_array_length_must_match_header(self, tmp_path, valid_files):
        path = tmp_path / "params"
        path.write_bytes(valid_files["params"])
        rewrite_header(path, lambda h: h["net"].update(hidden=5))
        with pytest.raises(DatasetFormatError, match=rf"array of \d+ values, expected {param_count(NetConfig(3, 2, 5))}$"):
            load_params(path, NetConfig(3, 2, 5))


def _mutations(size: int, header_end: int):
    """Truncations, and one to four byte flips biased toward the header."""
    position = st.one_of(st.integers(0, header_end), st.integers(0, size - 1))
    flips = st.lists(st.tuples(position, st.integers(1, 255)), min_size=1, max_size=4)
    return st.one_of(st.integers(0, size - 1).map(lambda n: ("truncate", n)), flips.map(lambda f: ("flip", f)))


@pytest.mark.parametrize("kind", list(KINDS))
@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_fuzzed_files_raise_only_value_errors(kind, data, valid_files, tmp_path):
    """A truncated or byte-flipped file loads, or fails with a ValueError (DatasetFormatError is one)."""
    raw = valid_files[kind]
    header_end = 8 + struct.unpack("<Q", raw[:8])[0]
    op, arg = data.draw(_mutations(len(raw), header_end))
    if op == "truncate":
        mutated = raw[:arg]
    else:
        buf = bytearray(raw)
        for pos, mask in arg:
            buf[pos] ^= mask
        mutated = bytes(buf)
    path = tmp_path / f"fuzz-{kind}"
    path.write_bytes(mutated)
    try:
        load(kind, path)
    except ValueError:
        pass
