"""Round-trips and corruption handling for the tensor/checkpoint file formats."""

from types import SimpleNamespace

import numpy as np
import pytest

from scdkit import serialize as ser
from scdkit.errors import FormatError


# a rank-2 header of shape (0, 2**63) and its (empty) payload
EMPTY_HUGE = b"GTNSR1" + b"".join(n.to_bytes(8, "little") for n in (2, 0, 2 ** 63))


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestTensorFormat:
    @pytest.mark.parametrize("shape", [(), (5,), (2, 3), (2, 0, 4), (1, 2, 3, 4)])
    def test_round_trip(self, rng, shape, tmp_path):
        arr = rng.standard_normal(shape)
        path = tmp_path / "a.gtnsr"
        ser.write_tensor(path, arr)
        back = ser.read_tensor(path)
        assert back.dtype == np.float64
        assert back.shape == arr.shape  # rank 0 must survive as rank 0
        np.testing.assert_array_equal(back, arr)

    def test_byte_layout_is_pinned(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        blob = ser.tensor_to_bytes(arr)
        assert blob[:6] == b"GTNSR1"
        assert blob[6:14] == (2).to_bytes(8, "little")
        assert blob[14:30] == (2).to_bytes(8, "little") * 2
        assert blob[30:] == arr.tobytes()

    def test_non_float_input_is_converted(self, tmp_path):
        path = tmp_path / "i.gtnsr"
        ser.write_tensor(path, np.arange(6, dtype=np.int32).reshape(2, 3))
        back = ser.read_tensor(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, np.arange(6).reshape(2, 3))

    def test_bad_magic(self):
        blob = b"XXXXXX" + ser.tensor_to_bytes(np.zeros(3))[6:]
        with pytest.raises(FormatError):
            ser.tensor_from_bytes(blob)

    def test_truncated_payload(self):
        blob = ser.tensor_to_bytes(np.zeros(4))
        with pytest.raises(FormatError):
            ser.tensor_from_bytes(blob[:-8])

    def test_trailing_bytes_in_file(self, tmp_path):
        path = tmp_path / "t.gtnsr"
        path.write_bytes(ser.tensor_to_bytes(np.zeros(2)) + b"\x00")
        with pytest.raises(FormatError):
            ser.read_tensor(path)

    def test_absurd_rank_rejected(self):
        blob = b"GTNSR1" + (40).to_bytes(8, "little")
        with pytest.raises(FormatError):
            ser.tensor_from_bytes(blob)

    def test_unrepresentable_empty_shape_rejected(self, tmp_path):
        # zero elements pass the payload-length check whatever the other dims
        path = tmp_path / "e.gtnsr"
        path.write_bytes(EMPTY_HUGE)
        with pytest.raises(FormatError):
            ser.read_tensor(path)


class TestCheckpointFormat:
    def payload(self, rng):
        return {
            "model.w": rng.standard_normal((3, 4)),
            "model.b": rng.standard_normal(4),
            "optim.t": np.array(17.0),
        }

    def test_round_trip(self, rng, tmp_path):
        state = self.payload(rng)
        path = tmp_path / "c.gckpt"
        ser.save_checkpoint(path, state)
        back = ser.load_checkpoint(path)
        assert set(back) == set(state)
        for k in state:
            np.testing.assert_array_equal(back[k], state[k])

    def test_entries_sorted_by_name(self, rng, tmp_path):
        # write in reverse order, bytes must not depend on insertion order
        state = self.payload(rng)
        p1, p2 = tmp_path / "a.gckpt", tmp_path / "b.gckpt"
        ser.save_checkpoint(p1, state)
        ser.save_checkpoint(p2, dict(reversed(list(state.items()))))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.gckpt"
        ser.save_checkpoint(path, {"x": np.zeros(2)})
        raw = bytearray(path.read_bytes())
        raw[:6] = b"BOGUS1"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            ser.load_checkpoint(path)

    def test_truncated_blob_section(self, tmp_path):
        path = tmp_path / "c.gckpt"
        ser.save_checkpoint(path, {"x": np.zeros(8)})
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError):
            ser.load_checkpoint(path)

    def test_unrepresentable_entry_rejected(self, tmp_path):
        path = tmp_path / "c.gckpt"
        ser.save_checkpoint(path, {"x": np.zeros((0, 2))})
        raw = path.read_bytes()
        blob = ser.tensor_to_bytes(np.zeros((0, 2)))
        assert raw.endswith(blob) and len(blob) == len(EMPTY_HUGE)
        path.write_bytes(raw[:-len(blob)] + EMPTY_HUGE)
        with pytest.raises(FormatError):
            ser.load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ser.load_checkpoint(tmp_path / "nope.gckpt")

    def test_no_partial_file_on_failure(self, tmp_path):
        # atomic replace: a failed save must not leave the target behind
        path = tmp_path / "c.gckpt"
        with pytest.raises(Exception):
            ser.save_checkpoint(path, {"x": object()})  # not arrayable
        assert not path.exists()


def _fuzz(examples: int) -> SimpleNamespace:
    """hypothesis' ``given``, a fixed-seed ``settings`` and the shared strategies."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # u64 fields that reach the edges of what a header can claim
    u64 = st.sampled_from([0, 1, 7, 2 ** 31, 2 ** 32, 2 ** 62, 2 ** 63, 2 ** 64 - 1]) \
        | st.integers(0, 2 ** 64 - 1)
    edits = st.lists(st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 10 ** 6), st.integers(1, 255)),
        st.tuples(st.just("u64"), st.integers(0, 10 ** 6), u64),
        # aligned on the rank and dims of a tensor header at offset 0
        st.tuples(st.just("u64"), st.integers(0, 4).map(lambda k: 6 + 8 * k), u64),
        st.tuples(st.just("cut"), st.integers(0, 10 ** 6), st.just(0))),
        min_size=1, max_size=3)
    shapes = st.lists(st.integers(0, 4), max_size=4).map(tuple)
    return SimpleNamespace(
        given=hyp.given,
        settings=hyp.settings(derandomize=True, database=None, max_examples=examples,
                              deadline=None),
        shapes=shapes, edits=edits,
        states=lambda n: st.dictionaries(st.text(min_size=1, max_size=12), shapes,
                                         min_size=1, max_size=n))


def _mutate(blob: bytes, edits) -> bytes:
    raw = bytearray(blob)
    for kind, at, value in edits:
        at %= len(raw) + 1
        if kind == "flip" and at < len(raw):
            raw[at] ^= value
        elif kind == "u64":
            raw[at:at + 8] = value.to_bytes(8, "little")
        elif kind == "cut":
            del raw[at:]
    return bytes(raw)


class TestFuzz:
    """Random round trips, and corrupted files that must load or raise
    FormatError, never anything else."""

    def test_tensor_round_trip(self, tmp_path):
        f = _fuzz(100)
        path = tmp_path / "t.gtnsr"

        @f.settings
        @f.given(shape=f.shapes)
        def check(shape):
            arr = np.random.default_rng(len(shape)).standard_normal(shape)
            ser.write_tensor(path, arr)
            back = ser.read_tensor(path)
            assert back.shape == arr.shape
            np.testing.assert_array_equal(back, arr)

        check()

    def test_checkpoint_round_trip(self, tmp_path):
        f = _fuzz(100)
        path = tmp_path / "c.gckpt"

        @f.settings
        @f.given(entries=f.states(4))
        def check(entries):
            rng = np.random.default_rng(len(entries))
            state = {n: rng.standard_normal(s) for n, s in entries.items()}
            ser.save_checkpoint(path, state)
            back = ser.load_checkpoint(path)
            assert set(back) == set(state)
            for name, arr in state.items():
                assert back[name].shape == arr.shape
                np.testing.assert_array_equal(back[name], arr)

        check()

    def test_corrupt_tensor_loads_or_raises_format_error(self, tmp_path):
        f = _fuzz(600)
        path = tmp_path / "t.gtnsr"

        @f.settings
        @f.given(shape=f.shapes, edits=f.edits)
        def check(shape, edits):
            path.write_bytes(_mutate(ser.tensor_to_bytes(np.ones(shape)), edits))
            try:
                ser.read_tensor(path)
            except FormatError:
                pass

        check()

    def test_corrupt_checkpoint_loads_or_raises_format_error(self, tmp_path):
        f = _fuzz(600)
        path = tmp_path / "c.gckpt"

        @f.settings
        @f.given(entries=f.states(3), edits=f.edits)
        def check(entries, edits):
            ser.save_checkpoint(path, {n: np.ones(s) for n, s in entries.items()})
            path.write_bytes(_mutate(path.read_bytes(), edits))
            try:
                ser.load_checkpoint(path)
            except FormatError:
                pass

        check()
