"""Tests for the DataBox abstraction and its msgpack backend."""

import struct

import pytest

from repro.serialization import (
    DataBox,
    SerializationError,
    register_custom_type,
)
from repro.serialization.databox import estimate_size
from repro.serialization.msgpack_like import pack, unpack


@pytest.fixture(autouse=True)
def _clean_custom_types():
    """Snapshot/restore the registry so library-level registrations (e.g.
    the harness Blob codec) survive these tests' throwaway types."""
    from repro.serialization import databox

    encoders = dict(databox._CUSTOM_ENCODERS)
    decoders = dict(databox._CUSTOM_DECODERS)
    yield
    databox._CUSTOM_ENCODERS.clear()
    databox._CUSTOM_ENCODERS.update(encoders)
    databox._CUSTOM_DECODERS.clear()
    databox._CUSTOM_DECODERS.update(decoders)


class TestMsgpackVectors:
    """Byte-exact checks against the real MessagePack format."""

    VECTORS = [
        (None, b"\xc0"),
        (False, b"\xc2"),
        (True, b"\xc3"),
        (0, b"\x00"),
        (127, b"\x7f"),
        (-1, b"\xff"),
        (-32, b"\xe0"),
        (255, b"\xcc\xff"),
        (65535, b"\xcd\xff\xff"),
        (-33, b"\xd0\xdf"),
        (1.5, b"\xcb" + struct.pack(">d", 1.5)),
        ("", b"\xa0"),
        ("abc", b"\xa3abc"),
        (b"\x01\x02", b"\xc4\x02\x01\x02"),
        ([], b"\x90"),
        ([1, 2], b"\x92\x01\x02"),
        ({}, b"\x80"),
        ({"a": 1}, b"\x81\xa1a\x01"),
    ]

    @pytest.mark.parametrize("value,expected", VECTORS)
    def test_pack_matches_spec(self, value, expected):
        assert pack(value) == expected

    @pytest.mark.parametrize("value,expected", VECTORS)
    def test_unpack_matches_spec(self, value, expected):
        assert unpack(expected) == value


class TestMsgpackRoundtrips:
    CASES = [
        2**40,
        -(2**40),
        2**63 - 1,
        -(2**63),
        2**100,  # bignum escape hatch
        "x" * 40,  # str8
        "y" * 300,  # str16
        b"z" * 300,  # bin16
        list(range(20)),  # array16 boundary is 65536; this is fixarray+
        {i: str(i) for i in range(20)},
        [1, [2, [3, [4, "deep"]]]],
        {"nested": {"sets": {1, 2, 3}}},
        (1, 2, 3),  # tuples decode as lists
    ]

    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_roundtrip(self, value):
        out = unpack(pack(value))
        if isinstance(value, tuple):
            assert out == list(value)
        else:
            assert out == value

    def test_large_array16(self):
        data = list(range(70_000))
        assert unpack(pack(data)) == data

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            unpack(pack(1) + b"\x00")

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            unpack(pack("hello")[:-1])

    def test_unencodable_type(self):
        with pytest.raises(TypeError):
            pack(object())


class TestDataBox:
    @pytest.mark.parametrize("value", [None, True, False, 7, -7, 3.5])
    def test_byte_copyable_fast_path(self, value):
        box = DataBox(value)
        assert box.byte_copyable and box.fixed_length
        assert DataBox.decode(box.encode()).value == value
        # Fast-path encodings are tiny: tag + at most 8 bytes.
        assert len(box.encode()) <= 9

    def test_big_int_not_byte_copyable(self):
        box = DataBox(2**70)
        assert not box.byte_copyable
        assert DataBox.decode(box.encode()).value == 2**70

    def test_variable_types_use_codec(self):
        for value in ["s", [1, 2], {"k": "v"}, {3, 4}]:
            box = DataBox(value)
            assert not box.fixed_length
            assert DataBox.decode(box.encode()).value == value

    def test_custom_type_roundtrip(self):
        class Vec2:
            def __init__(self, x, y):
                self.x, self.y = x, y

            def __eq__(self, other):
                return (self.x, self.y) == (other.x, other.y)

        register_custom_type(
            Vec2,
            lambda v: struct.pack("<dd", v.x, v.y),
            lambda b: Vec2(*struct.unpack("<dd", b)),
        )
        box = DataBox(Vec2(1.0, -2.0))
        assert DataBox.decode(box.encode()).value == Vec2(1.0, -2.0)

    def test_duplicate_custom_tag_rejected(self):
        class T1:
            pass

        register_custom_type(T1, lambda v: b"", lambda b: T1(), tag="T")
        class T2:
            pass

        with pytest.raises(SerializationError):
            register_custom_type(T2, lambda v: b"", lambda b: T2(), tag="T")

    def test_unregistered_type_fails(self):
        class Mystery:
            pass

        with pytest.raises(TypeError):
            DataBox(Mystery()).encode()

    def test_decode_errors(self):
        with pytest.raises(SerializationError):
            DataBox.decode(b"")
        with pytest.raises(SerializationError):
            DataBox.decode(b"Zjunk")

    def test_wire_size_without_encoding(self):
        box = DataBox("x" * 100)
        assert box.wire_size >= 100
        assert box._encoded is None  # size estimate did not force an encode


class TestEstimateSize:
    def test_scalars(self):
        assert estimate_size(5) == 8
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1

    def test_strings_and_bytes(self):
        assert estimate_size("abcd") == 8
        assert estimate_size(b"abcd") == 8

    def test_containers_recurse(self):
        assert estimate_size([1, 2]) == 4 + 16
        assert estimate_size({"a": 1}) == 4 + 5 + 8

    def test_nbytes_attribute_respected(self):
        class Sized:
            nbytes = 4096

        assert estimate_size(Sized()) == 16 + 4096

    def test_estimate_close_to_actual_for_typical_entries(self):
        value = {"key": "k" * 20, "count": 3, "items": [1, 2, 3]}
        actual = len(pack(value))
        estimate = estimate_size(value)
        assert 0.3 * actual <= estimate <= 3 * actual
