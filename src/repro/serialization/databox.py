"""The DataBox envelope and custom-type registry (Section III-C).

A DataBox wraps a value for transmission/storage:

* **byte-copyable fast path** — fixed-size primitives (ints, floats, bools)
  are flagged ``fixed_length`` and, per the paper, "DataBoxes do not use
  serialization for simple byte-copyable data types": their wire size is
  computed analytically and ``encode`` uses the cheapest layout.
* **variable-length path** — everything else goes through the msgpack
  backend.
* **custom types** — users register ``(encode, decode)`` hooks for their own
  classes; resolution is dynamic at runtime, as in HCL.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.serialization.msgpack_like import MsgpackCodec

__all__ = [
    "DataBox",
    "SerializationError",
    "register_custom_type",
    "clear_custom_types",
    "estimate_size",
]


class SerializationError(ValueError):
    """Raised when a value cannot be boxed/unboxed."""


# -- custom type registry ------------------------------------------------------

_CUSTOM_ENCODERS: Dict[Type, Tuple[str, Callable[[Any], bytes]]] = {}
_CUSTOM_DECODERS: Dict[str, Callable[[bytes], Any]] = {}


def register_custom_type(
    cls: Type,
    encode: Callable[[Any], bytes],
    decode: Callable[[bytes], Any],
    tag: Optional[str] = None,
) -> None:
    """Register user-defined serialization for ``cls`` (resolved at runtime)."""
    tag = tag or cls.__name__
    if tag in _CUSTOM_DECODERS:
        raise SerializationError(f"custom type tag {tag!r} already registered")
    _CUSTOM_ENCODERS[cls] = (tag, encode)
    _CUSTOM_DECODERS[tag] = decode


def clear_custom_types() -> None:
    """Forget all registrations (test isolation)."""
    _CUSTOM_ENCODERS.clear()
    _CUSTOM_DECODERS.clear()


def _custom_encode(obj: Any) -> Tuple[str, bytes]:
    entry = _CUSTOM_ENCODERS.get(type(obj))
    if entry is None:
        raise TypeError(
            f"no codec for {type(obj).__name__}; register_custom_type() it"
        )
    tag, enc = entry
    return tag, enc(obj)


def _custom_decode(tag: str, payload: bytes) -> Any:
    dec = _CUSTOM_DECODERS.get(tag)
    if dec is None:
        raise SerializationError(f"unknown custom type tag {tag!r}")
    return dec(payload)


#: the one serialization backend; custom types resolve through the registry
_CODEC = MsgpackCodec(_custom_encode, _custom_decode)


# -- size estimation (drives simulated wire cost) ---------------------------------

_FIXED_SIZES = {bool: 1, int: 8, float: 8, type(None): 1}


def estimate_size(obj: Any) -> int:
    """Approximate serialized size in bytes without encoding.

    Used by the simulation layers to charge wire/marshal costs cheaply;
    containers with megabyte values must not pay an actual megabyte encode
    per simulated op.
    """
    t = type(obj)
    if t in _FIXED_SIZES:
        return _FIXED_SIZES[t]
    if t is str:
        return 4 + len(obj)
    if t in (bytes, bytearray, memoryview):
        return 4 + len(obj)
    if t in (list, tuple, set, frozenset):
        return 4 + sum(estimate_size(x) for x in obj)
    if t is dict:
        return 4 + sum(estimate_size(k) + estimate_size(v) for k, v in obj.items())
    if hasattr(obj, "nbytes"):  # numpy arrays and friends
        return 16 + int(obj.nbytes)
    if type(obj) in _CUSTOM_ENCODERS:
        tag, enc = _CUSTOM_ENCODERS[type(obj)]
        return 4 + len(tag) + len(enc(obj))
    return 64  # conservative default for odd objects


class DataBox:
    """The transmissible envelope around one value."""

    __slots__ = ("value", "_encoded")

    def __init__(self, value: Any):
        self.value = value
        self._encoded: Optional[bytes] = None

    # -- classification (the paper's compile-time fixed/variable split) ----
    @property
    def fixed_length(self) -> bool:
        return type(self.value) in _FIXED_SIZES

    @property
    def byte_copyable(self) -> bool:
        t = type(self.value)
        if t is int:
            return -(2**63) <= self.value < 2**63
        return t in _FIXED_SIZES

    # -- encode/decode -------------------------------------------------------
    def encode(self) -> bytes:
        if self._encoded is not None:
            return self._encoded
        if self.byte_copyable:
            # Fast path: 1-byte tag + fixed layout, no codec machinery.
            v = self.value
            if v is None:
                raw = b"N"
            elif isinstance(v, bool):
                raw = b"T" if v else b"F"
            elif isinstance(v, int):
                try:
                    raw = b"I" + struct.pack("<q", v)
                except struct.error:
                    raw = b"B" + _CODEC.encode(v)
            else:  # float
                raw = b"D" + struct.pack("<d", v)
            self._encoded = raw
            return raw
        self._encoded = b"B" + _CODEC.encode(self.value)
        return self._encoded

    @classmethod
    def decode(cls, data: bytes) -> "DataBox":
        if not data:
            raise SerializationError("empty DataBox buffer")
        tag, body = data[:1], data[1:]
        if tag == b"N":
            return cls(None)
        if tag == b"T":
            return cls(True)
        if tag == b"F":
            return cls(False)
        if tag == b"I":
            return cls(struct.unpack("<q", body)[0])
        if tag == b"D":
            return cls(struct.unpack("<d", body)[0])
        if tag == b"B":
            return cls(_CODEC.decode(body))
        raise SerializationError(f"bad DataBox tag {tag!r}")

    # -- cost hooks ---------------------------------------------------------------
    @property
    def wire_size(self) -> int:
        if self._encoded is not None:
            return len(self._encoded)
        return 1 + estimate_size(self.value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"DataBox({self.value!r})"
