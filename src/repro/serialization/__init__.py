"""DataBox serialization (Section III-C).

A DataBox "provides mechanisms for defining, serializing, transmitting, and
storing complex data structures".  This package reproduces that abstraction:

* :class:`~repro.serialization.databox.DataBox` — the envelope: a value
  and its fixed/variable-length classification.  Byte-copyable
  (fixed-size primitive) values skip serialization, as in the paper.
* :mod:`repro.serialization.msgpack_like` — the one codec backend: a
  compact tagged binary format byte-compatible with MessagePack
  (variable-length, schema free).  The paper's HCL also plugs Cereal and
  FlatBuffers in here; no measured cost depends on the backend (the
  simulated wire and marshal charge is :func:`estimate_size`), so one is
  kept.
* A custom-type registry (:func:`register_custom_type`) resolved at
  runtime, and native support for the standard containers (list, tuple,
  dict, set, frozenset) — HCL's "native support for STL containers".
"""

from repro.serialization.databox import (
    DataBox,
    register_custom_type,
    SerializationError,
)
from repro.serialization.msgpack_like import MsgpackCodec

__all__ = [
    "DataBox",
    "register_custom_type",
    "SerializationError",
    "MsgpackCodec",
]
