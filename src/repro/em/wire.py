"""Charged communication primitive for the sharded service.

The EM model has no network, so cross-machine messages are charged as
what they physically are on each endpoint: block transfers.  A message
of ``w`` payload words occupies ``message_blocks(w, B)`` blocks, and

* the **sender** pays that many block *writes* (serializing the payload
  out of memory), attributed to the phase ``"shard-send"``;
* the **receiver** pays that many block *reads* (deserializing it into
  memory), attributed to ``"shard-recv"``.

Both charges go straight to the disk's counters (``Disk._charge``) under
the phase, exactly as a counted transfer would: span tracers attribute
them, sanitize-mode counter conservation holds, and per-phase rollups
show communication next to computation.  No bytes move: a message gets
no scratch blocks (charges were once realized by allocating, writing,
reading and freeing them), so a charge leaves ``live_blocks``,
``peak_blocks``, ``read_block_ids``, the access trace and the
sanitizer's block-id sets untouched.  Only ``em`` (and ``obs``) may call
``_charge`` (emlint R1), so algorithm code still cannot write a bare
charge.

Payload sizes are computed by :func:`payload_words` from the abstract
message value, **not** from any serialized byte string, so every
transport — in-process reference passing, pickled pipes, real sockets —
charges identically and the model cost of a sharded run is
deterministic across worker implementations.
"""

from __future__ import annotations

import numpy as np

from .records import RECORD_DTYPE

if False:  # pragma: no cover - import cycle guard for type checkers
    from .machine import Machine

__all__ = [
    "WORDS_PER_RECORD",
    "payload_words",
    "message_blocks",
    "charge_send",
    "charge_recv",
    "SEND_PHASE",
    "RECV_PHASE",
]

#: One record is three 64-bit words (key, uid, grp); a block of ``B``
#: records therefore carries ``3 B`` words of payload.
WORDS_PER_RECORD = 3

#: Phase labels communication charges are attributed to.
SEND_PHASE = "shard-send"
RECV_PHASE = "shard-recv"


def payload_words(value) -> int:
    """Canonical size of a message payload in 64-bit words.

    Defined over abstract values (arrays, scalars, containers), not
    serialized bytes, so all transports agree on the charge:

    * record arrays count :data:`WORDS_PER_RECORD` words per record,
      other numpy arrays one word per element;
    * scalars (``int``/``float``/``bool``/``None``) count one word;
    * strings count one word per 8 characters (rounded up, min 1);
    * tuples/lists/dicts are the sum of their items (keys and values).
    """
    if value is None or isinstance(value, (bool, int, float, np.integer, np.floating)):
        return 1
    if isinstance(value, np.ndarray):
        if value.dtype == RECORD_DTYPE:
            return WORDS_PER_RECORD * int(value.size)
        return int(value.size)
    if isinstance(value, str):
        return max(1, -(-len(value) // 8))
    if isinstance(value, (tuple, list)):
        return sum(payload_words(v) for v in value)
    if isinstance(value, dict):
        return sum(payload_words(k) + payload_words(v) for k, v in value.items())
    raise TypeError(f"unchargeable payload type: {type(value).__name__}")


def message_blocks(words: int, block: int) -> int:
    """Blocks occupied by a ``words``-word message on a ``B=block``
    machine; every message costs at least one block (the envelope)."""
    if words < 0:
        raise ValueError("payload size must be >= 0")
    if block < 1:
        raise ValueError("block size B must be >= 1")
    return max(1, -(-words // (WORDS_PER_RECORD * block)))


def charge_send(machine: "Machine", nblocks: int, phase: str = SEND_PHASE) -> None:
    """Charge ``machine`` ``nblocks`` block writes for sending a message."""
    with machine.phase(phase):
        machine.disk._charge(read=False, count=nblocks)


def charge_recv(machine: "Machine", nblocks: int, phase: str = RECV_PHASE) -> None:
    """Charge ``machine`` ``nblocks`` block reads for receiving a message.

    The bytes arrived over the wire, so the endpoint pays only to read
    them in: no write is charged, counted or not.
    """
    with machine.phase(phase):
        machine.disk._charge(read=True, count=nblocks)
