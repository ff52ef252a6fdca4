"""Charged coordinator↔worker endpoints.

A link between the coordinator and one shard worker has two
:class:`Endpoint` s, each bound to the machine that pays for its
traffic.  An endpoint moves messages through two plain functions, a
``put`` and a ``get``: deque operations for a worker in this process,
a :mod:`multiprocessing` pipe's ``send``/``recv`` for a child process.
Every ``send``/``recv`` then

* charges block I/O on that machine via :mod:`repro.em.wire`
  (writes on send under the ``"shard-send"`` phase, reads on receive
  under ``"shard-recv"``), and
* records the message and its canonical payload size in the ambient
  metrics registry (``svc_shard_msgs`` / ``svc_shard_bytes``, labeled
  by shard and direction).

Charges derive from :func:`~repro.em.wire.payload_words` over the
*abstract* message value, never from serialized bytes, so an
in-process link and a pipe cost identically and sharded runs stay
deterministic across worker pools.

The coordinator holds only its own endpoints, never a worker object,
so a shard's machine, file or engine reaches it only as a charged
message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..em.wire import (
    RECV_PHASE,
    SEND_PHASE,
    charge_recv,
    charge_send,
    message_blocks,
    payload_words,
)
from ..obs.metrics import current_registry

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["Message", "Endpoint", "ShardError"]


class ShardError(RuntimeError):
    """A shard worker failed, died, or broke the message protocol."""


@dataclass(frozen=True)
class Message:
    """One coordinator↔worker message.

    ``io`` rides on replies only: the worker's measured
    ``(reads, writes, comparisons)`` delta for receiving and handling
    the request, which the router feeds into per-shard histograms.
    ``seq`` is stamped by the sending endpoint and checked on receipt.
    """

    kind: str
    payload: object = None
    shard: int = -1
    seq: int = -1
    io: tuple | None = None

    def words(self) -> int:
        """Canonical charged size of this message in 64-bit words."""
        return payload_words((self.kind, self.payload, self.io))


@dataclass
class Endpoint:
    """One side of a link, bound to the machine that pays.

    ``_put`` hands a message to the peer and ``_get`` takes the next
    one from it.
    """

    machine: "Machine"
    shard: int
    role: str  # "coordinator" | "worker"
    _put: object = field(repr=False, default=None)
    _get: object = field(repr=False, default=None)
    _seq_out: int = 0
    _seq_in: int = 0

    def __post_init__(self) -> None:
        registry = current_registry()
        self._m_msgs = registry.counter(
            "svc_shard_msgs",
            "messages through shard transports",
            labels=("shard", "direction"),
        )
        self._m_bytes = registry.counter(
            "svc_shard_bytes",
            "canonical payload bytes through shard transports",
            labels=("shard", "direction"),
        )

    def send(self, message: Message) -> None:
        """Transmit ``message``; charges block writes on this endpoint."""
        message = Message(
            kind=message.kind,
            payload=message.payload,
            shard=self.shard,
            seq=self._seq_out,
            io=message.io,
        )
        self._seq_out += 1
        words = message.words()
        charge_send(self.machine, message_blocks(words, self.machine.B), SEND_PHASE)
        self._m_msgs.labels(shard=self.shard, direction="send").inc()
        self._m_bytes.labels(shard=self.shard, direction="send").inc(8 * words)
        self._put(message)

    def recv(self) -> Message:
        """Take the next message; charges block reads on this endpoint.

        Raises :class:`ShardError` on sequence-number gaps (a link
        dropped or reordered a message) and lets the underlying
        channel's EOF errors propagate (a dead peer — the pools turn
        those into :class:`ShardError` with shard context).
        """
        message = self._get()
        if message.seq != self._seq_in:
            raise ShardError(
                f"shard {self.shard} {self.role} endpoint: expected message "
                f"seq {self._seq_in}, got {message.seq}"
            )
        self._seq_in += 1
        words = message.words()
        charge_recv(self.machine, message_blocks(words, self.machine.B), RECV_PHASE)
        self._m_msgs.labels(shard=self.shard, direction="recv").inc()
        self._m_bytes.labels(shard=self.shard, direction="recv").inc(8 * words)
        return message
