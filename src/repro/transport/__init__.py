"""Reliable rekey transport protocols (Section 2.2 of the paper).

Group rekeying needs its changed keys delivered reliably and quickly; the
rekey payload's *sparseness property* (each receiver only needs the subset
of packets carrying its path keys) lets dedicated protocols beat generic
reliable multicast.  This package implements the three protocols the paper
discusses, all NACK-based (receiver-initiated [TKP97]) and all driven
against the simulated lossy :class:`~repro.network.channel.MulticastChannel`:

* :class:`MultiSendProtocol` — the [MSEC] strawman: every packet replicated
  a fixed number of times, whole packets retransmitted on NACK.
* :class:`WkaBkrProtocol` — Setia et al. [SZJ02]: *weighted key assignment*
  (per-key proactive replication sized by audience and loss) plus *batched
  key retransmission* (retransmissions re-pack only the keys still
  needed).
* :class:`ProactiveFecProtocol` — Yang et al. [YLZL01]: payload packets
  grouped into FEC blocks with proactive parity; receivers recover a block
  from any ``k`` of its packets; NACK rounds send the maximum remaining
  deficit.

All protocols consume a :class:`TransportTask` (keys plus the receivers
the server named for each key) and report a :class:`TransportResult` whose ``keys_sent`` is the
bandwidth metric of Section 4.
"""

from repro.transport.codec import (
    CodecError,
    decode_rekey_message,
    encode_rekey_message,
    wire_size,
)
from repro.transport.fec import ProactiveFecProtocol
from repro.transport.multisend import MultiSendProtocol
from repro.transport.packets import KeyPacket, pack_indices
from repro.transport.session import (
    TransportExhausted,
    TransportResult,
    TransportTask,
)
from repro.transport.wka_bkr import WkaBkrProtocol

__all__ = [
    "CodecError",
    "KeyPacket",
    "MultiSendProtocol",
    "ProactiveFecProtocol",
    "TransportExhausted",
    "TransportResult",
    "TransportTask",
    "WkaBkrProtocol",
    "decode_rekey_message",
    "encode_rekey_message",
    "pack_indices",
    "wire_size",
]
