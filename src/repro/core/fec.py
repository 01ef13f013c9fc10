"""Parity-based forward error correction for SRM sessions.

Section VII-B cites Nonnenmacher, Biersack & Towsley's parity-based loss
recovery as having "great potential for reducing the negative impacts of
transient or mild congestion for reliable multicast". This module adds
the simplest useful instance to SRM as an optional layer: the source
multicasts one XOR parity packet per block of ``k`` data packets, and a
receiver missing exactly one packet of a block reconstructs it locally —
no request, no repair, no extra RTTs.

Payloads are serialized for the XOR as canonical JSON (the live wire's
rule for application data) and decoded back; one with no JSON form that
decodes back equal is refused at send. Losses of two or more packets in
one block still fall back to SRM's normal request/repair recovery, so
reliability is never weakened.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.codec import WireFormatError, build, dumps_canonical
from repro.core.names import AduName, PageId
from repro.sim.trace import FEC_RECONSTRUCTED, SEND_FEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.agent import SrmAgent

KIND_FEC = "srm-fec"


def payload_bytes(data: Any) -> bytes:
    """``data`` as the canonical JSON the parity is computed over."""
    blob = build(dumps_canonical, data).encode()
    if json.loads(blob) != data:
        raise WireFormatError(f"FEC payload {data!r} does not decode back "
                              f"from JSON equal")
    return blob


def _pad(blob: bytes, length: int) -> bytes:
    return blob + b"\x00" * (length - len(blob))


def xor_parity(blobs: List[bytes]) -> Tuple[bytes, List[int]]:
    """XOR of variable-length blobs: (parity bytes, original lengths)."""
    width = max(len(blob) for blob in blobs)
    parity = bytearray(width)
    for blob in blobs:
        padded = _pad(blob, width)
        for index in range(width):
            parity[index] ^= padded[index]
    return bytes(parity), [len(blob) for blob in blobs]


def recover_missing(parity: bytes, present: List[bytes],
                    missing_length: int) -> bytes:
    """Reconstruct the single missing blob of a block."""
    width = len(parity)
    out = bytearray(parity)
    for blob in present:
        padded = _pad(blob, width)
        for index in range(width):
            out[index] ^= padded[index]
    return bytes(out[:missing_length])


@dataclass(frozen=True)
class FecPayload:
    """One parity packet covering data seqs [first_seq, first_seq+k)."""

    source: int
    page: PageId
    first_seq: int
    k: int
    parity: bytes
    lengths: Tuple[int, ...]


@dataclass
class _BlockState:
    """Receiver-side bookkeeping for one parity block."""

    payloads: Dict[int, bytes] = field(default_factory=dict)
    parity: Optional[FecPayload] = None


class FecCodec:
    """Source-side encoder + receiver-side decoder for one agent."""

    def __init__(self, agent: "SrmAgent", k: int) -> None:
        if k < 2:
            raise ValueError("FEC block size must be at least 2")
        self.agent = agent
        self.k = k
        self._pending: Dict[PageId, List[Tuple[int, bytes]]] = {}
        self._blocks: Dict[Tuple[int, PageId, int], _BlockState] = {}
        self.parity_sent = 0
        self.reconstructed = 0

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------

    def on_data_sent(self, name: AduName, blob: bytes) -> None:
        """Feed each sent ADU's :func:`payload_bytes`; emits a parity
        packet per full block."""
        queue = self._pending.setdefault(name.page, [])
        queue.append((name.seq, blob))
        if len(queue) < self.k:
            return
        block = queue[:self.k]
        del queue[:self.k]
        parity, lengths = xor_parity([blob for _, blob in block])
        payload = FecPayload(source=self.agent.node_id, page=name.page,
                             first_seq=block[0][0], k=self.k,
                             parity=parity, lengths=tuple(lengths))
        self.agent.network.send_multicast(
            self.agent.node_id, self.agent.group, KIND_FEC, payload,
            size=self.agent.config.data_packet_size)
        self.parity_sent += 1
        trace = self.agent.network.trace
        if SEND_FEC in trace.wanted:
            trace.record(self.agent._scheduler.now, self.agent.node_id,
                         SEND_FEC, {"page": str(name.page),
                                    "first_seq": payload.first_seq})
        else:
            trace.kind_totals[SEND_FEC] += 1

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------

    def _block_key(self, source: int, page: PageId,
                   seq: int) -> Tuple[int, PageId, int]:
        first = ((seq - 1) // self.k) * self.k + 1
        return (source, page, first)

    def on_data_received(self, name: AduName, data: Any) -> None:
        if name.source == self.agent.node_id:
            return
        try:
            blob = payload_bytes(data)
        except WireFormatError:
            return  # no FEC source sent it: it is in no parity block
        key = self._block_key(name.source, name.page, name.seq)
        block = self._blocks.setdefault(key, _BlockState())
        block.payloads[name.seq] = blob
        self._try_reconstruct(key, block)

    def on_parity_received(self, payload: FecPayload) -> None:
        if payload.source == self.agent.node_id:
            return
        key = (payload.source, payload.page, payload.first_seq)
        block = self._blocks.setdefault(key, _BlockState())
        block.parity = payload
        # The parity packet also proves the block's data exists: reveal
        # any still-unknown names so normal recovery can kick in for
        # multi-loss blocks.
        last_seq = payload.first_seq + payload.k - 1
        for missing in self.agent.reception.note_high_water(
                payload.source, payload.page, last_seq):
            self.agent.on_loss_detected(missing)
        self._try_reconstruct(key, block)

    def _try_reconstruct(self, key: Tuple[int, PageId, int],
                         block: _BlockState) -> None:
        if block.parity is None:
            return
        payload = block.parity
        seqs = range(payload.first_seq, payload.first_seq + payload.k)
        missing = [seq for seq in seqs if seq not in block.payloads]
        if len(missing) != 1:
            return
        missing_seq = missing[0]
        index = missing_seq - payload.first_seq
        blob = recover_missing(
            payload.parity,
            [block.payloads[seq] for seq in seqs if seq != missing_seq],
            payload.lengths[index])
        data = json.loads(blob)
        name = AduName(key[0], key[1], missing_seq)
        if self.agent.store.have(name):
            return
        self.reconstructed += 1
        trace = self.agent.network.trace
        if FEC_RECONSTRUCTED in trace.wanted:
            trace.record(self.agent._scheduler.now, self.agent.node_id,
                         FEC_RECONSTRUCTED, {"name": name})
        else:
            trace.kind_totals[FEC_RECONSTRUCTED] += 1
        self.agent._accept_data(name, data, is_repair=False)
