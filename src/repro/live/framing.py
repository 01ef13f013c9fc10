"""Length-prefixed wire framing for the live transports.

The packet table of :mod:`repro.core.messages` turns packets into
JSON-compatible dicts; this module turns those dicts into bytes on a
socket and back, totally — arbitrary garbage in never crashes, it
surfaces as :class:`~repro.codec.WireFormatError` or a counted drop.

Three layers:

* **Frames** — ``b"SRM1" + !I body-length + JSON body``.
  :func:`encode_frame` / :func:`decode_frame` handle exactly one frame.
* **Datagrams** — UDP bounds message size, so frames ride in fragments:
  ``b"SRMF" + !I frame-id + !H index + !H count + chunk``.
  :func:`split_datagrams` fragments a frame (count == 1 for the common
  small case) and :class:`FragmentReassembler` reassembles, evicting
  stale partial frames whose fragments were lost.
* **Packets** — :func:`packet_to_frame` / :func:`frame_to_packet`
  compose the packet table with framing; their ``data`` codec frames
  application payloads that are not JSON-native (the whiteboard passes
  :data:`repro.wb.drawops.DRAWOPS`).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Mapping, Optional, Tuple, cast

from repro.codec import ANY, Codec, WireFormatError, dumps_canonical
from repro.core.messages import packet_codec
from repro.net.packet import Packet

#: Frame header: magic + body length.
FRAME_MAGIC = b"SRM1"
_FRAME_HEADER = struct.Struct("!4sI")
FRAME_HEADER_SIZE = _FRAME_HEADER.size

#: Fragment header: magic + frame id + fragment index + fragment count.
FRAG_MAGIC = b"SRMF"
_FRAG_HEADER = struct.Struct("!4sIHH")
FRAG_HEADER_SIZE = _FRAG_HEADER.size

#: Upper bound on one frame's JSON body; anything larger is hostile.
MAX_FRAME = 1 << 20

#: Default datagram budget (loopback-safe, well under 64 KiB UDP).
MAX_DATAGRAM = 8192

# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def encode_frame(wire: Mapping[str, Any]) -> bytes:
    """One wire dict -> magic + length + canonical JSON bytes."""
    try:
        body = dumps_canonical(wire).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireFormatError(
            f"wire dict is not JSON-encodable: {exc}") from exc
    if len(body) > MAX_FRAME:
        raise WireFormatError(
            f"frame body of {len(body)} bytes exceeds MAX_FRAME "
            f"({MAX_FRAME})")
    return _FRAME_HEADER.pack(FRAME_MAGIC, len(body)) + body


def decode_frame(frame: bytes) -> Dict[str, Any]:
    """Exactly one complete frame -> its wire dict.

    Raises :class:`WireFormatError` on bad magic, a length that
    disagrees with the buffer, or a non-object JSON body.
    """
    if len(frame) < FRAME_HEADER_SIZE:
        raise WireFormatError(f"truncated frame header ({len(frame)} bytes)")
    magic, length = _FRAME_HEADER.unpack_from(frame)
    if magic != FRAME_MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME:
        raise WireFormatError(f"frame length {length} exceeds MAX_FRAME")
    if len(frame) != FRAME_HEADER_SIZE + length:
        raise WireFormatError(
            f"frame length {length} disagrees with buffer of "
            f"{len(frame) - FRAME_HEADER_SIZE} body bytes")
    try:
        wire = json.loads(frame[FRAME_HEADER_SIZE:].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting
        raise WireFormatError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(wire, dict):
        raise WireFormatError(
            f"frame body is not a JSON object: {type(wire).__name__}")
    return wire


# ----------------------------------------------------------------------
# Datagram fragmentation
# ----------------------------------------------------------------------


def split_datagrams(frame: bytes, frame_id: int,
                    max_datagram: int = MAX_DATAGRAM) -> List[bytes]:
    """Fragment one frame into datagrams that each fit ``max_datagram``."""
    room = max_datagram - FRAG_HEADER_SIZE
    if room <= 0:
        raise WireFormatError(
            f"max_datagram {max_datagram} leaves no room for payload")
    chunks = [frame[start:start + room]
              for start in range(0, len(frame), room)]
    if not chunks:
        chunks = [b""]
    count = len(chunks)
    if count > 0xFFFF:
        raise WireFormatError(f"frame needs {count} fragments (max 65535)")
    frame_id &= 0xFFFFFFFF
    return [_FRAG_HEADER.pack(FRAG_MAGIC, frame_id, index, count) + chunk
            for index, chunk in enumerate(chunks)]


class FragmentReassembler:
    """Reassemble :func:`split_datagrams` output back into frames.

    One reassembler per remote sender. Fragments may arrive reordered;
    a frame is returned once all its fragments are in. Partial frames
    (a fragment lost on the wire) are evicted oldest-first once more
    than ``max_pending`` are outstanding, and counted in ``evicted``.
    """

    __slots__ = ("_pending", "max_pending", "errors", "evicted")

    def __init__(self, max_pending: int = 64) -> None:
        #: frame id -> (declared count, received so far, chunks by index).
        self._pending: Dict[int, Tuple[int, Dict[int, bytes]]] = {}
        self.max_pending = max_pending
        #: Datagrams rejected (bad magic, truncated header, bad counts).
        self.errors = 0
        #: Partial frames given up on.
        self.evicted = 0

    def feed(self, datagram: bytes) -> Optional[bytes]:
        """Absorb one datagram; return a completed frame or None."""
        if len(datagram) < FRAG_HEADER_SIZE \
                or not datagram.startswith(FRAG_MAGIC):
            self.errors += 1
            return None
        _, frame_id, index, count = _FRAG_HEADER.unpack_from(datagram)
        chunk = datagram[FRAG_HEADER_SIZE:]
        if count == 0 or index >= count:
            self.errors += 1
            return None
        if count == 1:
            self._pending.pop(frame_id, None)
            return chunk
        entry = self._pending.get(frame_id)
        if entry is None or entry[0] != count:
            if entry is not None:
                self.errors += 1  # conflicting fragment counts
            entry = (count, {})
            self._pending[frame_id] = entry
            self._evict()
        entry[1][index] = chunk
        if len(entry[1]) < count:
            return None
        del self._pending[frame_id]
        return b"".join(entry[1][i] for i in range(count))

    def _evict(self) -> None:
        while len(self._pending) > self.max_pending:
            oldest = next(iter(self._pending))
            del self._pending[oldest]
            self.evicted += 1

    @property
    def pending(self) -> int:
        return len(self._pending)


# ----------------------------------------------------------------------
# Packets <-> frames
# ----------------------------------------------------------------------


def packet_to_frame(packet: Packet, data: Codec = ANY) -> bytes:
    """Serialize a packet for the wire, its application data framed by
    ``data``."""
    return encode_frame(packet_codec(data).encode(packet))


def frame_to_packet(wire: Dict[str, Any], data: Codec = ANY) -> Packet:
    """Decode a received wire dict back into a :class:`Packet`.

    Totally: any malformation, in the application data too, raises
    :class:`WireFormatError`.
    """
    return cast(Packet, packet_codec(data).decode(wire))
