"""Drawing operations and their wire codec.

Every drawop is an immutable value named by its SRM ADU name. "The name
always refers to the same data": to change a blue line into a red circle,
wb sends a delete for the line's name followed by a new drawop — it never
rebinds the old name (Section II-C).

The simulation passes drawops by reference; the live transports need
JSON. :data:`DRAWOPS` is that codec — a tagged union on
:mod:`repro.codec`, so a drawop with a mistyped field (a numeric colour,
a delete target of the wrong shape) is refused as a
:class:`~repro.codec.WireFormatError`, never coerced.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.codec import NUMBER, STR, Codec, list_of, optional, tuple_of, union
from repro.core.messages import NAME
from repro.core.names import AduName


class DrawType(enum.Enum):
    """Primitive shapes wb can draw."""

    LINE = "line"
    RECTANGLE = "rectangle"
    ELLIPSE = "ellipse"
    FREEHAND = "freehand"
    TEXT = "text"


@dataclass(frozen=True)
class DrawOp:
    """Draw a shape at given coordinates.

    ``timestamp`` is the sender's drawing time, used only for sorting on
    render ("out of order drawops are sorted upon arrival according to
    their timestamps"); it is not a delivery-order requirement.
    """

    shape: DrawType
    coords: Tuple[Tuple[float, float], ...]
    color: str = "black"
    width: float = 1.0
    text: Optional[str] = None
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not self.coords:
            raise ValueError("a drawop needs at least one coordinate")
        if self.shape is DrawType.TEXT and self.text is None:
            raise ValueError("text drawops need text")


@dataclass(frozen=True)
class DeleteOp:
    """Delete an earlier drawop by name.

    Not strictly idempotent in effect ordering — it references another
    operation — so the whiteboard patches it after the fact if it arrives
    before its target.
    """

    target: AduName
    timestamp: float = 0.0


@dataclass(frozen=True)
class ClearOp:
    """Clear everything drawn on the page before ``timestamp``.

    Implemented as a drawop (idempotent given the timestamp): rendering
    ignores operations older than the latest clear.
    """

    timestamp: float = 0.0


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------

_COORDS = list_of(tuple_of(NUMBER, NUMBER))

#: The whiteboard's data codec: one drawing operation per ADU, told
#: apart by its ``op`` tag. The live transports frame data and repair
#: payloads with it (:func:`repro.core.messages.packet_codec`).
DRAWOPS = union("op", {
    "draw": (DrawOp, (
        ("shape", "shape", Codec(lambda shape: shape.value,
                                 lambda wire: DrawType(STR.decode(wire)))),
        ("coords", "coords", Codec(_COORDS.encode,
                                   lambda wire: tuple(_COORDS.decode(wire)))),
        ("color", "color", STR),
        ("width", "width", NUMBER),
        ("text", "text", optional(STR)),
        ("timestamp", "ts", NUMBER))),
    "delete": (DeleteOp, (
        ("target", "target", NAME),
        ("timestamp", "ts", NUMBER))),
    "clear": (ClearOp, (
        ("timestamp", "ts", NUMBER),)),
})
