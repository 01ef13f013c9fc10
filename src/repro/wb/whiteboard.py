"""The whiteboard application: page state over an SRM agent.

One :class:`Whiteboard` per participant. It owns an
:class:`~repro.core.agent.SrmAgent`, feeds locally-drawn operations into
it, and folds every delivered ADU (original or repair, in any order) into
per-page canvases. Rendering sorts surviving drawops by timestamp, drops
deleted ones, and honours the latest clear — reproducing wb's
idempotent-operations model, including delete patching when the delete
arrives before the drawop it references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, TYPE_CHECKING

from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.core.names import AduName, PageId
from repro.net.packet import GroupAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.live.engine import Engine
from repro.sim.rng import RandomSource
from repro.sim.trace import WB_INTEGRITY_REJECTED
from repro.wb.drawops import ClearOp, DeleteOp, DrawOp
from repro.wb.integrity import IntegrityError, SealedOp


@dataclass
class PageCanvas:
    """Everything known about one page at one member."""

    page: PageId
    #: All drawops by name (including ones later deleted).
    ops: Dict[AduName, DrawOp] = field(default_factory=dict)
    #: Names deleted — possibly before the target arrived (patching).
    deleted: Set[AduName] = field(default_factory=set)
    #: Timestamp of the most recent clear seen.
    cleared_before: float = float("-inf")

    def visible_ops(self) -> List[tuple[AduName, DrawOp]]:
        """Surviving drawops in timestamp order (ties by name)."""
        survivors = [(name, op) for name, op in self.ops.items()
                     if name not in self.deleted
                     and op.timestamp > self.cleared_before]
        survivors.sort(key=lambda item: (item[1].timestamp, item[0]))
        return survivors


class Whiteboard:
    """A wb participant.

    With ``integrity_key`` set, every operation is sealed with an
    integrity tag bound to its ADU name before transmission, and
    incoming operations failing verification are refused instead of
    rendered (Section III-E's defense against corrupted data spreading
    "like a virus" through repairs).
    """

    def __init__(self, config: Optional[SrmConfig] = None,
                 rng: Optional[RandomSource] = None,
                 integrity_key: Optional[bytes] = None) -> None:
        self.agent = SrmAgent(config=config, rng=rng,
                              on_app_receive=self._deliver)
        self.pages: Dict[PageId, PageCanvas] = {}
        self.integrity_key = integrity_key
        self.integrity_rejections = 0
        self._page_counter = 0

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------

    def join(self, network: "Engine", node_id: int,
             group: GroupAddress) -> None:
        """Attach to an engine (sim or live) and join the session group."""
        network.attach(node_id, self.agent)
        self.agent.join_group(group)

    def leave(self) -> None:
        self.agent.leave_group()

    @property
    def member_id(self) -> int:
        return self.agent.node_id

    @property
    def now(self) -> float:
        return self.agent.now

    # ------------------------------------------------------------------
    # Drawing (local operations -> SRM)
    # ------------------------------------------------------------------

    def create_page(self) -> PageId:
        """Create a page owned by this member; persistent Page-ID."""
        self._page_counter += 1
        page = PageId(creator=self.member_id, number=self._page_counter)
        self._canvas(page)
        return page

    def view_page(self, page: PageId) -> None:
        """Switch the page reported in session messages."""
        self.agent.current_page = page
        self._canvas(page)

    def draw(self, page: PageId, op: DrawOp) -> AduName:
        """Draw locally and multicast the drawop."""
        stamped = op if op.timestamp else DrawOp(
            shape=op.shape, coords=op.coords, color=op.color,
            width=op.width, text=op.text, timestamp=self.now)
        return self._send_op(page, stamped)

    def delete(self, page: PageId, target: AduName) -> AduName:
        """Delete an earlier drawop (by name) with a new operation."""
        return self._send_op(page, DeleteOp(target=target,
                                            timestamp=self.now))

    def clear(self, page: PageId) -> AduName:
        """Clear the page (everything drawn before now)."""
        return self._send_op(page, ClearOp(timestamp=self.now))

    def _send_op(self, page: PageId, op) -> AduName:
        """Seal (when keyed), multicast, and apply one operation."""
        if self.integrity_key is not None:
            predicted = AduName(self.member_id, page,
                                self.agent.peek_next_seq(page))
            sealed = SealedOp.seal(predicted, op, self.integrity_key)
            name = self.agent.send_data(sealed, page=page)
            assert name == predicted
        else:
            name = self.agent.send_data(op, page=page)
        self._apply(name, op)
        return name

    def replace(self, page: PageId, target: AduName,
                replacement: DrawOp) -> AduName:
        """The paper's example: change a drawing by delete + new drawop."""
        self.delete(page, target)
        return self.draw(page, replacement)

    # ------------------------------------------------------------------
    # Late join / browsing
    # ------------------------------------------------------------------

    def fetch_history(self, page: PageId) -> None:
        """Ask the group for a page's state (SRM page-state recovery)."""
        self._canvas(page)
        self.agent.request_page_state(page)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self, page: PageId) -> List[DrawOp]:
        """The page's surviving drawops in timestamp order."""
        return [op for _, op in self._canvas(page).visible_ops()]

    def render_names(self, page: PageId) -> List[AduName]:
        return [name for name, _ in self._canvas(page).visible_ops()]

    def op_count(self, page: PageId) -> int:
        return len(self._canvas(page).ops)

    # ------------------------------------------------------------------
    # SRM delivery path
    # ------------------------------------------------------------------

    def _deliver(self, name: AduName, data: Any) -> None:
        if isinstance(data, SealedOp):
            if self.integrity_key is not None:
                try:
                    data = data.unseal(name, self.integrity_key)
                except IntegrityError:
                    # Refuse corrupted/forged operations: never render
                    # them, evict the bad copy so we cannot re-serve it
                    # in repairs ("spread like a virus"), and re-enter
                    # loss recovery for an intact copy.
                    self.integrity_rejections += 1
                    self.agent.trace(WB_INTEGRITY_REJECTED, name=name)
                    self.agent.store.evict(name)
                    self.agent.on_loss_detected(name)
                    return
            else:
                data = data.op
        self._apply(name, data)

    def _apply(self, name: AduName, data: Any) -> None:
        canvas = self._canvas(name.page)
        if isinstance(data, DrawOp):
            canvas.ops[name] = data
        elif isinstance(data, DeleteOp):
            # Applying a delete is order-independent: if the target has
            # not arrived yet, the tombstone patches it when it does.
            canvas.deleted.add(data.target)
        elif isinstance(data, ClearOp):
            canvas.cleared_before = max(canvas.cleared_before,
                                        data.timestamp)
        else:
            raise TypeError(f"unknown wb operation {data!r}")

    def _canvas(self, page: PageId) -> PageCanvas:
        canvas = self.pages.get(page)
        if canvas is None:
            canvas = PageCanvas(page=page)
            self.pages[page] = canvas
        return canvas
