"""The catalog of protocol mutants: one-edit bugs in SRM's rules.

Each entry names a source file, a text ``old`` that occurs exactly once
in it, the ``new`` text that replaces it, and the rule of the paper the
edit breaks. A mutant is only ever applied to a copy of the tree
(``tests/mutants/run.py``); no planted bug lives in ``src/``.

``tests/mutants/MATRIX.md`` records which check kills each entry. A
mutant that survives every check gets a test that kills it; it is never
taken out of the catalog.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    #: Repo-relative path of the file the edit goes into.
    path: str
    old: str
    new: str
    #: The rule of the paper (or of the reproduction's contract) broken.
    rule: str


TIMER_MATH = "src/repro/core/timer_math.py"
AGENT = "src/repro/core/agent.py"
ADAPTIVE = "src/repro/core/adaptive.py"
LOCAL = "src/repro/core/local.py"
HERD = "src/repro/herd/engine.py"

CATALOG: Tuple[Mutant, ...] = (
    # -- timer bounds (Section III-A) ----------------------------------
    Mutant(
        "request-upper-drops-c1", TIMER_MATH,
        "    high = factor * (c1 + c2) * distance\n",
        "    high = factor * c2 * distance\n",
        "III-A: a request timer is uniform on [C1*d, (C1+C2)*d]"),
    Mutant(
        "repair-upper-drops-d1", TIMER_MATH,
        "    high = (d1 + d2) * distance\n",
        "    high = d2 * distance\n",
        "III-A: a repair timer is uniform on [D1*d, (D1+D2)*d]"),
    # -- request backoff (Section III-A) -------------------------------
    Mutant(
        "backoff-exponent-off-by-one", TIMER_MATH,
        "    factor = backoff_factor ** backoff_count\n",
        "    factor = backoff_factor ** (backoff_count + 1)\n",
        "III-A: the i-th backed-off request timer is 2^i times the first; "
        "the first is not backed off"),
    Mutant(
        "backoff-count-stuck", AGENT,
        "        context.backoff_count += 1\n",
        "        context.backoff_count = 1\n",
        "III-A: each backoff doubles the request interval again "
        "(exponential, not a single doubling)"),
    Mutant(
        "heard-request-no-backoff", AGENT,
        "                if now >= context.ignore_backoff_until:\n"
        "                    agent._backoff_request(context)\n",
        "                if now >= context.ignore_backoff_until:\n"
        "                    pass\n",
        "III-A: a request heard before our own timer fires backs off "
        "and resets our request timer"),
    # -- the ignore-backoff window (footnote 1) ------------------------
    Mutant(
        "ignore-window-quarter", TIMER_MATH,
        "    return now + delay / 2.0",
        "    return now + delay / 4.0",
        "III-A footnote 1: after a backoff, duplicate requests are "
        "ignored until halfway to the new expiry"),
    Mutant(
        "herd-ignore-window-quarter", HERD,
        "ignores = now + delays_b / 2.0",
        "ignores = now + delays_b / 4.0",
        "III-A footnote 1 (herd engine's batched form): the ignore "
        "window ends halfway to the new expiry"),
    Mutant(
        "should-backoff-strict", AGENT,
        "                if now >= context.ignore_backoff_until:\n",
        "                if now > context.ignore_backoff_until:\n",
        "III-A footnote 1: the ignore window is half-open; a request "
        "at its end backs off"),
    # -- hold-down (Section III-B) -------------------------------------
    Mutant(
        "no-holddown", AGENT,
        "        anchor = first_requester if first_requester is not None "
        "else name.source\n",
        "        return\n"
        "        anchor = first_requester if first_requester is not None "
        "else name.source\n",
        "III-B: after a repair, requests for the same data are ignored "
        "for 3*d"),
    Mutant(
        "holddown-factor-ignored", TIMER_MATH,
        "    return now + holddown_factor * distance",
        "    return now + distance",
        "III-B: the hold-down lasts 3*d, not d"),
    Mutant(
        "holddown-anchored-at-source", AGENT,
        "        anchor = first_requester if first_requester is not None "
        "else name.source\n",
        "        anchor = name.source\n",
        "III-B: the hold-down distance is to the first requester, the "
        "data source only when no requester is known"),
    # -- tie order (the determinism contract) --------------------------
    Mutant(
        "tie-order", AGENT,
        "    def _request_timer_expired(self, context: RequestContext) "
        "-> None:\n"
        "        if context.done:\n"
        "            return\n",
        "    def _request_timer_expired(self, context: RequestContext,\n"
        "                               _elections: dict = {}) -> None:\n"
        "        claimed = _elections.setdefault(\n"
        "            (id(self._scheduler), self._scheduler.now), set())\n"
        "        claimed.add(self.node_id)\n"
        "        if next(iter(claimed)) != self.node_id:\n"
        "            return\n"
        "        if context.done:\n"
        "            return\n",
        "Determinism contract: timers that expire at one instant act the "
        "same in any drain order (a shared-set leader election breaks it)"),
    # -- adaptive request timers (Fig. 9) ------------------------------
    Mutant(
        "c2-decrease-band-quarter", ADAPTIVE,
        "            if state.ave_dup < 0.5 * cfg.ave_dups_target:\n"
        "                params.c2 -= cfg.c2_decrease",
        "            if state.ave_dup < 0.25 * cfg.ave_dups_target:\n"
        "                params.c2 -= cfg.c2_decrease",
        "Fig. 9: C2 shrinks when the delay is high and duplicates are "
        "below half the target"),
    Mutant(
        "c2-widen-wrong-constant", ADAPTIVE,
        "            params.c2 += cfg.c2_increase",
        "            params.c2 += cfg.c1_increase",
        "Fig. 9: too many duplicate requests widen C2 by 0.5"),
    Mutant(
        "c1-decrease-reads-open-period", ADAPTIVE,
        "            if state.sent_last_period:\n"
        "                params.c1 -= cfg.c1_decrease",
        "            if state.period.sent:\n"
        "                params.c1 -= cfg.c1_decrease",
        "Fig. 9: C1 shrinks for members who sent a request in the period "
        "that just closed"),
    Mutant(
        "far-duplicate-request-any-member", ADAPTIVE,
        "        if (we_sent and requester_distance\n",
        "        if (requester_distance\n",
        "VII-A: only a member that sent a request lowers C1 when a "
        "farther member requests too"),
    Mutant(
        "ewma-weight-swapped", ADAPTIVE,
        "    return (1.0 - weight) * average + weight * sample",
        "    return weight * average + (1.0 - weight) * sample",
        "VII-A: the duplicate and delay averages weight a new sample "
        "by 0.1"),
    # -- adaptive repair timers (Fig. 10) ------------------------------
    Mutant(
        "d2-decrease-band-quarter", ADAPTIVE,
        "            if state.ave_dup < 0.5 * cfg.ave_dups_target:\n"
        "                params.d2 -= cfg.c2_decrease",
        "            if state.ave_dup < 0.25 * cfg.ave_dups_target:\n"
        "                params.d2 -= cfg.c2_decrease",
        "Fig. 10: D2 shrinks when the delay is high and duplicates are "
        "below half the target"),
    Mutant(
        "far-duplicate-repair-no-d1-cut", ADAPTIVE,
        "_clamp(\n"
        "                self.params.d1 - self.config.c1_decrease,",
        "_clamp(\n"
        "                self.params.d1,",
        "VII-A: a member that sent a repair lowers D1 when a farther "
        "member repairs too"),
    Mutant(
        "repair-adjust-reads-request-side", ADAPTIVE,
        "        state = self.repair\n"
        "        params = self.params\n",
        "        state = self.request\n"
        "        params = self.params\n",
        "Fig. 10: (D1, D2) adapt on the repair-side averages"),
    # -- local recovery TTLs (Section VII-B) ---------------------------
    Mutant(
        "one-step-repair-ttl-no-hops", AGENT,
        "            return context.request_initial_ttl + "
        "context.request_hops",
        "            return context.request_initial_ttl",
        "VII-B: a one-step local repair's TTL is the request's plus the "
        "replier's hops from the requester"),
    Mutant(
        "reached-by-ttl-off-by-one", LOCAL,
        "tree.ttl_required[target] <= ttl:",
        "tree.ttl_required[target] < ttl:",
        "VII-B: a TTL-t multicast reaches every node whose threshold sum "
        "is at most t"),
    # -- group listening (the delivery contract) ------------------------
    Mutant(
        "state-kinds-ignore-group", AGENT,
        "                continue\n"
        "            if kind == KIND_PAGE_REQUEST:\n",
        "                pass\n"
        "            if kind == KIND_PAGE_REQUEST:\n",
        "Delivery contract: a member takes only packets for a group it "
        "listens on; a page request, page reply or FEC parity packet for "
        "another group its node joined leaves it untouched"),
    # -- the herd's vectorized timer forms -----------------------------
    Mutant(
        "backoff-factors-vec-linear", TIMER_MATH,
        "        out[counts == count] = backoff_factor ** int(count)",
        "        out[counts == count] = backoff_factor * int(count)",
        "III-A (herd engine's batched form): backoff is exponential, "
        "2^i"),
    Mutant(
        "draw-timers-vec-not-jittered", TIMER_MATH,
        "    return np.where(highs <= 0.0, DEGENERATE_HIGH * us, draws)",
        "    return np.where(highs < 0.0, DEGENERATE_HIGH * us, draws)",
        "III-A (herd engine's batched form): a zero-width interval still "
        "draws a random delay so simultaneous members de-synchronize"),
)


def plant(mutant: Mutant, root: Path) -> None:
    """Apply ``mutant`` to the tree at ``root`` (never the checkout).

    Raises ``ValueError`` unless ``mutant.old`` occurs exactly once.
    """
    path = root / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name}: old text occurs {count} "
                         f"times in {mutant.path}, expected once")
    path.write_text(text.replace(mutant.old, mutant.new))

