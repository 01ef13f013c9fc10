"""SRM: the paper's primary contribution.

The framework in one sentence: every member of an IP multicast group is
individually responsible for detecting its own losses and requesting
retransmission by persistent name; requests and repairs are themselves
multicast, with random timers — set as a function of distance — used to
suppress duplicates (Section III of the paper).

Public surface:

* :class:`SrmAgent` — the protocol endpoint to attach to a network node.
* :class:`SrmConfig` — every timer / adaptation / session knob.
* :class:`AduName`, :class:`PageId` — persistent application-data-unit names.
* :class:`AdaptiveTimers` — the Section VII-A adaptive parameter controller.
* :func:`analyze_loss_event` (from :mod:`repro.metrics.events`) — turn
  traces into the paper's metrics.
"""

from repro.core.names import AduName, PageId
from repro.core.config import AdaptiveBounds, SrmConfig, TimerParams
from repro.core.messages import (
    DataPayload,
    RepairPayload,
    RequestPayload,
    SessionPayload,
)
from repro.core.state import DataStore, ReceptionState
from repro.core.adaptive import AdaptiveTimers
from repro.core.session import (
    DistanceEstimator,
    OracleDistance,
    SessionDistance,
)
from repro.core.agent import SrmAgent
from repro.metrics.events import LossEventReport, analyze_loss_event
from repro.core.transmit import TokenBucket, TransmitQueue
from repro.core.fec import FecCodec
from repro.core.recovery_groups import RecoveryGroup
from repro.core.scalable_session import SessionHierarchy
from repro.core.layered import LayeredReceiver, LayeredSource, make_layers
from repro.core.local import LocalRecoveryOutcome, ideal_scoped_recovery

__all__ = [
    "TokenBucket",
    "TransmitQueue",
    "FecCodec",
    "RecoveryGroup",
    "SessionHierarchy",
    "LayeredSource",
    "LayeredReceiver",
    "make_layers",
    "LocalRecoveryOutcome",
    "ideal_scoped_recovery",
    "AduName",
    "PageId",
    "SrmConfig",
    "TimerParams",
    "AdaptiveBounds",
    "DataPayload",
    "RequestPayload",
    "RepairPayload",
    "SessionPayload",
    "DataStore",
    "ReceptionState",
    "AdaptiveTimers",
    "DistanceEstimator",
    "OracleDistance",
    "SessionDistance",
    "SrmAgent",
    "LossEventReport",
    "analyze_loss_event",
]
