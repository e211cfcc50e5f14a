"""Attack traffic sources.

:class:`PulseAttackSource` realizes a :class:`~repro.core.attack.PulseTrain`
as actual packets: during each pulse it emits fixed-size datagrams at the
pulse's sending rate; between pulses it is silent.  A train with zero
spacing *is* a flooding attack, so the flooding baseline reuses this
source.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.core.attack import PulseTrain
from repro.sim.packet import FULL_PACKET_BYTES
from repro.sim.packet import Packet, PacketKind
from repro.util.validate import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.node import Node

__all__ = ["PulseAttackSource", "CBRSource"]


class PulseAttackSource:
    """Emits a pulse train from *node* toward *dst_node_id*.

    Packets are evenly spaced within each pulse at the pulse's rate
    (inter-packet gap = packet bits / R_attack), which is how ns-2's CBR
    source shapes a burst.  Call :meth:`start`.
    """

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        flow_id: int,
        dst_node_id: int,
        train: PulseTrain,
        *,
        packet_bytes: float = FULL_PACKET_BYTES,
        start_time: float = 0.0,
    ) -> None:
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.dst_node_id = dst_node_id
        self.train = train
        self.packet_bytes = check_positive("packet_bytes", packet_bytes)
        self.start_time = check_non_negative("start_time", start_time)
        self.packets_emitted = 0
        self.bytes_emitted = 0.0
        self.pulses_emitted = 0
        self._started = False

    def start(self) -> None:
        """Schedule the whole train relative to :attr:`start_time`."""
        if self._started:
            return
        self._started = True
        for index, (begin, end) in enumerate(
            self.train.pulse_intervals(self.start_time)
        ):
            rate = self.train.rates_bps[index]
            self.sim.schedule_at(begin, self._begin_pulse, index, end, rate)

    # ------------------------------------------------------------------
    def _begin_pulse(self, index: int, end: float, rate_bps: float) -> None:
        self.pulses_emitted += 1
        gap = self.packet_bytes * 8.0 / rate_bps
        self._emit(index, end, gap)

    def _emit(self, index: int, end: float, gap: float) -> None:
        # Per-datagram hot path: a high-rate pulse makes attack packets
        # the largest packet population in the scenario, so the chain
        # carries its per-pulse constants (pulse index, end, gap) as
        # event args and builds each datagram positionally.
        sim = self.sim
        now = sim._now
        if now >= end:
            return
        size = self.packet_bytes
        packet = Packet(
            PacketKind.ATTACK, self.flow_id, self.node.node_id,
            self.dst_node_id, size, index, None, now,
        )
        self.packets_emitted += 1
        self.bytes_emitted += size
        self.node.send(packet)
        next_at = now + gap
        if next_at < end:
            # Direct calendar push (next_at > now by construction).  The
            # chain is never cancelled, so a transient entry -- no
            # Event handle -- is enough.
            sim._push_transient(next_at, self._emit, (index, end, gap))


class CBRSource:
    """A constant-bit-rate (UDP-like) source, e.g. for background load."""

    def __init__(
        self,
        sim: "Simulator",
        node: "Node",
        flow_id: int,
        dst_node_id: int,
        *,
        rate_bps: float,
        packet_bytes: float = 1000.0,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.flow_id = flow_id
        self.dst_node_id = dst_node_id
        self.rate_bps = check_positive("rate_bps", rate_bps)
        self.packet_bytes = check_positive("packet_bytes", packet_bytes)
        self.start_time = check_non_negative("start_time", start_time)
        self.stop_time = stop_time
        self.packets_emitted = 0
        self.bytes_emitted = 0.0
        #: constant inter-packet gap at the configured rate.
        self._gap = packet_bytes * 8.0 / rate_bps
        self._started = False

    def start(self) -> None:
        """Begin emission at :attr:`start_time` (runs until :attr:`stop_time`)."""
        if self._started:
            return
        self._started = True
        self.sim.schedule_at(max(self.start_time, self.sim.now), self._emit)

    def _emit(self) -> None:
        sim = self.sim
        now = sim._now
        if self.stop_time is not None and now >= self.stop_time:
            return
        size = self.packet_bytes
        packet = Packet(
            PacketKind.CBR, self.flow_id, self.node.node_id,
            self.dst_node_id, size, None, None, now,
        )
        self.packets_emitted += 1
        self.bytes_emitted += size
        self.node.send(packet)
        # Direct calendar push; the chain is never cancelled, so a
        # transient entry is enough.
        sim._push_transient(now + self._gap, self._emit, ())
