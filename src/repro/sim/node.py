"""Nodes and static forwarding.

A :class:`Node` is a router or host.  Forwarding is static: each node
holds a routing table mapping destination node id to the outgoing
:class:`~repro.sim.link.Link`.  Hosts additionally host *agents*
(TCP senders/receivers, attack sources) keyed by flow id; a packet whose
``dst`` equals the node id is delivered to the agent registered for its
flow.

Routes are compiled into a dense list ``_next_send`` indexed by
destination node id whose entries are the *bound* ``Link.send`` of the
outgoing interface, so a hop is one indexed load and one call.  Hosts
with a single outgoing interface use an O(1) *default route* instead of
a dense table (a 10k-host scenario must not hold 10k tables of 20k
entries each).  Most hops bypass :meth:`Node.receive` entirely: the
upstream link resolves the delivery callable at send time (see
:meth:`repro.sim.link.Link.send` and :mod:`repro.sim.routing`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, TYPE_CHECKING

from repro.sim.packet import Packet
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

__all__ = ["Node"]


class Node:
    """A network node (host or router).

    ``__slots__`` keeps the per-hop attribute loads in :meth:`receive`
    off the instance-dict path.
    """

    __slots__ = (
        "sim", "node_id", "name", "_links", "_routes", "_agents",
        "undeliverable", "_next_send", "_default_hop",
        "_default_send",
    )

    def __init__(self, sim: "Simulator", node_id: int,
                 name: str = "") -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = name or f"n{node_id}"
        #: outgoing interface per immediate next-hop node id.
        self._links: Dict[int, "Link"] = {}
        #: destination node id -> next-hop node id.
        self._routes: Dict[int, int] = {}
        #: flow id -> receive callback for locally terminated packets.
        self._agents: Dict[int, Callable[[Packet], None]] = {}
        #: packets that arrived with no registered agent or route.
        self.undeliverable = 0
        #: dense dst-id-indexed table of bound ``Link.send`` callables
        #: (``None`` entries mean "no specific route").  Mirrors
        #: ``_routes``; maintained by :meth:`add_route`/:meth:`attach_link`.
        self._next_send: List[Optional[Callable[[Packet], bool]]] = []
        #: fallback next hop for destinations absent from the table
        #: (typical for single-homed hosts); ``None`` means unroutable.
        self._default_hop: Optional[int] = None
        self._default_send: Optional[Callable[[Packet], bool]] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_link(self, neighbor_id: int, link: "Link") -> None:
        """Register *link* as the interface toward *neighbor_id*.

        Called automatically by :class:`~repro.sim.link.Link`.
        """
        self._links[neighbor_id] = link
        # A neighbor is trivially routable via the direct link.
        if neighbor_id not in self._routes:
            self._routes[neighbor_id] = neighbor_id
            self._table_set(neighbor_id, link)

    def add_route(self, dst_id: int, next_hop_id: int) -> None:
        """Route packets for *dst_id* via the link to *next_hop_id*."""
        link = self._links.get(next_hop_id)
        if link is None:
            raise ConfigurationError(
                f"{self.name}: no link toward next hop n{next_hop_id}"
            )
        self._routes[dst_id] = next_hop_id
        self._table_set(dst_id, link)

    def set_default_route(self, next_hop_id: int) -> None:
        """Route destinations with no specific table entry via *next_hop_id*.

        The O(1) routing state for single-homed hosts: a leaf behind one
        access link forwards everything through it, so it needs no
        per-destination entries at all.  Explicit opt-in -- a node
        without a default still counts unroutable packets in
        :attr:`undeliverable`.
        """
        link = self._links.get(next_hop_id)
        if link is None:
            raise ConfigurationError(
                f"{self.name}: no link toward next hop n{next_hop_id}"
            )
        self._default_hop = next_hop_id
        self._default_send = link.send

    def _table_set(self, dst_id: int, link: "Link") -> None:
        """Mirror one route into the dense forwarding table."""
        table = self._next_send
        if dst_id >= len(table):
            table.extend([None] * (dst_id + 1 - len(table)))
        table[dst_id] = link.send

    def register_agent(self, flow_id: int, deliver: Callable[[Packet], None]) -> None:
        """Deliver locally terminated packets of *flow_id* to *deliver*.

        Agents must be registered before traffic toward them is in
        flight: the agent is resolved when the packet enters its final
        link, not at delivery time.  Every scenario builder registers
        agents at flow-creation time, before the flow's first
        transmission.
        """
        if flow_id in self._agents:
            raise ConfigurationError(
                f"{self.name}: flow {flow_id} already has an agent"
            )
        self._agents[flow_id] = deliver

    def register_agents(
        self, agents: Mapping[int, Callable[[Packet], None]],
    ) -> None:
        """Bulk-register agents (one dict merge, not one call per flow).

        Used by vectorized scenario setup; duplicate flow ids raise,
        matching :meth:`register_agent`.
        """
        existing = self._agents
        duplicates = existing.keys() & agents.keys()
        if duplicates:
            raise ConfigurationError(
                f"{self.name}: flows {sorted(duplicates)} already have agents"
            )
        existing.update(agents)

    def link_to(self, neighbor_id: int) -> "Link":
        """The direct link toward *neighbor_id* (raises if absent)."""
        try:
            return self._links[neighbor_id]
        except KeyError:
            raise ConfigurationError(
                f"{self.name}: no link toward n{neighbor_id}"
            ) from None

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _outbound(self, dst_id: int) -> Optional["Link"]:
        """The outgoing link toward *dst_id*, or ``None`` if unroutable.

        The one shared route-lookup implementation: :meth:`forward` and
        :meth:`send` delegate here, :meth:`receive` (and the
        resolve-at-send path in :meth:`Link.send
        <repro.sim.link.Link.send>`) inline exactly this decision
        procedure on the dense table -- specific route first, default
        route as fallback.
        """
        next_hop = self._routes.get(dst_id)
        if next_hop is None:
            next_hop = self._default_hop
            if next_hop is None:
                return None
        return self._links[next_hop]

    def _drop_undeliverable(self, _packet: Packet) -> None:
        """Terminal for unroutable/agent-less packets."""
        self.undeliverable += 1

    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving from a link (or locally injected).

        Hops through buffer-tracking links (and direct calls) dispatch
        through here, so the table lookup is inlined rather than
        delegated to :meth:`_outbound`; most hops bypass this frame
        entirely (the upstream link resolved the delivery callable at
        send time).
        """
        dst = packet.dst
        if dst == self.node_id:
            agent = self._agents.get(packet.flow_id)
            if agent is None:
                self.undeliverable += 1
                return
            agent(packet)
            return
        table = self._next_send
        send = table[dst] if dst < len(table) else None
        if send is None:
            send = self._default_send
            if send is None:
                self.undeliverable += 1
                return
        send(packet)

    def forward(self, packet: Packet) -> None:
        """Send *packet* toward its destination via the routing table.

        Packets with no route are counted in :attr:`undeliverable` and
        silently discarded, matching a router's behaviour rather than
        crashing mid-simulation.
        """
        link = self._outbound(packet.dst)
        if link is None:
            self.undeliverable += 1
            return
        link.send(packet)

    def send(self, packet: Packet) -> None:
        """Inject a locally generated packet into the network."""
        self.forward(packet)

    def metrics_snapshot(self) -> dict:
        """Node-level telemetry for the observability layer."""
        return {"undeliverable_packets": float(self.undeliverable)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} links={sorted(self._links)}>"
