"""Node base class, publishers, subscriptions and timers.

Each PPC kernel (point-cloud generation, OctoMap, collision check, motion
planner, path tracking, ...) is a :class:`Node`.  Nodes communicate only
through the :class:`~repro.rosmw.topic.TopicBus` and the
:class:`~repro.rosmw.service.ServiceBus` owned by their
:class:`~repro.rosmw.graph.NodeGraph`, exactly mirroring the paper's ROS
deployment.  Nodes also account for the compute time of their callbacks,
which feeds the compute-platform timing model and the Table II overhead
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Type, TYPE_CHECKING

from repro.rosmw.exceptions import NodeCrashError
from repro.rosmw.message import Header, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rosmw.graph import NodeGraph


class Publisher:
    """Handle used by a node to publish messages on one topic."""

    def __init__(self, node: "Node", topic: str, msg_type: Type[Message]) -> None:
        self._node = node
        self.topic = topic
        self.msg_type = msg_type
        self.publish_count = 0

    def publish(self, message: Message) -> Optional[Message]:
        """Stamp and publish ``message``; returns the delivered message."""
        message.header = Header(
            stamp=self._node.graph.clock.now,
            seq=self.publish_count,
            frame_id=message.header.frame_id,
        )
        self.publish_count += 1
        return self._node.graph.topic_bus.publish(self.topic, message)

    def has_readers(self) -> bool:
        """Whether a subscription or a tap would see what this publishes.

        rclpy's ``get_subscription_count() > 0``, counting taps too: a sensor
        may skip measuring a sample that no one would read.
        """
        return self._node.graph.topic_bus.has_readers(self.topic)


class Subscription:
    """Handle representing one subscription of a node."""

    def __init__(
        self,
        node: "Node",
        topic: str,
        msg_type: Type[Message],
        callback: Callable[[Message], None],
    ) -> None:
        self._node = node
        self.topic = topic
        self.msg_type = msg_type
        self.callback = callback
        self.received_count = 0

    def _dispatch(self, message: Message) -> None:
        if not self._node.alive:
            return
        self.received_count += 1
        self._node._run_guarded(self.callback, message)

    def shutdown(self) -> None:
        """Remove this subscription from the topic bus."""
        self._node.graph.topic_bus.unsubscribe(self.topic, self._dispatch)


@dataclass
class Timer:
    """Periodic timer owned by a node; fired by the executor in simulated time."""

    node: "Node"
    period: float
    callback: Callable[[], None]
    next_fire: float
    fired_count: int = 0
    cancelled: bool = False
    offset: float = 0.0

    def cancel(self) -> None:
        """Stop the timer from firing again."""
        self.cancelled = True


@dataclass
class ComputeAccounting:
    """Per-node accumulation of modelled compute time.

    ``busy_time`` is the total modelled execution time of the node's kernels
    during a mission.  Detection and recovery charge their own categories so
    that Table II can report DET and RECOV overhead separately.
    """

    busy_time: float = 0.0
    categories: Dict[str, float] = field(default_factory=dict)

    def charge(self, seconds: float, category: str = "compute") -> None:
        """Add ``seconds`` of modelled execution time to ``category``."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative compute time: {seconds}")
        self.busy_time += seconds
        self.categories[category] = self.categories.get(category, 0.0) + seconds

    def reset(self) -> None:
        """Zero all counters (between missions)."""
        self.busy_time = 0.0
        self.categories.clear()


class _GuardedServiceHandler:
    """Crash-guarded wrapper around a node's service handler.

    A callable object rather than a closure so that a deep copy of the node
    graph (golden-prefix checkpointing) rebinds the wrapper to the *copied*
    node and handler; a closure would keep servicing the original graph.
    """

    def __init__(self, node: "Node", handler: Callable[[Any], Any]) -> None:
        self.node = node
        self.handler = handler

    def __call__(self, request: Any) -> Any:
        return self.node._run_guarded(self.handler, request)


class Node:
    """Base class for all compute kernels and framework nodes.

    Subclasses override :meth:`on_start` to create publishers, subscriptions,
    timers and services, and may override :meth:`on_shutdown`.  A callback may
    raise :class:`~repro.rosmw.exceptions.NodeCrashError` to emulate a process
    crash; the node graph then restarts the node, mirroring the ROS master's
    behaviour that the paper relies on for non-SDC failures.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.graph: "NodeGraph" = None  # type: ignore[assignment]
        self.alive = False
        self.crash_count = 0
        self.restart_count = 0
        self.accounting = ComputeAccounting()
        self._subscriptions: list[Subscription] = []
        self._timers: list[Timer] = []
        self._publishers: Dict[str, Publisher] = {}

    # ------------------------------------------------------------- lifecycle
    def attach(self, graph: "NodeGraph") -> None:
        """Bind this node to its graph (called by ``NodeGraph.add_node``)."""
        self.graph = graph

    def start(self) -> None:
        """Bring the node up and run :meth:`on_start`."""
        self.alive = True
        self.on_start()

    def shutdown(self) -> None:
        """Tear the node down: cancel timers, drop subscriptions.

        The cleanup also runs for a crashed (already not-alive) node so that a
        subsequent restart does not leave duplicate subscriptions behind.
        """
        if self.alive:
            self.on_shutdown()
        for sub in self._subscriptions:
            sub.shutdown()
        for timer in self._timers:
            timer.cancel()
        self._subscriptions.clear()
        self._timers.clear()
        self._publishers.clear()
        self.alive = False

    def restart(self) -> None:
        """Restart after a crash: shutdown, then start again."""
        self.shutdown()
        self.restart_count += 1
        self.start()

    def on_start(self) -> None:
        """Set up publishers, subscriptions, timers and services."""

    def on_shutdown(self) -> None:
        """Hook for subclasses needing teardown logic."""

    # ----------------------------------------------------------- primitives
    def create_publisher(self, topic: str, msg_type: Type[Message]) -> Publisher:
        """Create (or reuse) a publisher for ``topic``."""
        if topic in self._publishers:
            return self._publishers[topic]
        self.graph.topic_bus.advertise(topic, msg_type)
        publisher = Publisher(self, topic, msg_type)
        self._publishers[topic] = publisher
        return publisher

    def create_subscription(
        self, topic: str, msg_type: Type[Message], callback: Callable[[Any], None]
    ) -> Subscription:
        """Subscribe ``callback`` to ``topic``."""
        subscription = Subscription(self, topic, msg_type, callback)
        self.graph.topic_bus.subscribe(topic, msg_type, subscription._dispatch)
        self._subscriptions.append(subscription)
        return subscription

    def create_timer(
        self, period: float, callback: Callable[[], None], offset: float = 0.0
    ) -> Timer:
        """Create a periodic timer firing every ``period`` simulated seconds."""
        if period <= 0:
            raise ValueError(f"timer period must be positive, got {period}")
        timer = Timer(
            node=self,
            period=period,
            callback=callback,
            next_fire=self.graph.clock.now + offset + period,
            offset=offset,
        )
        self._timers.append(timer)
        self.graph.executor.register_timer(timer)
        return timer

    def advertise_service(self, name: str, handler: Callable[[Any], Any]):
        """Advertise a service handled by this node."""
        return self.graph.service_bus.advertise(name, self._guard_service(handler))

    def service_proxy(self, name: str):
        """Create a client proxy for a service."""
        return self.graph.service_bus.proxy(name)

    # ------------------------------------------------------------ accounting
    def charge_compute(self, seconds: float, category: str = "compute") -> None:
        """Account ``seconds`` of modelled kernel execution time."""
        self.accounting.charge(seconds, category)

    # -------------------------------------------------------------- guarding
    def _run_guarded(self, callback: Callable[..., Any], *args: Any) -> Any:
        """Run a callback, converting :class:`NodeCrashError` into a crash."""
        try:
            return callback(*args)
        except NodeCrashError:
            self.crash_count += 1
            self.alive = False
            self.graph.report_crash(self)
            return None

    def _guard_service(self, handler: Callable[[Any], Any]) -> Callable[[Any], Any]:
        return _GuardedServiceHandler(self, handler)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "down"
        return f"<Node {self.name} ({state})>"
