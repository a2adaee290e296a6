"""Named topics with one-to-many publish/subscribe delivery.

ROS topics are the one-to-many transport between PPC kernels; the MAVFI fault
injector and the anomaly detection node both tap into topics.  The
:class:`TopicBus` keeps a registry of topics, their message types and their
subscriber callbacks, and offers *taps*: interceptors that may observe or
rewrite a message before it is delivered.  Fault injection into inter-kernel
states (Section III-B of the paper) and anomaly detection are implemented as
taps and subscriptions respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Type

from repro.rosmw.exceptions import TopicTypeError
from repro.rosmw.message import Message

# A tap receives (topic_name, message) and returns the (possibly rewritten)
# message, or None to drop it.
Tap = Callable[[str, Message], Optional[Message]]
Callback = Callable[[Message], None]


@dataclass
class _Topic:
    """Internal record for one named topic."""

    name: str
    msg_type: Type[Message]
    callbacks: List[Callback] = field(default_factory=list)
    taps: List[Tap] = field(default_factory=list)
    publish_count: int = 0
    last_message: Optional[Message] = None


class TopicBus:
    """Registry and delivery engine for all topics of one node graph."""

    def __init__(self) -> None:
        self._topics: Dict[str, _Topic] = {}

    # ------------------------------------------------------------------ setup
    def advertise(self, name: str, msg_type: Type[Message]) -> None:
        """Register ``name`` as a topic carrying ``msg_type`` messages.

        The base :class:`Message` type acts as a wildcard: subscribing with it
        never conflicts with a concrete message type (used by monitoring nodes
        that listen to several heterogeneous topics).
        """
        existing = self._topics.get(name)
        if existing is None:
            self._topics[name] = _Topic(name=name, msg_type=msg_type)
            return
        if existing.msg_type is msg_type or msg_type is Message:
            return
        if existing.msg_type is Message:
            existing.msg_type = msg_type
            return
        raise TopicTypeError(
            f"topic '{name}' already carries {existing.msg_type.__name__}, "
            f"cannot also carry {msg_type.__name__}"
        )

    def subscribe(
        self, name: str, msg_type: Type[Message], callback: Callback
    ) -> None:
        """Subscribe ``callback`` to topic ``name``."""
        self.advertise(name, msg_type)
        self._topics[name].callbacks.append(callback)

    def unsubscribe(self, name: str, callback: Callback) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        topic = self._topics.get(name)
        if topic is not None and callback in topic.callbacks:
            topic.callbacks.remove(callback)

    def add_tap(self, name: str, tap: Tap, prepend: bool = False) -> None:
        """Install an interceptor on topic ``name`` (creates the topic lazily).

        Taps run in registration order; ``prepend=True`` places the tap ahead
        of existing ones, which the fault injector uses so that its corruption
        happens *before* the anomaly detection node inspects the message.
        """
        if name not in self._topics:
            self._topics[name] = _Topic(name=name, msg_type=Message)
        if prepend:
            self._topics[name].taps.insert(0, tap)
        else:
            self._topics[name].taps.append(tap)

    def remove_tap(self, name: str, tap: Tap) -> None:
        """Remove an interceptor (no-op if absent)."""
        topic = self._topics.get(name)
        if topic is not None and tap in topic.taps:
            topic.taps.remove(tap)

    # --------------------------------------------------------------- delivery
    def publish(self, name: str, message: Message) -> Optional[Message]:
        """Publish ``message`` on topic ``name`` and deliver it synchronously.

        Returns the message actually delivered (after taps), or ``None`` if a
        tap dropped it.  Delivery is synchronous and in subscription order,
        which keeps campaigns deterministic.
        """
        topic = self._topics.get(name)
        if topic is None:
            # Publishing on an unknown topic is legal in ROS; nobody listens.
            return message
        if topic.msg_type is not Message and not isinstance(message, topic.msg_type):
            raise TopicTypeError(
                f"topic '{name}' expects {topic.msg_type.__name__}, "
                f"got {type(message).__name__}"
            )
        delivered: Optional[Message] = message
        for tap in list(topic.taps):
            delivered = tap(name, delivered)
            if delivered is None:
                return None
        topic.publish_count += 1
        topic.last_message = delivered
        for callback in list(topic.callbacks):
            callback(delivered)
        return delivered

    # ------------------------------------------------------------- inspection
    def topics(self) -> List[str]:
        """Names of all known topics."""
        return sorted(self._topics)

    def publish_count(self, name: str) -> int:
        """Number of messages delivered on ``name`` (0 for unknown topics)."""
        topic = self._topics.get(name)
        return 0 if topic is None else topic.publish_count

    def last_message(self, name: str) -> Optional[Message]:
        """The most recently delivered message on ``name`` (or ``None``)."""
        topic = self._topics.get(name)
        return None if topic is None else topic.last_message

    def subscriber_count(self, name: str) -> int:
        """Number of callbacks subscribed to ``name``."""
        topic = self._topics.get(name)
        return 0 if topic is None else len(topic.callbacks)

    def has_readers(self, name: str) -> bool:
        """Whether a message published on ``name`` reaches a subscriber or a tap."""
        topic = self._topics.get(name)
        return topic is not None and bool(topic.callbacks or topic.taps)

    def reset_statistics(self) -> None:
        """Zero the per-topic publish counters (between missions)."""
        for topic in self._topics.values():
            topic.publish_count = 0
            topic.last_message = None
