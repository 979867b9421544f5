"""HTTP execution: ship payloads to a coordinator, no shared mount.

:class:`HttpBackend` is :class:`~repro.runner.backends.queue.QueueBackend`
pointed at a :class:`~repro.runner.transport.client.RemoteWorkQueue`
instead of a queue directory — the submitter logic (publish, poll,
opportunistic drain, crash recovery, poison surfacing) is inherited
unchanged, because both queues implement the same
:class:`~repro.runner.queue.TaskQueue` contract.  Any host that can
reach the ``repro coordinator`` URL can submit sweeps or drain them
with ``repro worker --coordinator URL``.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.runner.backends.queue import QueueBackend
from repro.runner.transport.client import RemoteWorkQueue


class HttpBackend(QueueBackend):
    """Execute payloads through an HTTP coordinator's work queue.

    Args:
        coordinator: the coordinator's base URL (or an already-built
            :class:`RemoteWorkQueue`).
        token: shared secret matching the coordinator's ``--token-file``.
        drain / timeout / worker / reuse_results: exactly as on
            :class:`QueueBackend`.
        poll_interval: idle sleep between polls — defaults higher than
            the file queue's (a poll is a network round-trip here).
    """

    name = "http"

    def __init__(
        self,
        coordinator: Union[RemoteWorkQueue, str],
        token: Optional[str] = None,
        drain: bool = True,
        timeout: Optional[float] = None,
        poll_interval: float = 0.2,
        worker: str = "submitter",
        reuse_results: bool = True,
    ):
        if not isinstance(coordinator, RemoteWorkQueue):
            coordinator = RemoteWorkQueue(coordinator, token=token)
        super().__init__(
            coordinator,
            drain=drain,
            timeout=timeout,
            poll_interval=poll_interval,
            worker=worker,
            reuse_results=reuse_results,
        )
