"""Where the compile-service daemon's shard workers come from.

Workers fork from one ``multiprocessing`` forkserver that has already
imported :data:`PRELOAD`, so a fresh or rebuilt worker is ready in tens
of milliseconds instead of re-importing the compiler for most of a
second.  The forkserver itself is launched with exec and only its own
file descriptors, so no worker inherits the daemon's listening socket.
Workers see the environment the forkserver had when it started.

This module is light on purpose: ``repro serve`` calls :func:`start`
before it imports the daemon, so the forkserver's preload and the
daemon's own imports run side by side.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import forkserver
from multiprocessing.context import ForkServerContext

#: Modules the forkserver imports once, before it forks any worker.
#: ``scipy.special`` is listed because the daemon itself never loads it.
PRELOAD = ("repro.service.server", "scipy.special")


def context() -> ForkServerContext:
    """The start context of shard workers: a forkserver preloading
    :data:`PRELOAD`."""
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(list(PRELOAD))
    return ctx


def start() -> None:
    """Launch the forkserver now.  Returns at once; the preload runs in
    the forkserver while the caller carries on."""
    context()
    forkserver.ensure_running()
