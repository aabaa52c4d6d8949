"""Analysis-as-a-service: the resident session daemon.

The batch pipeline (P1 collection → P1.5 relevance → P2 path-sensitive
solving) pays process startup, module compile, and cache
deserialization on every CLI invocation, even when the incremental
engine makes the analysis itself nearly free.  This package keeps all
of that resident:

* :class:`~.store.ModuleTable` — the compiled modules, kept live, one
  per filename, and reused in place while the file is unchanged;
* :class:`~.store.ResidentStore` — an in-memory object store speaking
  the :class:`~repro.incremental.store.CacheStore` surface, so the
  per-entry P2 outcomes (P1.5 skip verdicts included) stay in RAM
  across requests;
* :class:`~.session.Session` — ``PATA.analyze`` refactored into a
  reusable object owning one module table and one resident store:
  repeated ``analyze()`` calls are warm-cache runs with byte-identical
  reports;
* :class:`~.daemon.PataServer` — a line-delimited-JSON socket daemon
  (unix socket or localhost TCP) with a FIFO request queue, request
  coalescing, per-request timeouts, and clean SIGTERM drain;
* :class:`~.watch.WatchLoop` — a stat-poll watcher that re-analyzes
  exactly the dirtied fingerprint closure on file change;
* :class:`~.client.ServeClient` — the tiny client the ``submit`` CLI
  subcommand and the tests use.
"""

from .client import ServeClient
from .daemon import PataServer
from .session import Session
from .store import ResidentStore
from .watch import WatchLoop

__all__ = ["PataServer", "ResidentStore", "ServeClient", "Session", "WatchLoop"]
