"""The resident analysis daemon: socket listener, FIFO queue, scheduler.

Architecture (all in one process)::

    accept thread ──► connection threads ──► FIFO request queue
                                                   │
    watch thread (stat-poll) ──► internal jobs ────┤
                                                   ▼
                                         scheduler thread
                                     (one analysis at a time,
                                      coalescing identical jobs)
                                                   │
                                                   ▼
                                  Session (resident cache, see session.py)

The scheduler is deliberately single-lane: the session's resident store
is shared mutable state, and the analysis itself parallelizes
internally (``--workers``), so one analysis at a time keeps every
response byte-identical to a one-shot CLI run without any cross-request
locking inside the engine.  Fairness comes from the FIFO queue;
throughput from residency (warm requests are near-instant) and from
**coalescing**: when the scheduler dequeues a check job it sweeps the
queue for later requests with the same job key (same op, paths, and
overlay content — they would run the identical analysis over identical
cache entries) and answers them all from one run.

Robustness contract:

* a request that raises a user-level error (parse error, missing file)
  gets an error response; the session is kept (if the error came after
  its modules were linked, without its module table);
* a request that raises anything else, or exceeds the per-request
  wall-clock timeout, gets an error response **and the session is
  replaced with a fresh one** — a half-mutated resident context must
  never serve the next request (graceful degradation: correctness is
  kept, warmth is lost).  A timed-out analysis thread is left to finish
  against the abandoned session object, whose store nothing else reads;
* ``shutdown`` (or SIGTERM via :meth:`PataServer.request_shutdown`)
  stops the listener, drains every already-queued request with a normal
  response, then exits the scheduler loop.
"""

from __future__ import annotations

import collections
import logging
import os
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..heap import resident_stats
from .protocol import ProtocolError, decode, encode, job_key, validate_request
from .session import Session
from .watch import WatchLoop

log = logging.getLogger("repro.serve")


class RequestTimeout(Exception):
    """A request exceeded the server's per-request wall-clock budget."""


class _Connection:
    """One accepted client socket plus a write lock (several queued
    requests from one client may answer from different scheduler
    iterations)."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.lock = threading.Lock()

    def send(self, payload: dict) -> None:
        try:
            with self.lock:
                self.sock.sendall(encode(payload))
        except OSError:
            pass  # client went away; its response has nowhere to go

    def close(self) -> None:
        for closer in (self.rfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class _Request:
    """One queued unit of work."""

    __slots__ = ("conn", "payload", "op", "key", "enqueued")

    def __init__(self, conn: Optional[_Connection], payload: dict, op: str,
                 key: Optional[str]):
        self.conn = conn          # None for internal (watch) jobs
        self.payload = payload
        self.op = op
        self.key = key            # None for status/shutdown
        self.enqueued = time.monotonic()

    def respond(self, body: dict) -> None:
        if "id" in self.payload:
            body = {"id": self.payload["id"], **body}
        if self.conn is not None:
            self.conn.send(body)


class PataServer:
    """A resident analysis daemon serving one root file set.

    ``socket_path`` selects a unix socket; otherwise a localhost TCP
    socket on ``port`` (0 = ephemeral; read :attr:`address` after
    :meth:`start`).  The server never listens on non-loopback
    interfaces — this is a local analysis service, not a network one.
    """

    def __init__(
        self,
        roots: Sequence[str],
        session: Optional[Session] = None,
        config=None,
        checker_spec: str = "default",
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: Optional[float] = None,
        watch: bool = False,
        poll_interval: float = 0.5,
    ):
        self.roots = [str(r) for r in roots]
        self._make_session = lambda: Session(config=config, checker_spec=checker_spec)
        self.session = session if session is not None else self._make_session()
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.watch = watch
        self.poll_interval = poll_interval

        self._queue: collections.deque = collections.deque()
        self._cond = threading.Condition()
        self._stopping = False        # stop accepting; drain and exit
        self._running = False         # start() has been called
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._connections: List[_Connection] = []
        self._started = time.monotonic()
        # observability counters (status endpoint)
        self.requests_served = 0
        self.requests_coalesced = 0
        self.requests_timed_out = 0
        self.requests_failed = 0
        self.sessions_reset = 0
        self.watch_runs = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> str:
        """Human/CLI-pasteable address of the bound listener."""
        if self.socket_path:
            return self.socket_path
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        """Bind, listen, and start the accept / scheduler / watch
        threads.  Returns once the server is accepting."""
        if self.socket_path:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.socket_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            self.port = listener.getsockname()[1]
        listener.listen(64)
        self._listener = listener
        self._running = True
        for name, target in (
            ("serve-accept", self._accept_loop),
            ("serve-scheduler", self._scheduler_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        if self.watch:
            thread = threading.Thread(
                target=self._watch_loop, name="serve-watch", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        log.info("serving %d root file(s) on %s", len(self.roots), self.address)

    def serve_forever(self) -> None:
        """Start (if needed) and block until the scheduler drains after a
        ``shutdown`` request or :meth:`request_shutdown`.  Joins in short
        slices so the main thread keeps receiving signals (the CLI's
        SIGTERM handler calls :meth:`request_shutdown`)."""
        if not self._running:
            self.start()
        scheduler = next(
            (t for t in self._threads if t.name == "serve-scheduler"), None
        )
        while scheduler is not None and scheduler.is_alive():
            scheduler.join(0.5)

    def request_shutdown(self) -> None:
        """Thread/signal-safe shutdown trigger: enqueue a synthetic
        ``shutdown`` job, so everything already queued drains first
        (the SIGTERM handler calls this)."""
        self._enqueue(_Request(None, {"op": "shutdown"}, "shutdown", None))

    def close(self) -> None:
        self._close_listener()
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for conn in list(self._connections):
            conn.close()
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is None:
            return
        # shutdown() before close(): the accept thread is blocked inside
        # accept(), whose in-flight syscall keeps the kernel socket alive
        # past close() — clients could still connect.  shutdown() tears
        # down the listen queue immediately and wakes the blocked accept.
        for stop in (lambda: listener.shutdown(socket.SHUT_RDWR),
                     listener.close):
            try:
                stop()
            except OSError:
                pass

    # -- accept + connection threads ------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            listener = self._listener
            if listener is None:
                return
            try:
                sock, _ = listener.accept()
            except OSError:
                return  # listener closed: shutting down
            conn = _Connection(sock)
            self._connections.append(conn)
            thread = threading.Thread(
                target=self._connection_loop, args=(conn,),
                name="serve-conn", daemon=True,
            )
            thread.start()

    def _connection_loop(self, conn: _Connection) -> None:
        try:
            while True:
                line = conn.rfile.readline()
                if not line:
                    return
                try:
                    payload = decode(line)
                    op = validate_request(payload)
                except ProtocolError as exc:
                    conn.send({"ok": False, "error": str(exc)})
                    continue
                if self._stopping:
                    conn.send({"ok": False, "error": "server is shutting down",
                               **({"id": payload["id"]} if "id" in payload else {})})
                    continue
                key = None
                if op in ("check_module", "check_diff"):
                    key = job_key(op, self._paths_of(payload),
                                  payload.get("overlay"))
                self._enqueue(_Request(conn, payload, op, key))
        except (OSError, ValueError):
            return  # socket (or its buffered reader) closed under us
        finally:
            try:
                self._connections.remove(conn)
            except ValueError:
                pass
            conn.close()

    def _paths_of(self, payload: dict) -> List[str]:
        files = payload.get("files")
        if files:
            return list(files)
        return list(self.roots)

    def _enqueue(self, request: _Request) -> None:
        with self._cond:
            self._queue.append(request)
            self._cond.notify_all()

    # -- scheduler -------------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if not self._queue:
                    return  # stopping and drained
                request = self._queue.popleft()
                group = [request]
                if request.key is not None:
                    # Coalesce: sweep later queued requests that would
                    # run the identical analysis into this run.
                    rest = []
                    for other in self._queue:
                        if other.key == request.key:
                            group.append(other)
                        else:
                            rest.append(other)
                    if len(group) > 1:
                        self._queue = collections.deque(rest)
            if request.op == "shutdown":
                self._begin_drain(request)
                continue
            if request.op == "status":
                # Snapshot excludes this status request itself; count it
                # before responding so a client holding the response
                # never observes a counter missing its own request.
                body = {"ok": True, "op": "status", **self._status()}
                self.requests_served += 1
                request.respond(body)
                continue
            self._run_check_group(group)

    def _begin_drain(self, request: _Request) -> None:
        """Stop accepting, acknowledge the shutdown, keep draining: the
        loop exits once the queue (including requests that raced in
        before the listener closed) is empty."""
        self._close_listener()
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        body = {"ok": True, "op": "shutdown",
                "requests_served": self.requests_served}
        self.requests_served += 1
        request.respond(body)
        log.info("shutdown requested; draining %d queued request(s)",
                 len(self._queue))

    # -- check execution -------------------------------------------------------

    def _run_check_group(self, group: List[_Request]) -> None:
        request = group[0]
        paths = self._paths_of(request.payload)
        overlay = request.payload.get("overlay")
        dequeued = time.monotonic()
        try:
            result = self._run_with_timeout(
                lambda: self.session.analyze_paths(paths, overlay)
            )
        except RequestTimeout:
            self.requests_timed_out += 1
            self._degrade(f"request timed out after {self.request_timeout}s")
            self._respond_error(group, "timeout", timed_out=True)
            return
        except (ReproError, OSError, ValueError) as exc:
            # User-level failure (bad source, missing file): nothing it
            # left can poison later requests — compile errors happen
            # before any module is linked, a failure after that drops
            # the session's module table, and the store only publishes
            # on commit.  Report and move on.
            self.requests_failed += 1
            self._respond_error(group, f"{type(exc).__name__}: {exc}")
            return
        except Exception as exc:  # engine bug / corrupted residency
            self.requests_failed += 1
            self._degrade(f"analysis crashed: {type(exc).__name__}: {exc}")
            self._respond_error(group, f"{type(exc).__name__}: {exc}")
            return
        analysis_seconds = time.monotonic() - dequeued
        body = self._check_body(request, result, analysis_seconds, len(group))
        # Count before responding: a client holding its response must
        # never observe counters that don't include its own request.
        self.requests_served += len(group)
        self.requests_coalesced += len(group) - 1
        for member in group:
            wait = dequeued - member.enqueued
            per = dict(body)
            per["stats"] = dict(body["stats"], queue_wait_seconds=round(wait, 6))
            per["serve"] = dict(body["serve"], queue_wait_seconds=round(wait, 6))
            member.respond(per)
        if request.conn is None:  # internal watch job
            self.watch_runs += 1
            log.info(
                "watch: re-analyzed %d entr%s (%d cached), %d bug(s), %.3fs",
                result.stats.entries_reanalyzed,
                "y" if result.stats.entries_reanalyzed == 1 else "ies",
                result.stats.entries_cached, len(result.reports),
                analysis_seconds,
            )

    def _check_body(self, request: _Request, result, analysis_seconds: float,
                    group_size: int) -> dict:
        from ..cli import check_output_text

        stats = result.stats.to_dict()
        if not request.payload.get("per_entry"):
            stats.pop("per_entry", None)
        return {
            "ok": True,
            "op": request.op,
            "bugs": len(result.reports),
            "exit_code": 1 if result.reports else 0,
            "reports": [report.to_dict() for report in result.reports],
            "output": check_output_text(result),
            "stats": stats,
            "serve": {
                "analysis_seconds": round(analysis_seconds, 6),
                "coalesced": group_size - 1,
                "cache_hits": result.stats.cache_hits,
                "cache_misses": result.stats.cache_misses,
                "entries_cached": result.stats.entries_cached,
                "entries_reanalyzed": result.stats.entries_reanalyzed,
                "resident_cache_entries": result.stats.resident_cache_entries,
                "requests_served": result.stats.requests_served,
                "replayed": result.stats.request_replayed,
            },
        }

    def _respond_error(self, group: List[_Request], error: str,
                       timed_out: bool = False) -> None:
        for member in group:
            body = {"ok": False, "error": error}
            if timed_out:
                body["timed_out"] = True
            member.respond(body)

    def _run_with_timeout(self, fn):
        timeout = self.request_timeout
        if not timeout:
            return fn()
        box: dict = {}
        done = threading.Event()

        def target() -> None:
            try:
                box["result"] = fn()
            except BaseException as exc:  # rethrown in the scheduler
                box["error"] = exc
            finally:
                done.set()

        thread = threading.Thread(target=target, name="serve-analysis", daemon=True)
        thread.start()
        if not done.wait(timeout):
            raise RequestTimeout()
        if "error" in box:
            raise box["error"]
        return box["result"]

    def _degrade(self, reason: str) -> None:
        """Replace the session with a fresh context: the abandoned one
        (possibly still being mutated by a timed-out analysis thread)
        is never read again.  Its modules count as dropped once it is
        gone, so a later request thaws the heap and frees them."""
        log.warning("serve: %s; starting a fresh session (resident cache "
                    "dropped, results unaffected)", reason)
        self.session = self._make_session()
        self.sessions_reset += 1

    # -- status ----------------------------------------------------------------

    def _status(self) -> dict:
        occupancy = self.session.store.occupancy()
        with self._cond:
            depth = len(self._queue)
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "roots": len(self.roots),
            "queue_depth": depth,
            "requests_served": self.requests_served,
            "requests_coalesced": self.requests_coalesced,
            "requests_timed_out": self.requests_timed_out,
            "requests_failed": self.requests_failed,
            "sessions_reset": self.sessions_reset,
            "session_requests_served": self.session.requests_served,
            "session_replays_served": self.session.replays_served,
            "session_uptime_seconds": round(self.session.uptime_seconds(), 3),
            "resident_cache": occupancy,
            "resident_modules": len(self.session.modules),
            "heap": resident_stats(),
            "watch": self.watch,
            "watch_runs": self.watch_runs,
        }

    # -- watch ----------------------------------------------------------------

    def _watch_loop(self) -> None:
        loop = WatchLoop(self.roots, interval=self.poll_interval)
        while not self._stopping:
            changed = loop.wait_for_change(lambda: self._stopping)
            if not changed:
                return
            log.info("watch: %s changed", ", ".join(sorted(changed)))
            self._enqueue(_Request(None, {"op": "check_module"}, "check_module",
                                   job_key("check_module", self.roots, None)))
