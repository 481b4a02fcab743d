"""``query-serve``: the query daemon answering a closed-loop request mix.

Set-up starts ``python -m repro.service.daemon`` as its own process
over the ``bench`` europe2013 scenario (default options: one worker, no
disk cache, identity verification on) and waits until it answers
``/health``; that start-up builds the scenario, exports the
reachability artifact, mmap-loads it back and verifies it.  The
benchmark process is the only client: one keep-alive connection, one
window in flight (a closed loop with one client), no extra threads.

A round is :data:`MIX` requests: point lookups (``has_link``,
``links_of``) over the artifact's members and a few bulk endpoints
whose large JSON payloads make encoding cost visible.  One op is a
window of :data:`WINDOW` requests pipelined in one write, timed from
the write until the last byte of its answers has arrived.  An untimed
first round records every window's answers and their exact bytes, so
a timed window waits in the kernel for that many bytes and parses
nothing.  Parsing while the daemon served cost 15% of a window, and
over eight seeds run alternately with and without it the median
window spread 24% (IQR) with it against 15% without.  Every window of a
round has the same make-up (see :func:`request_mix`); with windows of
a seeded make-up, the share of windows without a bulk request followed
the seed and the median fell on either side of it.  Single ping-pong
requests (about 0.1 ms each) moved by a quarter between runs on the
reference machine, and so did the daemon's CPU time per request;
windows amortise the per-request wake-ups and halve that spread.

The traced run (:func:`ledger`) performs the daemon's warm-up in
process through :func:`repro.service.daemon.warm_service` and times
``QueryService.dispatch`` and ``json.dumps`` per endpoint over the same
request mix; the rest of an HTTP request's latency is transport and
asyncio.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from measure import (SRC, WORK, Outcome, add_links, cpu_seconds,
                     peak_rss_mb)

SIZE = "bench"
SCENARIO = "europe2013"
SETUPS = 3
#: requests per round, by endpoint.
MIX = {"has_link": 600, "links_of": 380, "table2": 7, "peer_counts": 7,
       "member_densities": 6}
#: requests pipelined per op.
WINDOW = 50
#: windows per round; each holds one bulk request.
WINDOWS = sum(MIX.values()) // WINDOW
BULK = ("table2", "peer_counts", "member_densities")
assert WINDOWS * WINDOW == sum(MIX.values()) \
    and sum(MIX[endpoint] for endpoint in BULK) == WINDOWS \
    and MIX["has_link"] % WINDOWS == MIX["links_of"] % WINDOWS == 0
READY_TIMEOUT_S = 60.0


class Client:
    """One blocking keep-alive HTTP/1.1 connection (GET only)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buffer += chunk

    def get(self, target: str) -> Tuple[int, bytes]:
        """Send one request; return ``(status, raw body)``."""
        status, body, _ = self.get_many([target])[0]
        return status, body

    def get_many(self, targets: List[str]) -> List[Tuple[int, bytes, bytes]]:
        """Pipeline *targets* in one write; return each response as
        ``(status, body, every byte of the response)``."""
        self.sock.sendall(pipelined(targets))
        return [self._response() for _ in targets]

    def exchange(self, request: bytes, size: int) -> bytes:
        """Write *request*; return the next *size* bytes received.

        The benchmark waits in the kernel until they have all come, so
        it takes no CPU from the daemon while a window is served.  An
        answer shorter than *size* ends in the socket's timeout.
        """
        assert not self.buffer
        self.sock.sendall(request)
        received = bytearray()
        while len(received) < size:
            chunk = self.sock.recv(size - len(received), socket.MSG_WAITALL)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            received += chunk
        return bytes(received)

    def _response(self) -> Tuple[int, bytes, bytes]:
        while b"\r\n\r\n" not in self.buffer:
            self._fill()
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buffer) < length:
            self._fill()
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return status, body, head + b"\r\n\r\n" + body


def pipelined(targets: List[str]) -> bytes:
    """One write carrying a GET request for every target."""
    return b"".join(f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n"
                    .encode("latin-1") for target in targets)


# -- the daemon process --------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_daemon(artifact_root: Path) -> Tuple[subprocess.Popen, int, float]:
    """Start the daemon; returns ``(process, port, seconds to ready)``."""
    port = _free_port()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service.daemon",
         "--scenario", SCENARIO, "--size", SIZE, "--port", str(port),
         "--artifact-root", str(artifact_root)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    try:
        while True:
            if process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {process.returncode}")
            try:
                client = Client(port)
            except OSError:
                if time.perf_counter() - started > READY_TIMEOUT_S:
                    raise RuntimeError("daemon did not start listening")
                time.sleep(0.01)
                continue
            try:
                status, _ = client.get("/health")
            finally:
                client.close()
            if status == 200:
                return process, port, time.perf_counter() - started
    except BaseException:
        stop_daemon(process)
        raise


def stop_daemon(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


# -- the request mix -----------------------------------------------------------


def request_mix(handle, seed: int) -> List[Tuple[str, str, tuple]]:
    """One round: ``(endpoint, target, params)``, :data:`WINDOW` at a
    time.

    Every window has the same make-up: its share of the point lookups
    and one bulk request, in a seeded order.  The ``links_of`` members
    are drawn, sorted by answer size and dealt to the windows back and
    forth, so that every window carries about the same payload.  Half
    the ``has_link`` pairs are drawn from a member's own peers, so both
    answers occur; members are every AS in any IXP plane.
    """
    rng = random.Random(seed)
    members = sorted({asn for plane in handle.matrix.planes.values()
                      for asn in plane.members})
    base = f"/q/{SCENARIO}"
    windows: List[list] = [[] for _ in range(WINDOWS)]
    for index in range(MIX["has_link"]):
        a = rng.choice(members)
        peers = handle.links_of(a)
        b = rng.choice(peers) if peers and rng.random() < 0.5 \
            else rng.choice(members)
        windows[index % WINDOWS].append(
            ("has_link", f"{base}/has_link?a={a}&b={b}", (a, b)))
    asked = sorted((rng.choice(members) for _ in range(MIX["links_of"])),
                   key=lambda asn: len(handle.links_of(asn)))
    for index, asn in enumerate(asked):
        lap, slot = divmod(index, WINDOWS)
        windows[slot if lap % 2 == 0 else WINDOWS - 1 - slot].append(
            ("links_of", f"{base}/links_of?asn={asn}", (asn,)))
    bulk = [endpoint for endpoint in BULK for _ in range(MIX[endpoint])]
    rng.shuffle(bulk)
    for window, endpoint in zip(windows, bulk):
        window.append((endpoint, f"{base}/{endpoint}", ()))
    requests = []
    for window in windows:
        rng.shuffle(window)
        requests.extend(window)
    return requests


def _check_answers(client: Client, handle, answers) -> Tuple[int, set]:
    """Check every recorded answer; returns ``(wrong answers, links)``.

    ``links_of`` is asked again for every member after the timed loop.
    The union of those answers must equal the link set of the artifact
    loaded apart from the daemon; each ``has_link`` answer must agree
    with ``links_of`` in both directions (symmetry), every timed
    ``links_of`` answer must equal the member's final answer, peer
    counts must be the ``links_of`` lengths, and the bulk endpoints
    must match the separately loaded artifact.
    """
    members = sorted({asn for plane in handle.matrix.planes.values()
                      for asn in plane.members})
    peers: Dict[int, set] = {}
    union = set()
    for asn in members:
        status, body = client.get(f"/q/{SCENARIO}/links_of?asn={asn}")
        if status != 200:
            return len(answers), union
        peers[asn] = set(json.loads(body)["peers"])
        union.update((min(asn, p), max(asn, p)) for p in peers[asn])
    if union != {(int(a), int(b)) for a, b in handle.all_links}:
        return len(answers), union
    densities = {ixp: {str(asn): value for asn, value in per.items()}
                 for ixp, per in handle.member_densities().items()}
    counts = {str(asn): len(p) for asn, p in peers.items() if p}
    wrong = 0
    for endpoint, params, payload in answers:
        if endpoint == "has_link":
            a, b = params
            ok = payload["has_link"] == (b in peers.get(a, ())) \
                == (a in peers.get(b, ()))
        elif endpoint == "links_of":
            ok = set(payload["peers"]) == peers.get(params[0], set())
        elif endpoint == "peer_counts":
            ok = payload["counts"] == counts
        elif endpoint == "table2":
            ok = payload["rows"] == handle.table2
        else:
            ok = payload["densities"] == densities
        wrong += not ok
    return wrong, union


def run(seed: int, seconds: float) -> Outcome:
    from repro.scenarios.workloads import scenario_run
    from repro.service.artifact import load_matrix

    work = WORK / f"serve-{os.getpid()}"
    process = None
    try:
        setups = []
        for attempt in range(SETUPS):
            if process is not None:
                stop_daemon(process)
            process, port, ready_s = start_daemon(work / f"a{attempt}")
            setups.append(ready_s)
        outcome = Outcome(setup_s=statistics.median(setups))
        handle = load_matrix(work / f"a{SETUPS - 1}" / f"{SCENARIO}-{SIZE}")
        requests = request_mix(handle, seed)

        client = Client(port)
        # An untimed first round gives every window's answers and its
        # exact bytes; each timed window must repeat them byte for byte.
        windows = [requests[start:start + WINDOW]
                   for start in range(0, len(requests), WINDOW)]
        writes, expected, first = [], [], []
        first_ok = True
        for window in windows:
            targets = [target for _, target, _ in window]
            responses = client.get_many(targets)
            first_ok &= all(status == 200 for status, _, _ in responses)
            first.extend(body for _, body, _ in responses)
            writes.append(pipelined(targets))
            expected.append(b"".join(raw for _, _, raw in responses))
        # The client's own garbage collections stay out of the windows.
        gc.collect()
        gc.freeze()
        cpu_before = cpu_seconds(process.pid)
        measuring = time.perf_counter()
        while time.perf_counter() - measuring < seconds:
            for write, want in zip(writes, expected):
                outcome.attempted += 1
                began = time.perf_counter()
                got = client.exchange(write, len(want))
                outcome.op_seconds.append(time.perf_counter() - began)
                if got != want:
                    outcome.failed += 1
                    outcome.wrong += 1
        outcome.cpu_seconds = cpu_seconds(process.pid) - cpu_before
        answers = [(endpoint, params, json.loads(body)) for
                   (endpoint, _, params), body in zip(requests, first)]
        wrong, served = _check_answers(client, handle, answers) \
            if first_ok else (len(answers), set())
        client.close()
        if wrong:
            # Every later round repeated the wrong answer.
            outcome.wrong += outcome.attempted - outcome.failed
            outcome.failed = outcome.attempted
        outcome.peak_rss_mb = peak_rss_mb(process.pid)
        truth = scenario_run(SIZE, scenario=SCENARIO).artifact(
            "topology").all_mlp_links()
        add_links(outcome, served, truth)
        return outcome
    finally:
        if process is not None:
            stop_daemon(process)
        shutil.rmtree(work, ignore_errors=True)


def ledger(seed: int, seconds: float, tracer):
    """The traced run: in-process warm-up, then dispatch and encode.

    Returns ``(untraced, traced)`` outcomes of the in-process request
    loop (half of *seconds* each); set-up spans sit under a ``setup``
    root, each request under an ``op`` root with one dispatch and one
    encode span named after its endpoint.
    """
    from repro.service.daemon import warm_service

    work = WORK / f"ledger-{os.getpid()}"
    tracer.install()
    try:
        with tracer.root("setup"):
            service, directories = warm_service([SCENARIO], size=SIZE,
                                                artifact_root=work)
        artifact_bytes = sum(path.stat().st_size
                             for path in directories[0].iterdir())
        requests = request_mix(service.handles[SCENARIO], seed)
        halves = []
        for traced in (False, True):
            outcome = Outcome(setup_s=0.0)
            response_bytes = 0
            measuring = time.perf_counter()
            while time.perf_counter() - measuring < seconds / 2:
                for endpoint, target, _ in requests:
                    outcome.attempted += 1
                    started = time.perf_counter()
                    if traced:
                        with tracer.root("op"):
                            with tracer.span(f"service.daemon.dispatch.{endpoint}"):
                                status, payload = service.dispatch(target)
                            with tracer.span(f"service.daemon.encode.{endpoint}"):
                                body = json.dumps(payload).encode("utf-8")
                    else:
                        status, payload = service.dispatch(target)
                        body = json.dumps(payload).encode("utf-8")
                    outcome.op_seconds.append(time.perf_counter() - started)
                    response_bytes += len(body)
                    if status != 200:
                        outcome.failed += 1
                        outcome.wrong += 1
            outcome.extras = {
                "service.artifact.bytes": artifact_bytes,
                "service.daemon.response_bytes":
                    response_bytes / outcome.attempted,
            }
            halves.append(outcome)
        return halves[0], halves[1]
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
