"""Set-up and control of the real ``repro-teams serve`` process.

:func:`setup` is the span ``setup_s`` measures: build the warm indexes
of a generated network, save a snapshot, launch the server on a Unix
socket and wait for its first answered ping.  :class:`Server` then
speaks the admin ops, reads peak memory from ``/proc`` and shuts the
process down, checking its stderr for tracebacks.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import GAMMA

HERE = Path(__file__).resolve().parent
#: How long the server may take to bind its socket or to exit.
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


class HarnessError(RuntimeError):
    """The server could not be started, driven or stopped cleanly."""


@dataclass
class SetupTimes:
    index_build_s: float
    snapshot_save_s: float
    server_ready_s: float

    @property
    def total_s(self) -> float:
        return self.index_build_s + self.snapshot_save_s + self.server_ready_s


class Server:
    """One running ``serve --unix`` process."""

    def __init__(self, argv: list[str], sock: Path, stderr_path: Path, env: dict):
        self.sock = sock
        self.stderr_path = stderr_path
        self._stderr = stderr_path.open("wb")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=self._stderr, env=env
        )

    def wait_ready(self) -> None:
        """Block until the socket answers a ping."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise HarnessError(
                    f"server exited with {self.proc.returncode} before serving: "
                    + self.stderr_path.read_text(errors="replace")[-2000:]
                )
            if self.sock.exists():
                try:
                    if self.op({"op": "ping"}).get("ok"):
                        return
                except OSError:
                    pass
            if time.monotonic() > deadline:
                raise HarnessError("server never answered a ping")
            time.sleep(0.005)

    def op(self, message: dict) -> dict:
        """One admin op on a fresh connection."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(60.0)
            sock.connect(str(self.sock))
            sock.sendall(json.dumps(message).encode() + b"\n")
            data = b""
            while not data.endswith(b"\n"):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise HarnessError(f"no answer to {message['op']!r}")
                data += chunk
        return json.loads(data)

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the server and its forked pool workers."""
        pids = [self.proc.pid] + _forked_children(self.proc.pid)
        total_kb = 0
        for pid in pids:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> int:
        """SIGTERM, wait, and return the traceback count in stderr.

        Any traceback is also copied to this process's stderr.
        """
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise HarnessError("server did not exit after SIGTERM") from None
        finally:
            self._stderr.close()
        if code != 0:
            raise HarnessError(f"server exited with {code}")
        log = self.stderr_path.read_text(errors="replace")
        count = log.count("Traceback")
        if count:
            print(
                f"perfbench: server stderr holds {count} traceback(s), counted as "
                f"failures:\n{log[log.index('Traceback'):][-4000:]}",
                file=sys.stderr,
            )
        return count

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._stderr.close()


def _forked_children(pid: int) -> list[int]:
    """Children of ``pid`` running the same command line (pool workers)."""
    cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            ppid = int(stat[stat.rindex(")") + 2:].split()[1])
            if ppid == pid and (entry / "cmdline").read_bytes() == cmdline:
                children.append(int(entry.name))
        except (OSError, ValueError):
            continue  # exited while scanning
    return children


def server_env(root: Path, hash_seed: int) -> dict:
    """The environment of a process that serves or answers requests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def launch(
    root: Path,
    workload,
    snapshot: Path,
    sock: Path,
    stderr_path: Path,
    hash_seed: int,
    trace_dir: Path | None = None,
) -> Server:
    """Start ``serve`` for ``workload``; traced through the launcher if asked."""
    serve = ["serve", "--unix", str(sock), "--snapshot", str(snapshot),
             *workload.serve_args]
    if trace_dir is None:
        argv = [sys.executable, "-m", "repro.cli", *serve]
    else:
        argv = [sys.executable, str(HERE / "traced_serve.py"), str(trace_dir), *serve]
    server = Server(argv, sock, stderr_path, server_env(root, hash_seed))
    try:
        server.wait_ready()
    except BaseException:
        server.kill()
        raise
    return server


def setup(root: Path, network, workload, work: Path, hash_seed: int):
    """Warm indexes -> snapshot -> server answering ping; returns both + times.

    Also returns the build engine, whose indexes the caller inspects.
    """
    from repro.api import TeamFormationEngine

    work.mkdir(parents=True)
    t0 = time.perf_counter()
    engine = TeamFormationEngine(network)
    engine.search_oracle("sa-ca-cc", GAMMA)
    engine.raw_oracle()
    t1 = time.perf_counter()
    store = work / "store"
    engine.save_snapshot(store)
    t2 = time.perf_counter()
    server = launch(
        root, workload, store, work / "serve.sock", work / "stderr.log", hash_seed
    )
    t3 = time.perf_counter()
    return server, engine, store, SetupTimes(t1 - t0, t2 - t1, t3 - t2)
