#!/usr/bin/env python3
"""End-to-end smoke test for the hiergat_serve binary.

Usage: serve_smoke_test.py SERVER_BINARY CHECKPOINT

First checks that bad command lines (a non-numeric, negative or
out-of-range integer flag, the unknown flags --quantize and
--max_per_connection) exit with code 2 and the usage text instead of
starting a server. Then starts the server on an ephemeral port with
CHECKPOINT published as model "smoke", probes the HTTP shim (/healthz, /readyz, /metrics), sends SIGTERM, and
asserts a clean graceful drain (exit code 0 with the drain banner on
stdout). Stdlib-only on purpose — this is the "does the shipped binary
actually serve" gate for the ci workflow preset, not a protocol test
(tests/serve_test.cc covers the wire format in-process).
"""

import re
import signal
import socket
import subprocess
import sys

# Flag sets the binary must refuse with exit code 2 before it binds.
BAD_FLAGS = [
    ["--port=abc"],
    ["--port=70000"],
    ["--threads=x"],
    ["--threads=-1"],
    ["--threads=100000"],
    ["--quantize"],
    ["--max_per_connection=4"],
]


def http_get(port, path):
    """One-shot HTTP/1.0-style GET; returns the raw response text."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks).decode(errors="replace")


def fail(message, server=None):
    print(f"FAIL: {message}", file=sys.stderr)
    if server is not None:
        server.kill()
        out, _ = server.communicate(timeout=10)
        print("--- server output ---", file=sys.stderr)
        print(out, file=sys.stderr)
    return 1


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, checkpoint = argv[1], argv[2]

    for flags in BAD_FLAGS:
        command = [binary, f"--model=smoke={checkpoint}"] + flags
        try:
            result = subprocess.run(command, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT, text=True,
                                    timeout=30)
        except subprocess.TimeoutExpired:
            return fail(f"{flags} did not exit within 30 s")
        if result.returncode != 2 or "usage:" not in result.stdout:
            return fail(f"{flags}: want exit code 2 with usage, got "
                        f"{result.returncode}:\n{result.stdout}")

    server = subprocess.Popen(
        [binary, "--port=0", f"--model=smoke={checkpoint}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        # The serving banner is printed (and flushed) once the listener
        # is bound; the ephemeral port is in it.
        port = None
        for line in server.stdout:
            match = re.search(r"serving on [\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            return fail("server exited before printing the serving banner",
                        server)

        readyz = http_get(port, "/readyz")
        if "200 OK" not in readyz or "ready" not in readyz:
            return fail(f"/readyz not ready:\n{readyz}", server)
        healthz = http_get(port, "/healthz")
        if "200 OK" not in healthz:
            return fail(f"/healthz unhealthy:\n{healthz}", server)
        metrics = http_get(port, "/metrics")
        if "hiergat_serve_connections" not in metrics:
            return fail(f"/metrics missing serve counters:\n{metrics[:500]}",
                        server)

        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=30)
        if server.returncode != 0:
            return fail(f"exit code {server.returncode} after SIGTERM:\n{out}")
        if "draining" not in out or "served" not in out:
            return fail(f"graceful-drain banner missing from:\n{out}")
    finally:
        if server.poll() is None:
            server.kill()

    print(f"OK: served on port {port}, drained cleanly on SIGTERM")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
