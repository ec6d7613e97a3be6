"""The calibration references: fixed work of the same make-up as what the
benchmark times, sharing no code with `repro` (so a change to the program
never moves them).

* The *request op*: this file run as a tiny threaded HTTP/1.0-style server
  doing a fixed amount of Python work per request (a connection per
  request, a thread per connection, allocation-heavy work behind it). The
  driver times one request next to every timed round.
* The *lifecycle op*: this file run with ``--lifecycle``: interpreter
  start, imports, a 100k-object graph built, pickled and loaded back, and
  128 MB of memory copied. The driver times one beside every spawn ->
  banner, ``--recover`` and SIGTERM -> exit.

Reported times are scaled by ``reference / measured``. The references are
shaped like the measured ops on purpose: on this shared 2-vCPU box a bad
quarter-hour stretches a recovery 1.45x and a page read 1.3x, while a
register-only spin loop stretches 1.05x, so only a reference with the same
mix of bytecode, allocation, memory traffic and process start cancels it.
"""

from __future__ import annotations

import json
import pickle
import socketserver
import sys

_PAGE = {
    "user": 1,
    "entries": [
        {"seq": i, "post_id": i * 7, "author": i % 13, "timestamp": i * 0.37}
        for i in range(40)
    ],
}
_REPLY = b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok"


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        self.request.recv(65536)
        for _ in range(12):
            json.loads(json.dumps(_PAGE))
        self.request.sendall(_REPLY)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def lifecycle() -> None:
    graph = [{"seq": i, "receivers": [i] * 4} for i in range(100_000)]
    pickle.loads(pickle.dumps(graph))
    block = bytearray(32 << 20)
    for _ in range(4):
        bytes(block)


if __name__ == "__main__":
    if sys.argv[1:] == ["--lifecycle"]:
        lifecycle()
        sys.exit(0)
    with _Server(("127.0.0.1", 0), _Handler) as server:
        print(server.server_address[1], flush=True)
        server.serve_forever()
