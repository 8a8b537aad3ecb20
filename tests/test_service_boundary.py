"""Property test of the protocol boundary: arbitrary JSON requests.

Any JSON object sent to a server — a local ``workers=0`` server and a
server over one shard alike — must be answered with one well-formed
envelope (``ok``, and on failure an ``ERR_*`` code from
:mod:`repro.service.protocol`) on a connection that stays usable. No
request may log a traceback, and none may cost the shard its place in
the ring. Only non-terminal verbs are sent (``shutdown`` is excluded).
Each server already holds one finished job, and the ``job`` field
often names it, so job verbs get past the id lookup.
"""

import io
import json
import logging
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aig.aiger import write_aag
from repro.analyze.schemas import FLEET_SCHEMA, SERVICE_REQUEST_KEYS
from repro.circuits import kogge_stone_adder, ripple_carry_adder
from repro.service import CecServer, ServiceClient, protocol

ERROR_CODES = frozenset(
    value for name, value in vars(protocol).items()
    if name.startswith("ERR_")
)

VERBS = sorted((protocol.VERBS | protocol.FLEET_VERBS) - {"shutdown"})

FIELDS = sorted(SERVICE_REQUEST_KEYS - {"verb", "job"}) + [
    "key", "result", "meta",
]

#: Stands for the id of the server's finished job.
KNOWN_JOB = object()

scalars = (
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
#: Request fields: each registry field independently present or not,
#: plus a few junk ones.
fields = st.builds(
    lambda known, junk, job: dict(junk, job=job, **known),
    st.fixed_dictionaries({}, optional={name: values for name in FIELDS}),
    st.dictionaries(st.text(max_size=6), values, max_size=2),
    st.just(KNOWN_JOB) | values,
)
junk_verbs = st.text(max_size=8).filter(
    lambda verb: verb not in protocol.VERBS | protocol.FLEET_VERBS
) | values.filter(lambda verb: not isinstance(verb, str))


def _aag_text(aig):
    buffer = io.StringIO()
    write_aag(aig, buffer)
    return buffer.getvalue()


class _Tracebacks(logging.Handler):
    def __init__(self):
        logging.Handler.__init__(self)
        self.records = []

    def emit(self, record):
        if record.exc_info or record.levelno >= logging.ERROR:
            self.records.append(record)


class _Connection:
    def __init__(self, address, job):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(30)
        self.sock.connect(address)
        self.stream = self.sock.makefile("rwb")
        self.job = job

    def exchange(self, message):
        """All response lines to *message*, the final one last."""
        self.stream.write(protocol.encode(message))
        self.stream.flush()
        lines = []
        while True:
            line = self.stream.readline()
            assert line, "connection closed after %r" % (message,)
            lines.append(json.loads(line))
            if lines[-1].get("final") is not False:
                return lines

    def close(self):
        self.stream.close()
        self.sock.close()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    base = tmp_path_factory.mktemp("boundary")
    handler = _Tracebacks()
    logging.getLogger("repro").addHandler(handler)
    local = CecServer(str(base / "local.sock"), workers=0)
    shard = CecServer(str(base / "shard.sock"), workers=0)
    router = CecServer(
        str(base / "router.sock"), shards=[shard.address],
        health_interval=0.2,
    )
    servers = [local, shard, router]
    connections = []
    try:
        for server in servers:
            server.start()
        pair = [_aag_text(ripple_carry_adder(2)),
                _aag_text(kogge_stone_adder(2))]
        for server in (local, router):
            with ServiceClient(server.address) as client:
                _, response = client.check(*pair)
            connections.append(_Connection(server.address, response["job"]))
        yield router, connections, handler
    finally:
        for connection in connections:
            connection.close()
        for server in reversed(servers):
            server.close()
        logging.getLogger("repro").removeHandler(handler)


@pytest.mark.parametrize("verb", VERBS + ["junk"])
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_request_gets_one_envelope(fleet, verb, data):
    router, connections, handler = fleet
    request = data.draw(fields)
    request["verb"] = data.draw(junk_verbs) if verb == "junk" else verb
    for connection in connections:
        message = dict(request)
        if message["job"] is KNOWN_JOB:
            message["job"] = connection.job
        for response in connection.exchange(message):
            assert response["schema"] in (
                protocol.PROTOCOL_SCHEMA, FLEET_SCHEMA,
            )
            assert isinstance(response["ok"], bool)
            if not response["ok"]:
                assert response["error"]["code"] in ERROR_CODES, response
        # Still usable: the same connection answers the next request.
        assert connection.exchange({"verb": "ping"})[-1]["ok"] is True
    assert handler.records == []
    assert len(router.ring) == 1
    assert router.recorder.counter("fleet/shard-errors") == 0
