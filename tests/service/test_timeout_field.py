"""``timeout_s`` is validated on the event loop, before a worker slot.

A NaN deadline never expires, so ``"timeout_s": NaN`` used to run the
query with no deadline at all; ``true`` was read as one second; ``"abc"``
and ``[1]`` came back as a bare ``ValueError`` / ``TypeError``.  Only a
finite, non-bool real number or null is a timeout.  The frames are sent
raw, since the client's own encoder refuses NaN and infinities.
"""

import pytest

from repro.engine.database import Database
from repro.errors import InvalidParameterError, ServiceError
from repro.obs.export import parse_prometheus_text
from repro.service import ServerThread, ServiceClient, ServiceConfig


@pytest.fixture(scope="module")
def server():
    db = Database()
    db.execute("CREATE TABLE pts (x float)")
    db.insert("pts", [(float(i),) for i in range(5)])
    with ServerThread(db=db) as s:
        yield s


def send_raw(client, rid, timeout_json):
    client._sock.sendall(
        b'{"id": "%s", "op": "query", "sql": "SELECT count(*) FROM pts", '
        b'"timeout_s": %s}\n' % (rid.encode(), timeout_json.encode()))


def admitted(client):
    parsed = parse_prometheus_text(client.metrics())
    return parsed.get(("repro_service_admitted_total", ()), 0)


@pytest.mark.parametrize("timeout_json", [
    "NaN", "Infinity", "-Infinity", "1e400", "true", "false",
    '"abc"', '"5"', "[1]", "{}",
])
def test_bad_timeout_is_a_service_error_before_scheduling(server,
                                                          timeout_json):
    with ServiceClient(port=server.port) as c:
        before = admitted(c)
        send_raw(c, "bad", timeout_json)
        with pytest.raises(ServiceError, match="'timeout_s' must be") as exc:
            c.wait("bad")
        assert type(exc.value) is ServiceError
        assert admitted(c) == before
        # The session is still good for the next request.
        assert c.query("SELECT count(*) FROM pts").rows == [(5,)]


@pytest.mark.parametrize("timeout_json", ["null", "5", "2.5", "30"])
def test_number_or_null_is_a_timeout(server, timeout_json):
    with ServiceClient(port=server.port) as c:
        send_raw(c, "good", timeout_json)
        assert c.wait("good")["ok"] is True


@pytest.mark.parametrize("default", [float("nan"), float("inf"), True,
                                     "30", [1]])
def test_server_default_timeout_is_validated_too(default):
    """A NaN server default would otherwise make every request without
    ``timeout_s`` fail with the field's error."""
    with pytest.raises(InvalidParameterError, match="default_timeout_s"):
        ServiceConfig(default_timeout_s=default)


@pytest.mark.parametrize("default", [None, 30, 0.5])
def test_server_default_timeout_accepts_seconds_or_none(default):
    assert ServiceConfig(default_timeout_s=default).default_timeout_s \
        == default
