import socket
import struct
import threading
import time

import pytest

from qrot import wire
from qrot.bitcore import Rng
from qrot.wire import Frame, Timeout, WireError, queue_pair


class TestFrame:
    def test_fields_checked(self):
        with pytest.raises(WireError):
            Frame(300, b"")
        Frame(0x01, b"x" * 100)  # fine

    def test_encode_is_stable(self):
        assert Frame(0x05, b"abc").encode() == Frame(0x05, b"abc").encode()


class TestQueueBackend:
    def test_round_trip(self):
        a, b = queue_pair()
        a.send(Frame(0x07, b"payload"))
        got = b.recv(timeout=1)
        assert got == Frame(0x07, b"payload")

    def test_order_preserved_over_many_frames(self):
        a, b = queue_pair()
        rng = Rng.from_int(77)
        sizes = [int(s) for s in rng.randbelow_array([100001] * 10000)]
        for i, size in enumerate(sizes):
            a.send(Frame(i % 11 + 1, bytes([i % 256]) * size))
            got = b.recv(timeout=1)
            assert got.type_code == i % 11 + 1
            assert len(got.payload) == size

    def test_timeout_signalled(self):
        _, b = queue_pair()
        with pytest.raises(Timeout):
            b.recv(timeout=0.01)

    def test_corrupted_frame_kills_connection(self):
        a, b = queue_pair()
        raw = bytearray(Frame(0x03, b"hello world").encode())
        raw[3] ^= 0x40  # flip a payload bit, checksum now wrong
        a._send_raw(bytes(raw))
        with pytest.raises(WireError):
            b.recv(timeout=1)
        with pytest.raises(WireError):  # connection is dead afterwards
            b.recv(timeout=1)

    def test_truncated_frame_kills_connection(self):
        a, b = queue_pair()
        a._send_raw(Frame(0x03, b"hello").encode()[:4])
        with pytest.raises(WireError):
            b.recv(timeout=1)


class TestSocketBackend:
    def _pair(self, max_payload=1 << 16):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        port = srv.getsockname()[1]
        result = {}

        def accept():
            sock, _ = srv.accept()
            result["conn"] = wire.SocketConnection(sock, max_payload)

        t = threading.Thread(target=accept)
        t.start()
        client = wire.connect("127.0.0.1", port, max_payload)
        t.join()
        srv.close()
        return client, result["conn"]

    def test_round_trip_loopback(self):
        a, b = self._pair()
        a.send(Frame(0x09, b"\x00\x01\x02" * 1000))
        assert b.recv(timeout=5) == Frame(0x09, b"\x00\x01\x02" * 1000)
        b.send(Frame(0x02, b""))
        assert a.recv(timeout=5).type_code == 0x02
        a.close()
        b.close()

    def test_payload_at_the_bound_round_trips(self):
        a, b = self._pair(max_payload=1000)
        a.send(Frame(0x04, bytes(range(250)) * 4))
        assert b.recv(timeout=5) == Frame(0x04, bytes(range(250)) * 4)
        a.close()
        b.close()

    def test_record_over_the_bound_refused_before_its_body(self):
        # only the prefix is sent: reading a body would time out instead
        a, b = self._pair(max_payload=1000)
        a._sock.sendall(struct.pack(">I", 1000 + wire.FRAME_OVERHEAD + 1))
        with pytest.raises(WireError, match="over the 1005 B bound"):
            b.recv(timeout=1)
        with pytest.raises(WireError):  # connection is dead afterwards
            b.recv(timeout=1)
        a.close()
        b.close()

    def test_many_frames_ordered(self):
        a, b = self._pair()
        for i in range(500):
            a.send(Frame(i % 11 + 1, i.to_bytes(4, "big") * (i % 50)))
        for i in range(500):
            got = b.recv(timeout=5)
            assert got.payload == i.to_bytes(4, "big") * (i % 50)
        a.close()
        b.close()

    def test_peer_close_detected(self):
        a, b = self._pair()
        a.close()
        with pytest.raises(WireError):
            b.recv(timeout=5)
        b.close()

    def test_recv_timeout(self):
        a, b = self._pair()
        with pytest.raises(Timeout):
            b.recv(timeout=0.05)
        a.close()
        b.close()

    def test_silent_peer_times_out_at_the_given_timeout(self):
        # a listener that accepts nothing never sends its version byte
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        start = time.monotonic()
        with pytest.raises(Timeout):
            wire.connect("127.0.0.1", srv.getsockname()[1], 64, timeout=0.5)
        assert time.monotonic() - start < 2.0
        srv.close()

    @pytest.mark.parametrize("peer_byte", [None, bytes([wire.WIRE_VERSION + 1]),
                                           bytes([wire.WIRE_VERSION - 1])],
                             ids=["silent", "other_version", "older_version"])
    def test_failed_handshake_closes_the_socket(self, peer_byte):
        ours, theirs = socket.socketpair()
        if peer_byte is not None:
            theirs.sendall(peer_byte)
        with pytest.raises((Timeout, WireError)):
            wire.SocketConnection(ours, 64, timeout=0.05)
        assert ours.fileno() == -1
        theirs.close()

    def test_port_in_use_closes_the_listening_socket(self, monkeypatch):
        made = []

        class Recording(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            monkeypatch.setattr(socket, "socket", Recording)
            with pytest.raises(OSError):
                wire.listen_one("127.0.0.1", taken.getsockname()[1], 64, timeout=0.05)
        assert len(made) == 1 and made[0].fileno() == -1
