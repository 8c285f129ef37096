import socket
import threading

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
        assert Frame(0x05, b"abc").encode(0) == Frame(0x05, b"abc").encode(0)
        assert Frame(0x05, b"abc").encode(0) != Frame(0x05, b"abc").encode(1)


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
        raw = bytearray(Frame(0x03, b"hello world").encode(0))
        raw[7] ^= 0x40  # flip a payload bit, checksum now wrong
        a._send_raw(bytes(raw))
        with pytest.raises(WireError):
            b.recv(timeout=1)
        with pytest.raises(WireError):  # connection is dead afterwards
            b.recv(timeout=1)

    def test_truncated_frame_kills_connection(self):
        a, b = queue_pair()
        a._send_raw(Frame(0x03, b"hello").encode(0)[:6])
        with pytest.raises(WireError):
            b.recv(timeout=1)

    def test_sequence_gap_detected(self):
        a, b = queue_pair()
        a._send_raw(Frame(0x03, b"x").encode(5))
        with pytest.raises(WireError, match="sequence"):
            b.recv(timeout=1)

    def test_oversized_frame_rejected_at_build(self):
        with pytest.raises(WireError):
            Frame(0x01, b"\x00" * (wire.MAX_FRAME + 1))


class TestSocketBackend:
    def _pair(self):
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        port = srv.getsockname()[1]
        result = {}

        def accept():
            sock, _ = srv.accept()
            result["conn"] = wire.SocketConnection(sock)

        t = threading.Thread(target=accept)
        t.start()
        client = wire.connect("127.0.0.1", port)
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
