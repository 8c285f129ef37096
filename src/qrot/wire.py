"""Framed duplex transport.

A frame is a type code, a 4-byte big-endian payload length, the payload, and
a CRC32 of everything before it. Two backends share the encoding: an
in-process queue pair for tests and simulation, and a socket stream for
two-machine runs. Both number frames sequentially so reordering or loss is
detected, not silently tolerated.
"""

from __future__ import annotations

import queue
import socket
import struct
import zlib
from dataclasses import dataclass

MAX_FRAME = 64 * 1024 * 1024
DEFAULT_TIMEOUT = 30.0
WIRE_VERSION = 1

_HEADER = struct.Struct(">BI")
_SEQ = struct.Struct(">I")
_CRC = struct.Struct(">I")


class WireError(ConnectionError):
    pass


class Timeout(Exception):
    """recv deadline passed; the protocol layer maps this to a TRANSPORT abort."""


@dataclass(frozen=True)
class Frame:
    type_code: int
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.type_code <= 0xFF:
            raise WireError("type code must fit one byte")
        if len(self.payload) > MAX_FRAME:
            raise WireError("frame exceeds 64 MiB")

    def encode(self, seq: int) -> bytes:
        head = _HEADER.pack(self.type_code, len(self.payload))
        body = head + self.payload
        return _SEQ.pack(seq & 0xFFFFFFFF) + body + _CRC.pack(zlib.crc32(body))


def _decode(raw: bytes, expect_seq: int) -> Frame:
    if len(raw) < _SEQ.size + _HEADER.size + _CRC.size:
        raise WireError("truncated frame")
    seq = _SEQ.unpack_from(raw)[0]
    if seq != expect_seq & 0xFFFFFFFF:
        raise WireError(f"frame sequence gap: got {seq}, wanted {expect_seq}")
    body, crc = raw[_SEQ.size:-_CRC.size], _CRC.unpack(raw[-_CRC.size:])[0]
    if zlib.crc32(body) != crc:
        raise WireError("frame checksum mismatch")
    type_code, length = _HEADER.unpack_from(body)
    payload = body[_HEADER.size:]
    if length != len(payload):
        raise WireError("frame length mismatch")
    if length > MAX_FRAME:
        raise WireError("frame exceeds 64 MiB")
    return Frame(type_code, payload)


class Connection:
    """One endpoint of a duplex framed stream."""

    def __init__(self):
        self._send_seq = 0
        self._recv_seq = 0
        self._dead = False

    def send(self, frame: Frame) -> None:
        if self._dead:
            raise WireError("connection closed")
        try:
            self._send_raw(frame.encode(self._send_seq))
        except WireError:
            self._dead = True
            raise
        self._send_seq += 1

    def recv(self, timeout: float = DEFAULT_TIMEOUT) -> Frame:
        if self._dead:
            raise WireError("connection closed")
        try:
            raw = self._recv_raw(timeout)
            frame = _decode(raw, self._recv_seq)
        except Timeout:
            raise
        except WireError:
            self._dead = True
            raise
        self._recv_seq += 1
        return frame

    def close(self) -> None:
        self._dead = True

    def _send_raw(self, raw: bytes) -> None:
        raise NotImplementedError

    def _recv_raw(self, timeout: float) -> bytes:
        raise NotImplementedError


class QueueConnection(Connection):
    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        super().__init__()
        self._inbox = inbox
        self._outbox = outbox

    def _send_raw(self, raw: bytes) -> None:
        self._outbox.put(raw)

    def _recv_raw(self, timeout: float) -> bytes:
        try:
            return self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise Timeout from None


def queue_pair() -> tuple[QueueConnection, QueueConnection]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return (QueueConnection(b_to_a, a_to_b), QueueConnection(a_to_b, b_to_a))


class SocketConnection(Connection):
    """Length-prefixed frames over a connected stream socket.

    Each record on the stream is a 4-byte big-endian record length followed
    by the encoded frame. A single version byte is exchanged at setup.
    """

    def __init__(self, sock: socket.socket):
        super().__init__()
        self._sock = sock
        sock.sendall(bytes([WIRE_VERSION]))
        peer = self._read_exact(1, DEFAULT_TIMEOUT)
        if peer[0] != WIRE_VERSION:
            raise WireError(f"wire version mismatch: peer speaks {peer[0]}")

    def _send_raw(self, raw: bytes) -> None:
        try:
            self._sock.sendall(struct.pack(">I", len(raw)) + raw)
        except OSError as exc:
            raise WireError(f"socket send failed: {exc}") from exc

    def _recv_raw(self, timeout: float) -> bytes:
        size = struct.unpack(">I", self._read_exact(4, timeout))[0]
        if size > MAX_FRAME + 16:
            raise WireError("oversized record")
        return self._read_exact(size, timeout)

    def _read_exact(self, count: int, timeout: float) -> bytes:
        self._sock.settimeout(timeout)
        buf = bytearray()
        while len(buf) < count:
            try:
                chunk = self._sock.recv(count - len(buf))
            except socket.timeout:
                raise Timeout from None
            except OSError as exc:
                raise WireError(f"socket recv failed: {exc}") from exc
            if not chunk:
                raise WireError("peer closed the stream")
            buf.extend(chunk)
        return bytes(buf)

    def close(self) -> None:
        super().close()
        try:
            self._sock.close()
        except OSError:
            pass


def connect(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> SocketConnection:
    sock = socket.create_connection((host, port), timeout=timeout)
    return SocketConnection(sock)


def listen_one(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> SocketConnection:
    """Accept exactly one connection and hand back its framed endpoint."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(1)
    srv.settimeout(timeout)
    try:
        sock, _ = srv.accept()
    except socket.timeout:
        raise Timeout from None
    finally:
        srv.close()
    return SocketConnection(sock)
