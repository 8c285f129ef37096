"""Framed duplex transport.

A frame is a type byte, the payload and a CRC32 of type and payload; it
carries no length or sequence number of its own. Two backends share the
encoding: an in-process queue pair for tests and simulation, where the length
is the raw object's, and a socket stream for two-machine runs, where it is the
record prefix, bounded by the endpoint's ``max_payload``. Neither reorders
frames, and each protocol end reads a fixed script of distinct message types,
so a lost or repeated frame ends the session there.
"""

from __future__ import annotations

import queue
import socket
import struct
import zlib
from dataclasses import dataclass

DEFAULT_TIMEOUT = 30.0
WIRE_VERSION = 3

_HEADER = struct.Struct(">B")
_CRC = struct.Struct(">I")
FRAME_OVERHEAD = _HEADER.size + _CRC.size  # every frame byte but the payload


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

    def encode(self) -> bytes:
        head = _HEADER.pack(self.type_code)
        crc = _CRC.pack(zlib.crc32(self.payload, zlib.crc32(head)))
        return b"".join((head, self.payload, crc))


def _decode(raw: bytes) -> Frame:
    if len(raw) < FRAME_OVERHEAD:
        raise WireError("truncated frame")
    body, crc = memoryview(raw)[:-_CRC.size], _CRC.unpack(raw[-_CRC.size:])[0]
    if zlib.crc32(body) != crc:
        raise WireError("frame checksum mismatch")
    return Frame(body[0], bytes(body[_HEADER.size:]))


class Connection:
    """One endpoint of a duplex framed stream."""

    def __init__(self):
        self._dead = False

    def send(self, frame: Frame) -> None:
        if self._dead:
            raise WireError("connection closed")
        try:
            self._send_raw(frame.encode())
        except WireError:
            self._dead = True
            raise

    def recv(self, timeout: float = DEFAULT_TIMEOUT) -> Frame:
        if self._dead:
            raise WireError("connection closed")
        try:
            return _decode(self._recv_raw(timeout))
        except WireError:  # a Timeout leaves the connection usable
            self._dead = True
            raise

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
    by the encoded frame; a length over ``max_payload + FRAME_OVERHEAD`` is
    refused before the body is read. A single version byte is exchanged at
    setup; a peer that sends none within ``timeout`` raises :class:`Timeout`,
    and a failed exchange closes the socket.
    """

    def __init__(self, sock: socket.socket, max_payload: int,
                 timeout: float = DEFAULT_TIMEOUT):
        super().__init__()
        self._sock = sock
        self._max_record = max_payload + FRAME_OVERHEAD
        try:
            sock.sendall(bytes([WIRE_VERSION]))
            peer = self._read_exact(1, timeout)[0]
            if peer != WIRE_VERSION:
                raise WireError(f"wire version mismatch: peer speaks {peer}")
        except (OSError, Timeout):  # WireError is an OSError
            sock.close()
            raise

    def _send_raw(self, raw: bytes) -> None:
        try:
            self._sock.sendall(struct.pack(">I", len(raw)) + raw)
        except OSError as exc:
            raise WireError(f"socket send failed: {exc}") from exc

    def _recv_raw(self, timeout: float) -> bytes:
        size = struct.unpack(">I", self._read_exact(4, timeout))[0]
        if size > self._max_record:
            raise WireError(f"record of {size} B over the {self._max_record} B bound")
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


def connect(host: str, port: int, max_payload: int,
            timeout: float = DEFAULT_TIMEOUT) -> SocketConnection:
    sock = socket.create_connection((host, port), timeout=timeout)
    return SocketConnection(sock, max_payload, timeout)


def listen_one(host: str, port: int, max_payload: int,
               timeout: float = DEFAULT_TIMEOUT) -> SocketConnection:
    """Accept exactly one connection and hand back its framed endpoint."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(1)
        srv.settimeout(timeout)
        try:
            sock, _ = srv.accept()
        except socket.timeout:
            raise Timeout from None
    return SocketConnection(sock, max_payload, timeout)
