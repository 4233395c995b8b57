"""Byte-addressable main memory shared by code, data and the stack backing store."""

from __future__ import annotations

import hashlib
import mmap

from ..config import WORD_SIZE
from ..errors import MemoryAccessError

#: Granularity of :meth:`MainMemory.nonzero_regions` snapshots.
PAGE_BYTES = 4096


class MainMemory:
    """A flat, byte-addressable memory with word/half/byte accesses.

    Values are stored little-endian.  Reads of uninitialised locations return
    zero, which keeps workload setup simple while still detecting out-of-range
    accesses.  The storage is a private anonymous mapping: the kernel hands
    out zero pages on first touch, so allocation is O(1) and resident memory
    tracks the pages a program writes; ``MAP_PRIVATE`` keeps a forked
    worker's writes out of its parent's copy.
    """

    def __init__(self, size_bytes: int):
        if size_bytes <= 0:
            raise MemoryAccessError("memory size must be positive")
        self.size_bytes = size_bytes
        self._data = mmap.mmap(-1, size_bytes, flags=mmap.MAP_PRIVATE)

    # -- raw access ---------------------------------------------------------------

    def _check(self, addr: int, width: int) -> None:
        if addr < 0 or addr + width > self.size_bytes:
            raise MemoryAccessError(
                f"access of {width} bytes at {addr:#x} is outside memory "
                f"of {self.size_bytes:#x} bytes")
        if addr % width != 0:
            raise MemoryAccessError(
                f"misaligned {width}-byte access at address {addr:#x}")

    def read(self, addr: int, width: int, signed: bool = False) -> int:
        """Read ``width`` bytes (1, 2 or 4) at ``addr``."""
        self._check(addr, width)
        value = int.from_bytes(self._data[addr:addr + width], "little", signed=False)
        if signed:
            bits = 8 * width
            if value & (1 << (bits - 1)):
                value -= 1 << bits
        return value

    def write(self, addr: int, value: int, width: int) -> None:
        """Write ``width`` bytes (1, 2 or 4) of ``value`` at ``addr``."""
        self._check(addr, width)
        mask = (1 << (8 * width)) - 1
        self._data[addr:addr + width] = (value & mask).to_bytes(width, "little")

    # -- word fast path -----------------------------------------------------------

    def read_u32(self, addr: int) -> int:
        """Word-aligned unsigned read without the general-access overhead.

        The hot path of the simulator engine is full-word accesses; this skips
        the per-access ``_check`` arithmetic re-derivation and the ``signed``
        fixup of :meth:`read`.  Out-of-range or misaligned accesses fall back
        to :meth:`_check` so they raise the same errors.
        """
        if addr >= 0 and not addr & 3 and addr + 4 <= self.size_bytes:
            return int.from_bytes(self._data[addr:addr + 4], "little")
        self._check(addr, 4)
        return self.read(addr, 4)  # pragma: no cover - _check raised above

    def write_u32(self, addr: int, value: int) -> None:
        """Word-aligned write counterpart of :meth:`read_u32`."""
        if addr >= 0 and not addr & 3 and addr + 4 <= self.size_bytes:
            self._data[addr:addr + 4] = (value & 0xFFFF_FFFF).to_bytes(4, "little")
            return
        self._check(addr, 4)
        self.write(addr, value, 4)  # pragma: no cover - _check raised above

    # -- word convenience ----------------------------------------------------------

    def read_word(self, addr: int, signed: bool = False) -> int:
        if not signed:
            return self.read_u32(addr)
        return self.read(addr, 4, signed=True)

    def write_word(self, addr: int, value: int) -> None:
        self.write_u32(addr, value)

    def load_words(self, contents: dict[int, int]) -> None:
        """Initialise memory from a ``word address -> value`` mapping."""
        for addr, value in contents.items():
            self.write_word(addr, value)

    def read_words(self, addr: int, count: int, signed: bool = False) -> list[int]:
        """Read ``count`` consecutive words starting at ``addr``."""
        return [self.read_word(addr + 4 * i, signed=signed) for i in range(count)]

    def nonzero_regions(self, pages) -> tuple:
        """A compact snapshot: ``(addr, bytes)`` of every non-zero region.

        Scans the :data:`PAGE_BYTES` pages with the indices in ``pages``
        (the ones ever written: reading an untouched page of the mapping
        costs a page fault).  Runs of pages holding a non-zero byte become
        one region each, trimmed of leading and trailing zero bytes;
        :meth:`load_regions` writes the snapshot back.
        """
        data = self._data
        spans: list[list[int]] = []  # [first, end) page runs
        for index in sorted(pages):
            start = index * PAGE_BYTES
            if not data[start:start + PAGE_BYTES].strip(b"\0"):
                continue
            if spans and spans[-1][1] == index:
                spans[-1][1] = index + 1
            else:
                spans.append([index, index + 1])
        regions = []
        for first, end in spans:
            block = bytes(data[first * PAGE_BYTES:end * PAGE_BYTES])
            body = block.lstrip(b"\0")
            regions.append((first * PAGE_BYTES + len(block) - len(body),
                            body.rstrip(b"\0")))
        return tuple(regions)

    def load_regions(self, regions, base: int = 0) -> None:
        """Write a :meth:`nonzero_regions` snapshot at offset ``base``."""
        data = self._data
        for addr, body in regions:
            data[base + addr:base + addr + len(body)] = body

    def copy(self) -> "MainMemory":
        clone = MainMemory(self.size_bytes)
        clone._data[:] = self._data
        return clone

    def image_digest(self) -> str:
        """Content hash of the whole memory image (bit-identity checks)."""
        return hashlib.sha256(bytes(self._data)).hexdigest()[:16]

    # -- fault injection ----------------------------------------------------------

    def inject_bit_flip(self, addr: int, bit: int) -> int:
        """Flip one bit of the byte at ``addr``; returns the new byte value.

        This is the :mod:`repro.faults` single-event-upset primitive.  It
        works identically on a private memory and on a zero-copy bank view
        (``_data`` is then a ``memoryview`` of the shared storage, and the
        flip is visible through the backing memory like any write).
        """
        if not 0 <= addr < self.size_bytes:
            raise MemoryAccessError(
                f"bit flip at {addr:#x} is outside memory of "
                f"{self.size_bytes:#x} bytes")
        if not 0 <= bit < 8:
            raise MemoryAccessError(
                f"bit index {bit} outside a byte; flips are per-byte")
        self._data[addr] ^= 1 << bit
        return self._data[addr]

    @classmethod
    def view(cls, backing: "MainMemory", base: int,
             size_bytes: int) -> "MainMemory":
        """A window of ``backing`` that behaves like its own main memory.

        The multicore co-simulation gives every core a private bank of one
        shared physical memory: the view aliases ``backing``'s storage (a
        zero-copy ``memoryview``), so writes through a view are visible to
        the backing memory and to overlapping views, while bounds checks
        confine each core to its own bank.
        """
        if size_bytes <= 0 or size_bytes % WORD_SIZE:
            raise MemoryAccessError(
                f"view size must be a positive number of whole words, "
                f"got {size_bytes}")
        if base < 0 or base % WORD_SIZE or base + size_bytes > backing.size_bytes:
            raise MemoryAccessError(
                f"view of {size_bytes:#x} bytes at offset {base:#x} does not "
                f"fit word-aligned into memory of {backing.size_bytes:#x} "
                f"bytes")
        mem = cls.__new__(cls)
        mem.size_bytes = size_bytes
        mem._data = memoryview(backing._data)[base:base + size_bytes]
        return mem
