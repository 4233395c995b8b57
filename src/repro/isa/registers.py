"""Register definitions and name parsing for the Patmos ISA.

Patmos has 32 general-purpose registers (``r0`` .. ``r31``), eight predicate
registers (``p0`` .. ``p7``) and a small set of special registers used by the
stack cache, the multiplier and the call/return mechanism.

* ``r0`` always reads as zero; writes to it are ignored.
* ``p0`` always reads as true; writes to it are ignored.
"""

from __future__ import annotations

from enum import Enum

from ..config import NUM_GPRS, NUM_PREDS
from ..errors import IsaError


class SpecialReg(Enum):
    """Special registers of the Patmos core."""

    #: Stack top pointer of the stack cache (grows downwards).
    ST = "st"
    #: Spill pointer of the stack cache (top of the cached region in memory).
    SS = "ss"
    #: Low word of the most recent multiplication result.
    SL = "sl"
    #: High word of the most recent multiplication result.
    SH = "sh"
    #: Return function base (method-cache entry of the caller).
    SRB = "srb"
    #: Return offset within the caller function.
    SRO = "sro"

    # Members are singletons compared by identity, so the identity hash is
    # exact and, unlike ``Enum.__hash__``, runs no Python code: the
    # simulators key their special-register files on members.  Nothing
    # iterates a set of members, so no order depends on it.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_SPECIAL_BY_NAME = {reg.value: reg for reg in SpecialReg}
#: Canonical register names (``"r5"``, ``"p3"``), looked up before parsing.
_GPR_BY_NAME = {f"r{index}": index for index in range(NUM_GPRS)}
_PRED_BY_NAME = {f"p{index}": index for index in range(NUM_PREDS)}


def parse_gpr(name: str | int) -> int:
    """Parse a general-purpose register name (``"r5"`` or ``5``) to its index."""
    if isinstance(name, int):
        index = name
    elif type(name) is str and name in _GPR_BY_NAME:
        return _GPR_BY_NAME[name]
    else:
        text = name.strip().lower()
        if not text.startswith("r"):
            raise IsaError(f"not a general-purpose register: {name!r}")
        try:
            index = int(text[1:])
        except ValueError as exc:
            raise IsaError(f"not a general-purpose register: {name!r}") from exc
    if not 0 <= index < NUM_GPRS:
        raise IsaError(f"general-purpose register index out of range: {name!r}")
    return index


def parse_pred(name: str | int) -> int:
    """Parse a predicate register name (``"p3"`` or ``3``) to its index."""
    if isinstance(name, int):
        index = name
    elif type(name) is str and name in _PRED_BY_NAME:
        return _PRED_BY_NAME[name]
    else:
        text = name.strip().lower()
        if not text.startswith("p"):
            raise IsaError(f"not a predicate register: {name!r}")
        try:
            index = int(text[1:])
        except ValueError as exc:
            raise IsaError(f"not a predicate register: {name!r}") from exc
    if not 0 <= index < NUM_PREDS:
        raise IsaError(f"predicate register index out of range: {name!r}")
    return index


def parse_special(name: str | SpecialReg) -> SpecialReg:
    """Parse a special register name (``"st"``) to a :class:`SpecialReg`."""
    if isinstance(name, SpecialReg):
        return name
    text = name.strip().lower()
    if text not in _SPECIAL_BY_NAME:
        raise IsaError(f"not a special register: {name!r}")
    return _SPECIAL_BY_NAME[text]


def gpr_name(index: int) -> str:
    """Return the assembly name of a general-purpose register."""
    return f"r{index}"


def pred_name(index: int) -> str:
    """Return the assembly name of a predicate register."""
    return f"p{index}"


#: Order of special registers used by the binary encoding.
SPECIAL_ENCODING_ORDER = tuple(SpecialReg)


def special_code(reg: SpecialReg) -> int:
    """Return the numeric code of a special register for encoding."""
    return SPECIAL_ENCODING_ORDER.index(reg)


def special_from_code(code: int) -> SpecialReg:
    """Return the special register for a numeric encoding code."""
    try:
        return SPECIAL_ENCODING_ORDER[code]
    except IndexError as exc:
        raise IsaError(f"invalid special register code: {code}") from exc
