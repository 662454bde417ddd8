"""GASPI constants: timeout sentinels, return codes, health states."""

from __future__ import annotations

import enum
import math

#: Block until the procedure completes (GASPI's ``GASPI_BLOCK``).
GASPI_BLOCK: float = math.inf
#: Do not block at all, only test (GASPI's ``GASPI_TEST``).
GASPI_TEST: float = 0.0


class ReturnCode(enum.Enum):
    """Return value of every GASPI procedure (``gaspi_return_t``)."""

    SUCCESS = 0
    TIMEOUT = 1
    ERROR = 2
    QUEUE_FULL = 3

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError(
            "ReturnCode must be compared explicitly (e.g. ret is ReturnCode.SUCCESS); "
            "truthiness would silently treat TIMEOUT as true"
        )


#: The return codes under GPI-2's C names, bound once: on CPython 3.10
#: and 3.11 each read of an enum class attribute (``ReturnCode.SUCCESS``)
#: goes through the Python-level ``EnumType.__getattr__``, and the
#: per-call paths compare return codes several times a call.
GASPI_SUCCESS = ReturnCode.SUCCESS
GASPI_TIMEOUT = ReturnCode.TIMEOUT
GASPI_ERROR = ReturnCode.ERROR
GASPI_QUEUE_FULL = ReturnCode.QUEUE_FULL


class HealthState(enum.IntEnum):
    """Entries of the error state vector (``gaspi_state_vec``)."""

    HEALTHY = 0   # GASPI_STATE_HEALTHY
    CORRUPT = 1   # GASPI_STATE_CORRUPT


class AllreduceOp(enum.Enum):
    """Reduction operators for ``gaspi_allreduce``."""

    MIN = "min"
    MAX = "max"
    SUM = "sum"


#: the integer agreements' operator under its GPI-2 C name, bound once
#: like the return codes
GASPI_OP_MIN = AllreduceOp.MIN
