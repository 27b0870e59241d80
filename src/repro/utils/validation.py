"""Boundary coercion of numeric configuration fields.

The configuration dataclasses (:class:`~repro.runtime.config.RuntimeConfig`,
:class:`~repro.design.engine.DesignOptions`,
:class:`~repro.mapping.sabre.SabreParameters`) coerce their numeric
fields through these helpers in ``__post_init__``, so every spelling of
one value (``1`` / ``1.0``) becomes one cache key, one digest and one
store record, and out-of-range values fail where they are written.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Optional


def integral(name: str, value: Any, minimum: Optional[int] = None) -> int:
    """``value`` as an ``int``: integers and integral floats, never bools."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        result = int(value)
    elif isinstance(value, float) and value.is_integer():
        result = int(value)
    else:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and result < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {result}")
    return result


def finite(name: str, value: Any, minimum: Optional[float] = None) -> float:
    """``value`` as a finite ``float``; bools, NaN and infinities fail."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        result = float(value)
        if math.isfinite(result):
            if minimum is not None and result < minimum:
                raise ValueError(f"{name} must be at least {minimum}, got {result!r}")
            return result
    raise ValueError(f"{name} must be a finite number, got {value!r}")
