"""Typed dimension aliases for the simulator's cost quantities.

Every cost-model method in the reproduction is implicitly *dimensioned*:
``*_seconds`` methods return simulated seconds, ``*_bytes`` quantities
count payload bytes, throughputs are bytes (or flops) per second. The
aliases below make those dimensions explicit in signatures without any
runtime cost — they are plain ``float``/``int`` at runtime, so annotating
a surface with them is float-identical to leaving it bare.

Two layers of tooling consume them:

* ``mypy`` (strict on this module) treats them as ordinary aliases;
* ``tools/repro_lint``'s cost-dimension checker (``RPL301``) treats a
  parameter or return annotated ``Seconds``/``SecondsLike`` as a
  seconds-dimensioned expression and ``Bytes``/``BytesLike`` as a
  bytes-dimensioned one, and flags arithmetic that mixes the two —
  the same name-convention contract the ``*_seconds``/``*_bytes``
  suffixes carry, enforced statically.

``*Like`` variants cover the vectorized cost paths, where a platform
method prices one scalar or a whole numpy array of payloads elementwise
(e.g. :meth:`repro.hardware.platform.MultiGPUPlatform.h2d_seconds`).
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "Seconds", "Bytes", "Flops", "ByteRate", "FlopRate",
    "SecondsLike", "BytesLike", "FlopsLike", "SCALAR_BYTES",
]

#: simulated seconds (wall time never appears in simulated results)
Seconds = float

#: a payload / capacity size in bytes
Bytes = int

#: the modeled width of one vertex-data scalar: float32, the paper's
#: element (Table 1's vertex data is 2·|V|·Σdims·4 B). Every simulated
#: transfer and reservation prices rows at this width, whatever dtype
#: the numerics run in.
SCALAR_BYTES: Bytes = 4

#: floating-point operations of one kernel
Flops = float

#: a transfer rate in bytes per second (bandwidths)
ByteRate = float

#: a compute rate in flops per second (achieved throughputs)
FlopRate = float

#: scalar seconds, or an array of per-element seconds (vectorized costs)
SecondsLike = Union[float, np.ndarray]

#: scalar byte count, or an array of per-element payloads
BytesLike = Union[int, float, np.ndarray]

#: scalar flop count, or an array of per-element flop counts
FlopsLike = Union[int, float, np.ndarray]
