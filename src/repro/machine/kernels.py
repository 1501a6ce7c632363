"""A small library of vector kernels for the machine model (extension).

The paper measures one kernel (the triad); its Section V discussion
reaches further — rows, columns and diagonals of Fortran arrays, safe
dimensioning.  These kernels make those scenarios executable on the
same X-MP model:

* ``copy``    — ``A(I) = B(I)``                    (1 load, 1 store)
* ``scale``   — ``A(I) = s * B(I)``                (1 load, 1 store)
* ``sum``     — ``s = s + A(I)``                   (1 load)
* ``daxpy``   — ``Y(I) = Y(I) + a * X(I)``         (2 loads, 1 store)
* ``triad``   — ``A(I) = B(I) + C(I)*D(I)``        (3 loads, 1 store;
  :func:`repro.machine.workloads.triad_program`)
* ``matrix_sweep`` — strided walk over a column / row / diagonal of a
  2-D column-major array (eq. 33 distances).

All kernels strip-mine to the vector length and chain stores behind the
loads exactly like the triad generator.
"""

from __future__ import annotations

from ..core.fortran import ArraySpec
from ..memory.layout import CommonBlock
from .instructions import VECTOR_LENGTH, PortKind, VectorInstruction

__all__ = [
    "copy_program",
    "scale_program",
    "sum_program",
    "daxpy_program",
    "matrix_sweep_program",
]


def _strip_mined(
    refs: list[tuple[str, str, int, int]],
    n: int,
    inc: int,
    vector_length: int,
) -> list[VectorInstruction]:
    """Generic strip-miner.

    ``refs`` rows are ``(op, name, base, stride_words)`` with ``op`` in
    {"load", "store"}; per segment all loads issue first and every store
    depends on all of that segment's loads.
    """
    if n <= 0:
        raise ValueError("element count must be positive")
    if inc <= 0:
        raise ValueError("increment must be positive")
    if vector_length <= 0:
        raise ValueError("vector length must be positive")
    program: list[VectorInstruction] = []
    uid = 0
    for seg_start in range(0, n, vector_length):
        seg_len = min(vector_length, n - seg_start)
        hi = seg_start + seg_len
        load_uids: list[int] = []
        stores: list[tuple[str, int, int]] = []
        for op, name, base, stride in refs:
            if op == "load":
                program.append(
                    VectorInstruction(
                        uid=uid,
                        name=f"LOAD {name}[{seg_start}:{hi}:{inc}]",
                        kind=PortKind.READ,
                        base=base + seg_start * stride,
                        stride=stride,
                        length=seg_len,
                    )
                )
                load_uids.append(uid)
                uid += 1
            elif op == "store":
                stores.append((name, base, stride))
            else:  # pragma: no cover - internal misuse
                raise ValueError(f"unknown op {op!r}")
        for name, base, stride in stores:
            program.append(
                VectorInstruction(
                    uid=uid,
                    name=f"STORE {name}[{seg_start}:{hi}:{inc}]",
                    kind=PortKind.WRITE,
                    base=base + seg_start * stride,
                    stride=stride,
                    length=seg_len,
                    depends_on=tuple(load_uids),
                )
            )
            uid += 1
    return program


def _bases(common: CommonBlock, names: list[str], needed: int) -> dict[str, int]:
    out = {}
    for name in names:
        spec = common[name]
        if spec.size < needed:
            raise ValueError(
                f"array {name} too small: needs {needed} words"
            )
        out[name] = spec.base
    return out


def copy_program(
    inc: int,
    *,
    n: int,
    common: CommonBlock,
    src: str = "B",
    dst: str = "A",
    vector_length: int = VECTOR_LENGTH,
) -> list[VectorInstruction]:
    """``A(I) = B(I)`` with increment ``inc``."""
    needed = 1 + (n - 1) * inc
    bases = _bases(common, [src, dst], needed)
    return _strip_mined(
        [("load", src, bases[src], inc), ("store", dst, bases[dst], inc)],
        n, inc, vector_length,
    )


def scale_program(
    inc: int,
    *,
    n: int,
    common: CommonBlock,
    src: str = "B",
    dst: str = "A",
    vector_length: int = VECTOR_LENGTH,
) -> list[VectorInstruction]:
    """``A(I) = s * B(I)`` — same memory behaviour as copy (the scalar
    multiply lives in the chain latency)."""
    return copy_program(
        inc, n=n, common=common, src=src, dst=dst, vector_length=vector_length
    )


def sum_program(
    inc: int,
    *,
    n: int,
    common: CommonBlock,
    src: str = "A",
    vector_length: int = VECTOR_LENGTH,
) -> list[VectorInstruction]:
    """``s = s + A(I)`` — a pure load stream (reduction in registers)."""
    needed = 1 + (n - 1) * inc
    bases = _bases(common, [src], needed)
    return _strip_mined(
        [("load", src, bases[src], inc)], n, inc, vector_length
    )


def daxpy_program(
    inc: int,
    *,
    n: int,
    common: CommonBlock,
    x: str = "B",
    y: str = "A",
    vector_length: int = VECTOR_LENGTH,
) -> list[VectorInstruction]:
    """``Y(I) = Y(I) + a*X(I)``: loads X and Y, stores Y."""
    needed = 1 + (n - 1) * inc
    bases = _bases(common, [x, y], needed)
    return _strip_mined(
        [
            ("load", x, bases[x], inc),
            ("load", y, bases[y], inc),
            ("store", y, bases[y], inc),
        ],
        n, inc, vector_length,
    )


def matrix_sweep_program(
    array: ArraySpec,
    sweep: str,
    *,
    n: int | None = None,
    store: bool = False,
    vector_length: int = VECTOR_LENGTH,
) -> list[VectorInstruction]:
    """Walk a column, row or diagonal of a 2-D column-major array.

    Element-address strides follow eq. (33): column ``1``, row ``J1``,
    diagonal ``J1 + 1``.  ``store=True`` writes the swept elements back
    (read-modify-write), doubling the port pressure.
    """
    if len(array.dims) != 2:
        raise ValueError("matrix sweeps need a 2-D array")
    j1, j2 = array.dims
    strides = {"column": 1, "row": j1, "diagonal": j1 + 1}
    lengths = {"column": j1, "row": j2, "diagonal": min(j1, j2)}
    if sweep not in strides:
        raise ValueError(f"sweep must be one of {sorted(strides)}")
    stride = strides[sweep]
    count = lengths[sweep] if n is None else n
    if count > lengths[sweep]:
        raise ValueError(
            f"{sweep} of {array.name}{array.dims} has only "
            f"{lengths[sweep]} elements"
        )
    refs: list[tuple[str, str, int, int]] = [
        ("load", array.name, array.base, stride)
    ]
    if store:
        refs.append(("store", array.name, array.base, stride))
    return _strip_mined(refs, count, 1, vector_length)
