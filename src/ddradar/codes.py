"""Binary time-frequency spreading codes.

A code is an N_t x N_f grid of +/-1 chips.  Row n indexes the time slot,
column c = m + N_f/2 indexes the subcarrier m in [-N_f/2, N_f/2).  Codes are
generated with a counter-based Philox RNG so a seed reproduces the same
matrix on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RadarParams


@dataclass(frozen=True, eq=False)
class CodeMatrix:
    """Immutable +/-1 chip grid of shape (N_t, N_f), read-only; pickles and
    copies rebuild through the constructor, and codes compare by identity."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"code matrix must be 2-D, got shape {arr.shape}")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("code matrix entries must all be +1 or -1")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __reduce__(self):
        return type(self), (self.entries,)

    @property
    def n_t(self) -> int:
        return self.entries.shape[0]

    @property
    def n_f(self) -> int:
        return self.entries.shape[1]

    @property
    def m_values(self) -> np.ndarray:
        """Signed subcarrier indices m = -N_f/2 .. N_f/2 - 1, one per column."""
        return np.arange(self.n_f) - self.n_f // 2

    def require_match(self, params: RadarParams) -> None:
        if (self.n_t, self.n_f) != (params.N_t, params.N_f):
            raise ValueError(
                f"code is {self.n_t}x{self.n_f} but params expect "
                f"{params.N_t}x{params.N_f}"
            )


def random_code(params: RadarParams, seed: int) -> CodeMatrix:
    """Draw each chip +1 or -1 with probability 1/2 (Philox stream ``seed``)."""
    rng = np.random.Generator(np.random.Philox(seed))
    bits = rng.integers(0, 2, size=(params.N_t, params.N_f))
    return CodeMatrix(bits * 2 - 1)


# 8x8 reference matrices: the first has an ambiguity surface that hugs the
# separable sinc lobe model, the second is a known counterexample whose
# surface is visibly skewed.  Both are used to pin the conformance screen.
_GOOD_8X8 = [
    [-1,  1, -1,  1, -1,  1, -1, -1],
    [-1, -1, -1,  1,  1, -1,  1,  1],
    [-1,  1,  1, -1, -1, -1,  1,  1],
    [-1, -1,  1,  1,  1, -1, -1,  1],
    [-1,  1,  1,  1, -1, -1, -1, -1],
    [-1,  1,  1, -1, -1, -1,  1,  1],
    [-1, -1,  1,  1,  1, -1, -1,  1],
    [ 1,  1,  1,  1, -1,  1,  1, -1],
]

_BAD_8X8 = [
    [-1, -1,  1, -1, -1, -1,  1,  1],
    [ 1,  1,  1,  1,  1, -1,  1,  1],
    [-1, -1, -1, -1, -1,  1, -1, -1],
    [ 1, -1, -1, -1,  1,  1,  1, -1],
    [-1, -1,  1,  1,  1,  1, -1, -1],
    [ 1,  1, -1,  1,  1, -1,  1,  1],
    [ 1, -1,  1, -1,  1, -1,  1,  1],
    [-1,  1,  1, -1, -1, -1,  1,  1],
]


def reference_good_code() -> CodeMatrix:
    """The 8x8 reference code that passes sinc conformance."""
    return CodeMatrix(np.array(_GOOD_8X8))


def reference_bad_code() -> CodeMatrix:
    """The 8x8 reference code rejected by sinc conformance."""
    return CodeMatrix(np.array(_BAD_8X8))


def code_text(code: CodeMatrix) -> str:
    """The code file: N_t lines of N_f space-separated +/-1 integers."""
    return "\n".join(" ".join(f"{v:d}" for v in row) for row in code.entries) + "\n"


def write_code(path: str | Path, code: CodeMatrix) -> None:
    """Write ``code_text(code)`` to ``path``."""
    Path(path).write_text(code_text(code))


def read_code(path: str | Path, params: RadarParams | None = None) -> CodeMatrix:
    """Parse a code file, rejecting any token other than -1 or 1."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for tok in line.split():
            if tok not in ("1", "-1", "+1"):
                raise ValueError(f"{path}:{lineno}: invalid code token {tok!r}")
            row.append(int(tok))
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty code file")
    if len({len(r) for r in rows}) != 1:
        raise ValueError(f"{path}: ragged rows in code file")
    code = CodeMatrix(np.array(rows))
    if params is not None:
        code.require_match(params)
    return code
