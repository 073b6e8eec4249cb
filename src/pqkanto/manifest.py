"""Deterministic output files and the run manifest.

Every CLI command that writes files also writes a `RunManifest` next to
its primary output: the command name, the complete parameter set, the
artifact version, and the produced file names.  Replaying a manifest
re-executes the command from the recorded parameters and reproduces the
outputs byte for byte, which is what makes result files citable.

All writers here are deterministic: JSON is dumped with sorted keys,
floats are printed with 17 significant digits (round-trip exact), and
line endings are LF regardless of platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

from .errors import DomainError

MANIFEST_SUFFIX = ".manifest.json"


def fmt_float(v) -> str:
    """17-significant-digit rendering; round-trips float64 exactly."""
    return format(float(v), ".17g")


def csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def write_text(path, text: str) -> None:
    if not Path(path).parent.is_dir():  # mkdir on an existing one costs a third of a write
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:  # one call; bytes, so "\n" stays LF
        fh.write(text.encode("utf-8"))


def dumps_json(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True,
                          allow_nan=False) + "\n"
    except ValueError:  # JSON has no inf or nan
        raise DomainError("a value of the output is past the float range") from None


def write_json(obj, path) -> None:
    write_text(path, dumps_json(obj))


def write_csv(header: Sequence[str], rows: Sequence[Sequence], path) -> None:
    lines = [",".join(header)]
    lines += [",".join(csv_cell(v) for v in row) for row in rows]
    write_text(path, "\n".join(lines) + "\n")


@dataclass
class RunManifest:
    """Reproducibility record for one CLI invocation."""

    command: str
    params: dict
    version: str
    outputs: List[str]

    def to_json_dict(self) -> dict:
        return dict(vars(self))

    def save(self, path) -> None:
        write_json(self.to_json_dict(), path)


def manifest_path_for(output_path) -> Path:
    return Path(str(output_path) + MANIFEST_SUFFIX)
