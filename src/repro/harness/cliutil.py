"""Shared CLI conventions for the ``python -m repro`` subcommands.

Every subcommand follows the same contract (documented in README):

* exit ``0`` on success,
* exit ``1`` when the requested check failed (regression over threshold,
  unhandled fault, trace mismatch, lint finding, ...),
* exit ``2`` for usage errors (argparse's own convention) — including
  bad numeric input and unreadable or malformed input files, never a
  traceback,
* accept ``--seed`` so invocations stay uniform across subcommands,
  even where the underlying computation is seed-independent.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

__all__ = ["EXIT_OK", "EXIT_FAILURE", "EXIT_USAGE", "add_run_arguments",
           "add_seed_argument", "load_input", "non_negative_int",
           "positive_float"]

#: Success.
EXIT_OK = 0
#: The command ran but its check failed (regression, mismatch, finding).
EXIT_FAILURE = 1
#: Usage error — argparse exits with this on bad arguments.
EXIT_USAGE = 2

T = TypeVar("T")


def positive_float(text: str) -> float:
    """argparse type: a finite number greater than zero."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type: an integer that is zero or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative, got {text!r}")
    return value


def add_seed_argument(parser: argparse.ArgumentParser,
                      default: int = 0,
                      help_suffix: str = "") -> None:
    """Attach the uniform ``--seed`` option to *parser*."""
    text = f"base RNG seed (default {default})"
    if help_suffix:
        text += f"; {help_suffix}"
    parser.add_argument("--seed", type=int, default=default, help=text)


def add_run_arguments(parser: argparse.ArgumentParser, *, scale: float,
                      jobs: Sequence[str] = ("--jobs",),
                      mode: str = "", seed_help: str = "") -> None:
    """Attach the shared run arguments to *parser*.

    ``--scale`` (positive and finite, default ``scale``) and ``--seed``
    always; ``--jobs`` under the flags in ``jobs`` (none: no option);
    ``--mode`` when ``mode`` names its spelling — ``"value"``
    (``Aff-Alloc``, the main parser's) or ``"name"`` (``AFF_ALLOC``,
    the subcommands') — defaulting to the affinity-aware engine.
    """
    parser.add_argument("--scale", type=positive_float, default=scale,
                        help=f"workload scale, a fraction of Table 3 input "
                             f"sizes (default {scale})")
    add_seed_argument(parser, help_suffix=seed_help)
    if jobs:
        parser.add_argument(*jobs, dest="jobs", type=int, default=1,
                            help="worker processes (default 1)")
    if mode:
        from repro.nsc.engine import EngineMode
        choices = [getattr(m, mode) for m in EngineMode]
        default = getattr(EngineMode.AFF_ALLOC, mode)
        parser.add_argument("--mode", default=default, choices=choices,
                            help=f"engine mode (default {default})")


def _read_json(path: Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def load_input(parser: argparse.ArgumentParser, path: Path, what: str,
               load: Callable[[Path], T] = _read_json) -> T:
    """``load(path)``; a missing, unreadable or malformed file is a
    usage error (exit 2 with a one-line message), not a traceback."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot load {what} {path}: {exc}")
