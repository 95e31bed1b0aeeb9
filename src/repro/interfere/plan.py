"""Typed host-traffic plans: who the host hammers, how hard, and when.

A :class:`HostTrafficPlan` is an ordered tuple of :class:`HostStream`\\ s.
Plans are either authored explicitly (tests pin canonical plans as JSON
files) or generated from a seed + intensity, in which case generation is
fully deterministic: the same ``(seed, intensity, config)`` always yields
the same plan, independent of host, process count, or interning.

Stream semantics (the ``tile``/``targets`` encoding per kind):

=============  =======================  ================================
kind           tile                     targets
=============  =======================  ================================
``READ``       host injection tile      LLC banks read each epoch
``WRITE``      host injection tile      LLC banks written each epoch
``ATOMIC``     host injection tile      LLC banks hit with atomics
``LINK``       source tile              destination tiles (raw transfers)
=============  =======================  ================================

``intensity`` is the mean message count the stream issues per NDC epoch
(the engine charges one batch at every :meth:`RunRecorder.end_phase`).
``burst`` in ``[0, 1)`` modulates each epoch's count by a seeded factor
in ``[1-burst, 1+burst]`` drawn from ``default_rng([seed, stream, epoch])``
— independent of intensity, so scaling a plan up or down never changes
the burst pattern and slowdown stays monotone in intensity.
``start``/``stop`` gate the stream to an epoch window (``stop=-1`` means
"until the run ends").
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.spine import digest

__all__ = ["HostStreamKind", "HostStream", "HostTrafficPlan",
           "burst_multiplier", "predict_host_injection"]


class HostStreamKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    ATOMIC = "atomic"
    LINK = "link"


#: Stream kinds whose targets are LLC banks (and therefore follow IOT
#: re-homes when chaos retires a bank mid-run).
BANK_KINDS = (HostStreamKind.READ, HostStreamKind.WRITE,
              HostStreamKind.ATOMIC)


def burst_multiplier(seed: int, stream_idx: int, epoch: int,
                     burst: float) -> float:
    """Per-epoch intensity modulation factor in ``[1-burst, 1+burst]``.

    Keyed by (plan seed, stream index, epoch index) only — deliberately
    *not* by intensity — so :meth:`HostTrafficPlan.scaled` sweeps are
    strictly monotone and the pure predictor replays the engine exactly.
    """
    if burst <= 0.0:
        return 1.0
    u = float(np.random.default_rng([seed, stream_idx, epoch]).random())
    return 1.0 + burst * (2.0 * u - 1.0)


@dataclass(frozen=True)
class HostStream:
    """One typed host traffic stream; immutable so plans hash/compare."""

    kind: HostStreamKind
    tile: int
    targets: Tuple[int, ...]
    intensity: float
    start: int = 0
    stop: int = -1
    burst: float = 0.0

    def __post_init__(self) -> None:
        if self.tile < 0:
            raise ValueError(f"tile must be non-negative, got {self.tile}")
        if not self.targets:
            raise ValueError("stream must name at least one target")
        if any(t < 0 for t in self.targets):
            raise ValueError("targets must be non-negative")
        if self.intensity < 0.0:
            raise ValueError(
                f"intensity must be non-negative, got {self.intensity}")
        if not (0.0 <= self.burst < 1.0):
            raise ValueError(f"burst must be in [0, 1), got {self.burst}")
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if self.stop != -1 and self.stop <= self.start:
            raise ValueError("stop must be -1 or greater than start")

    def active(self, epoch: int) -> bool:
        return self.start <= epoch and (self.stop < 0 or epoch < self.stop)

    def describe(self) -> str:
        window = (f"epochs {self.start}.." if self.stop < 0
                  else f"epochs {self.start}..{self.stop}")
        tgt = ",".join(str(t) for t in self.targets)
        noun = "tiles" if self.kind is HostStreamKind.LINK else "banks"
        extra = f", burst {self.burst:.2f}" if self.burst else ""
        return (f"host {self.kind.value} from tile {self.tile} onto "
                f"{noun} [{tgt}] @ {self.intensity:g} msg/epoch "
                f"({window}{extra})")

    def to_dict(self) -> Dict:
        return {"kind": self.kind.value, "tile": self.tile,
                "targets": list(self.targets),
                "intensity": self.intensity, "start": self.start,
                "stop": self.stop, "burst": self.burst}

    @classmethod
    def from_dict(cls, d: Dict) -> "HostStream":
        return cls(kind=HostStreamKind(d["kind"]), tile=int(d["tile"]),
                   targets=tuple(int(t) for t in d["targets"]),
                   intensity=float(d["intensity"]),
                   start=int(d.get("start", 0)),
                   stop=int(d.get("stop", -1)),
                   burst=float(d.get("burst", 0.0)))


@dataclass(frozen=True)
class HostTrafficPlan:
    """An ordered, immutable set of host streams to run against one NDC
    run.  The empty plan is the clean host: attaching it is a no-op and
    runs stay byte-identical to uncontended ones."""

    streams: Tuple[HostStream, ...] = ()
    seed: int = 0
    intensity: float = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "HostTrafficPlan":
        return cls(streams=())

    @property
    def is_empty(self) -> bool:
        return not self.streams

    def by_kind(self, kind: HostStreamKind) -> List[HostStream]:
        return [s for s in self.streams if s.kind is kind]

    def scaled(self, factor: float) -> "HostTrafficPlan":
        """Same streams, intensities multiplied by ``factor``.

        Burst modulation is keyed by (seed, stream, epoch) only, so a
        scaled plan replays the identical burst pattern — the basis of
        the monotone-slowdown property the tests pin.
        """
        if factor < 0.0:
            raise ValueError("scale factor must be non-negative")
        return HostTrafficPlan(
            streams=tuple(replace(s, intensity=s.intensity * factor)
                          for s in self.streams),
            seed=self.seed, intensity=self.intensity * factor)

    # ------------------------------------------------------------------
    # Serialization (tests pin canonical plans as JSON)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return {"seed": self.seed, "intensity": self.intensity,
                "streams": [s.to_dict() for s in self.streams]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: Dict) -> "HostTrafficPlan":
        return cls(streams=tuple(HostStream.from_dict(s)
                                 for s in d.get("streams", [])),
                   seed=int(d.get("seed", 0)),
                   intensity=float(d.get("intensity", 0.0)))

    @classmethod
    def from_json(cls, text: str) -> "HostTrafficPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, os.PathLike]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "HostTrafficPlan":
        return cls.from_json(Path(path).read_text())

    def digest(self) -> str:
        """Stable 12-hex fingerprint, used to extend run cache keys."""
        return digest(self.to_dict())

    # ------------------------------------------------------------------
    @classmethod
    def generate(cls, seed: int, intensity: float = 1.0,
                 config: SystemConfig = DEFAULT_CONFIG) -> "HostTrafficPlan":
        """Seeded random plan; the draw order below is part of the format.

        Stream categories are drawn in a fixed order (hot banks, reads,
        writes, one atomic stream, link streams) from one
        ``default_rng(seed)`` stream, so a ``(seed, intensity)`` pair
        names exactly one plan forever.  The shape mirrors a host that
        keeps working while NDC runs: corner-tile memory controllers
        streaming over a hot subset of banks, plus DMA-style tile-to-tile
        transfers crossing the mesh center.
        """
        if not 0.0 <= intensity < math.inf:
            raise ValueError("host intensity must be finite and "
                             f"non-negative, got {intensity}")
        rng = np.random.default_rng(seed)
        streams: List[HostStream] = []
        if intensity == 0.0:
            return cls(streams=(), seed=seed, intensity=0.0)

        nb = config.num_banks
        w, h = config.noc.width, config.noc.height
        corners = (0, w - 1, (h - 1) * w, w * h - 1)

        # Hot-bank working set: ~1/8 of the banks, at least 2.
        n_hot = max(2, nb // 8)
        hot = np.sort(rng.choice(nb, size=min(n_hot, nb), replace=False))
        hot_tuple = tuple(int(b) for b in hot.tolist())

        # Read streams from every corner over the hot set.
        base = 24.0 * intensity
        for c in corners:
            streams.append(HostStream(
                HostStreamKind.READ, int(c), hot_tuple,
                intensity=base * float(0.75 + 0.5 * rng.random()),
                burst=float(0.25 * rng.random())))

        # Write-backs from two opposite corners over half the hot set.
        half = hot_tuple[: max(1, len(hot_tuple) // 2)]
        for c in (corners[0], corners[3]):
            streams.append(HostStream(
                HostStreamKind.WRITE, int(c), half,
                intensity=0.5 * base * float(0.75 + 0.5 * rng.random()),
                burst=float(0.25 * rng.random())))

        # One atomic stream on the single hottest bank (lock word / queue
        # tail shared with the host).
        hottest = hot_tuple[int(rng.integers(0, len(hot_tuple)))]
        streams.append(HostStream(
            HostStreamKind.ATOMIC, int(corners[1]), (int(hottest),),
            intensity=0.25 * base))

        # DMA-style link streams crossing the center of the mesh.
        center = (h // 2) * w + w // 2
        for c in (corners[0], corners[2]):
            streams.append(HostStream(
                HostStreamKind.LINK, int(c), (int(center),),
                intensity=0.5 * base * float(0.75 + 0.5 * rng.random())))

        return cls(streams=tuple(streams), seed=seed,
                   intensity=float(intensity))

    def describe(self) -> List[str]:
        return [s.describe() for s in self.streams]

    def __str__(self) -> str:
        if self.is_empty:
            return "HostTrafficPlan(empty)"
        lines = [f"HostTrafficPlan(seed={self.seed}, "
                 f"intensity={self.intensity:g}, "
                 f"{len(self.streams)} streams)"]
        lines += [f"  - {s.describe()}" for s in self.streams]
        return "\n".join(lines)


def predict_host_injection(plan: HostTrafficPlan, epochs: int,
                           num_banks: int) -> Dict[str, np.ndarray]:
    """Pure replay of the engine's injection algebra — no machine needed.

    Returns the plan-space (pre-IOT-remap) per-bank access and atomic
    vectors plus the total message count after ``epochs`` host epochs.
    The INT006 analysis check compares these against what an
    :class:`~repro.interfere.engine.InterferenceState` actually charged;
    any divergence means the engine and the model disagree about the
    injected contention.
    """
    accesses = np.zeros(num_banks, dtype=np.float64)
    atomics = np.zeros(num_banks, dtype=np.float64)
    messages = 0.0
    for epoch in range(epochs):
        for idx, s in enumerate(plan.streams):
            if not s.active(epoch) or s.intensity <= 0.0:
                continue
            n = s.intensity * burst_multiplier(plan.seed, idx, epoch, s.burst)
            targets = np.asarray(s.targets, dtype=np.int64)
            per = n / targets.size
            if s.kind is HostStreamKind.READ:
                # request + line response per message, one bank access
                np.add.at(accesses, targets[targets < num_banks], per)
                messages += 2.0 * n
            elif s.kind is HostStreamKind.WRITE:
                # request + response + writeback, two bank accesses
                np.add.at(accesses, targets[targets < num_banks], 2.0 * per)
                messages += 3.0 * n
            elif s.kind is HostStreamKind.ATOMIC:
                np.add.at(atomics, targets[targets < num_banks], per)
                messages += n
            else:  # LINK: raw transfer, no bank involvement
                messages += n
    return {"bank_accesses": accesses, "bank_atomics": atomics,
            "messages": np.float64(messages)}
