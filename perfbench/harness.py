"""Closed loop over a workload's fixed mix of generated spec files.

One client in one process: each ``realcalc.cli.main`` call starts only
after the previous report has been written and checked. A cycle makes
one call of every kind, visiting the kind's seeded pool in turn; the
loop runs whole cycles, so every run measures the same mix.

The speed of a shared machine drifts by a third and more over seconds.
Between calls the loop therefore times a fixed reference kernel, so that
each call can be put on a common scale: wall time times ``REFERENCE_S``
over the mean kernel time just before and just after the call.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import verify

# About the median time of reference_kernel() between calls on the machine the
# benchmark was tuned on (2-vCPU Xeon at 2.1 GHz, numpy 2.4.6 with
# OpenBLAS); scaled times read as seconds on that machine.
REFERENCE_S = 0.55e-3

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))


def _reference_mix() -> None:
    """Interpreter arithmetic and small dense linear algebra.

    In the slow periods of the tuning machine these slowed by about as
    much as small calls did (1.4x); JSON round trips slowed by 1.9x and
    made slow-period calls read 15% fast.
    """
    total = 0
    for i in range(2000):
        total += i * i
    np.linalg.svd(_MATRIX)
    np.einsum("ij,jk->ik", _MATRIX, _MATRIX)


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    The mix runs once untimed first. Right after a call the caches hold
    the call's data, and a first run read 10 to 27% slower after large
    calls than after small ones; the second run depends far less on what
    the call left behind.
    """
    _reference_mix()
    t0 = time.perf_counter()
    _reference_mix()
    return time.perf_counter() - t0


@dataclass
class Sample:
    kind: str
    klass: str
    seconds: float
    before_s: float  # reference-kernel time just before the call
    after_s: float  # reference-kernel time just after the call
    ok: bool
    report_bytes: int

    @property
    def reference_s(self) -> float:
        return 0.5 * (self.before_s + self.after_s)

    @property
    def scaled_s(self) -> float:
        """Wall time put on the reference machine's scale."""
        return self.seconds * REFERENCE_S / self.reference_s


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    cycles: int = 0
    cycle_rates: list[float] = field(default_factory=list)  # scaled calls per second of each cycle
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)


class Workload:
    """A manifest written by :func:`gen.write_specs`, ready to call."""

    def __init__(self, manifest: dict, out_path: Path):
        self.out_path = out_path
        self.command = manifest["command"]
        self.format = manifest["format"]
        self.kinds = manifest["kinds"]
        # Cycles needed to visit every file of every kind at least once.
        self.pool = max(len(kind["files"]) for kind in self.kinds)
        # First report on each input; every later report must repeat it.
        self.reports: dict[str, bytes] = {}
        self._last_reference = reference_kernel()
        # Basis matrices for the independent eigenvector check of witnesses.
        self.bases = {
            f["path"]: verify.load_basis(f["path"])
            for kind in self.kinds
            for f in kind["files"]
            if f["answer"].get("status") == "Exists"
        }

    def cycle_plan(self, cycle: int, classes: tuple[str, ...]) -> list[tuple[dict, dict]]:
        plan = []
        for kind in self.kinds:
            if kind["class"] not in classes:
                continue
            plan.append((kind, kind["files"][cycle % len(kind["files"])]))
        return plan

    def call(self, cli, kind: dict, entry: dict, result: LoopResult, on_call=None) -> None:
        """One call from argv to a checked report, appended to ``result``."""
        path = entry["path"]
        argv = [self.command, path, "--format", self.format, "--output", str(self.out_path)]
        if on_call is not None:
            on_call()
        t0 = time.perf_counter()
        problem = None
        data = b""
        try:
            rc = cli.main(argv)
            if rc != 0:
                problem = f"exit status {rc}"
            else:
                data = self.out_path.read_bytes()
                text = data.decode("utf-8")
                first = self.reports.setdefault(path, data)
                if data != first:
                    problem = "report differs from an earlier report on the same input"
                elif self.command == "analyze":
                    problem = verify.check_analyze(text, entry["answer"], self.bases.get(path))
                else:
                    problem = verify.check_projective(text, entry["answer"])
        except (Exception, SystemExit):
            problem = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        before, self._last_reference = self._last_reference, reference_kernel()
        result.samples.append(Sample(kind["name"], kind["class"], seconds, before, self._last_reference,
                                     problem is None, len(data)))
        if problem is not None and len(result.errors) < 10:
            result.errors.append(f"{kind['name']} {path}: {problem}")

    def warm_up(self, cli) -> LoopResult:
        """One untimed call per kind, so lazy set-up inside numpy is done."""
        result = LoopResult()
        for kind in self.kinds:
            self.call(cli, kind, kind["files"][0], result)
        return result

    def run(self, cli, seconds: float, min_cycles: int, min_small: int,
            classes=("small", "large"), on_call=None) -> LoopResult:
        """Whole cycles until ``seconds`` have passed and the minimums are met."""
        result = LoopResult()
        start = time.perf_counter()
        self._last_reference = reference_kernel()
        while True:
            plan = self.cycle_plan(result.cycles, classes)
            for kind, entry in plan:
                self.call(cli, kind, entry, result, on_call)
            result.cycles += 1
            result.cycle_rates.append(len(plan) / sum(s.scaled_s for s in result.samples[-len(plan):]))
            elapsed = time.perf_counter() - start
            small = sum(s.klass == "small" for s in result.samples)
            if elapsed >= seconds and result.cycles >= min_cycles and small >= min_small:
                break
        return result

    def report_digest(self) -> str:
        """sha256 over one report per spec file, in manifest order."""
        digest = hashlib.sha256()
        for kind in self.kinds:
            for f in kind["files"]:
                digest.update(self.reports.get(f["path"], b""))
        return digest.hexdigest()


def load(workdir: Path) -> Workload:
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    return Workload(manifest, workdir / "report.out")
