"""Self-test of the benchmark on the small class of every workload.

Usage: ``python3 perfbench/selftest.py`` from the repository root.
Exits 0 when every check passes. It checks that

* correct known answers give an error rate of 0;
* a deliberately wrong known answer on every input gives an error rate of 1;
* the span tree of each workload holds the layers it should, and the
  traced counts match the pipeline (Lambda built 5 times per projective
  call whose criterion holds, no anchor system outside the Exists branch);
* every span lies inside its parent, in the same call, so no self time
  is negative; the layers' self times add up to the time in the root
  ``cli.main`` spans, and the untraced remainder (traced wall time minus
  those roots) is not negative;
* a name in a layer's ``__all__`` with nothing to wrap stops the tracer;
* uninstalling the tracer restores every original binding.
"""

from __future__ import annotations

import copy
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (caps BLAS threads before numpy is imported)
import gen  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import realcalc.cli as cli  # noqa: E402
from realcalc import liealg  # noqa: E402

SMALL = ("small",)
EXPECTED_LAYERS = {
    "row-exists": {"cli", "matlin", "liealg", "cncalc"},
    "row-obstructed": {"cli", "matlin", "liealg", "cncalc"},
    "proj-trivial": {"cli", "matlin", "liealg", "projcalc"},
}


def wrong(answer: dict) -> dict:
    out = dict(answer)
    if "status" in out:
        out["status"] = "Nonexistent" if out["status"] == "Exists" else "Exists"
    else:
        out["holds"] = not out["holds"]
    return out


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def bindings() -> dict:
    """Every value bound in a realcalc namespace, plus the traced constructors."""
    out = {(key, attr): value for key, mod in sys.modules.items()
           if key == "realcalc" or key.startswith("realcalc.") for attr, value in vars(mod).items()}
    for layer, names in spans.CONSTRUCTORS.items():
        for name in names:
            cls = getattr(sys.modules[f"realcalc.{layer}"], name)
            out[(name, "__init__")] = cls.__dict__["__init__"]
    return out


def main() -> int:
    failures: list[str] = []
    workroot = Path("perfbench") / ".work" / "selftest"
    os.chdir(ROOT)
    before = bindings()
    try:
        seen_layers: set[str] = set()
        for name in gen.WORKLOADS:
            workdir = workroot / name
            gen.write_specs(name, 0, ROOT, workdir)
            wl = harness.load(workdir)
            res = wl.run(cli, 0.0, 1, 0, classes=SMALL)
            check(res.attempted > 0 and res.failed == 0,
                  f"{name}: correct answers give error rate 0 ({res.failed}/{res.attempted})", failures)

            bad = harness.load(workdir)
            bad.kinds = copy.deepcopy(bad.kinds)
            for kind in bad.kinds:
                for f in kind["files"]:
                    f["answer"] = wrong(f["answer"])
            res = bad.run(cli, 0.0, 1, 0, classes=SMALL)
            check(res.failed == res.attempted,
                  f"{name}: wrong answers give error rate 1 ({res.failed}/{res.attempted})", failures)

            tracer = spans.Tracer()
            tracer.install()
            try:
                res = wl.run(cli, 0.0, 1, 0, classes=SMALL,
                             on_call=lambda: setattr(tracer, "call_id", tracer.call_id + 1))
            finally:
                tracer.uninstall()
            layers = {rec[spans.NAME].split(".")[0] for rec in tracer.spans}
            seen_layers |= layers
            check(layers == EXPECTED_LAYERS[name], f"{name}: span layers {sorted(layers)}", failures)
            roots = [rec for rec in tracer.spans if rec[spans.PARENT] < 0]
            check(len(roots) == res.attempted and all(r[spans.NAME] == "cli.main" for r in roots),
                  f"{name}: one cli.main root span per call", failures)

            outside = [rec[spans.NAME] for rec in tracer.spans if rec[spans.PARENT] >= 0 and not (
                tracer.spans[rec[spans.PARENT]][spans.START] <= rec[spans.START] <= rec[spans.END]
                <= tracer.spans[rec[spans.PARENT]][spans.END]
                and tracer.spans[rec[spans.PARENT]][spans.CALL] == rec[spans.CALL])]
            check(not outside, f"{name}: every span lies inside its parent {outside[:3]}", failures)
            check(min(spans.self_times(tracer.spans)) >= -1e-9, f"{name}: no negative self time", failures)
            values = run.per_layer(tracer, res, [], [0.0], 0.0)
            layers_s = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
            roots_s = sum(r[spans.END] - r[spans.START] for r in roots) / res.cycles
            check(math.isclose(layers_s, roots_s, rel_tol=1e-9),
                  f"{name}: layer self times add up to the root cli.main spans", failures)
            check(values["trace.remainder_s"] >= 0.0, f"{name}: untraced remainder is not negative", failures)
            check(math.isclose(layers_s + values["trace.remainder_s"], values["trace.wall_s"], rel_tol=1e-9),
                  f"{name}: layer self times + remainder = traced wall time", failures)

            lam: dict[int, int] = {}
            for rec in tracer.spans:
                if rec[spans.NAME] == "projcalc.lambda_tensor":
                    lam[rec[spans.CALL]] = lam.get(rec[spans.CALL], 0) + 1
            answers = {k["name"]: k["files"][0]["answer"] for k in wl.kinds}
            if wl.command == "projective":
                wrong_counts = [
                    (sample.kind, lam.get(call, 0))
                    for call, sample in enumerate(res.samples)
                    if lam.get(call, 0) != (5 if answers[sample.kind]["holds"] else 2)
                ]
                check(not wrong_counts,
                      f"{name}: Lambda built 5 times per call that holds, 2 per call that fails {wrong_counts}",
                      failures)
            anchors = sum(rec[spans.NAME] == "liealg.anchor_solution_space" for rec in tracer.spans)
            if name != "row-exists":
                check(anchors == 0, f"{name}: no anchor_solution_space calls ({anchors})", failures)
        check(seen_layers == set(spans.LAYERS), "every layer appears in some span tree", failures)

        after = bindings()
        check(before.keys() == after.keys() and all(before[k] is after[k] for k in before),
              "uninstall restores the original bindings", failures)

        liealg.__all__.append("renamed_away")
        tracer = spans.Tracer()
        try:
            tracer.install()
            raised = False
        except spans.MissingSpan:
            raised = True
        finally:
            tracer.uninstall()
            liealg.__all__.remove("renamed_away")
        check(raised, "a name in __all__ with no binding stops the traced run", failures)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
