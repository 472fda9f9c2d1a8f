"""Compare two result files written by ``run.py --out``.

``python3 benchmarks/spine/compare.py A.json B.json`` prints, per
workload and end-to-end metric, both medians with their min/max, the
change of B against A, the metric's bound and a verdict:

``better``        B's median is better than A's by more than the bound
``within-bound``  the medians differ by no more than the bound
``worse``         B's median is worse than A's by more than the bound
``unresolved``    the runs of one side spread wider than the bound and
                  the two sides' runs overlap, so the medians say nothing

It refuses to compare results whose input digests differ (they ran
different inputs) and exits non-zero when any metric is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.spine import spec  # noqa: E402

#: name -> (better, bound). failed_ratio may not grow at all.
RULES = {
    **{m.name: (m.better, m.bound) for m in spec.END_TO_END},
    **{name: (
        next(m.better for m in spec.PER_LAYER if m.name == name), bound
    ) for name, bound in spec.INGEST_BOUNDS.items()},
    "failed_ratio": ("lower", 0.0),
}


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(relative worsening of B against A, verdict)``."""
    sign = 1.0 if better == "lower" else -1.0
    if not a["median"]:
        worsening = sign * (b["median"] - a["median"])
    else:
        worsening = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(
        (side["max"] - side["min"]) / side["median"] if side["median"] else 0.0
        for side in (a, b)
    )
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap and bound:
        return worsening, "unresolved"
    if worsening > bound:
        return worsening, "worse"
    if worsening < -bound:
        return worsening, "better"
    return worsening, "within-bound"


def compare(a: dict, b: dict) -> int:
    """Print the comparison; return the number of ``worse`` verdicts."""
    for label, result in (("A", a), ("B", b)):
        environment = result["environment"]
        print(
            f"{label}: commit {environment['commit'][:12]} "
            f"python {environment['python']} nproc {environment['nproc']} "
            f"seed {environment['seed']} seconds {environment['seconds']} "
            f"repeats {environment['repeats']} "
            f"load {environment['load_1min_before']:.2f}"
            f"->{environment.get('load_1min_after', 0.0):.2f}"
            + ("  NOISY" if environment.get("noisy") else "")
        )
    worse = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"== {name}: only in A")
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        if left["digest"] != right["digest"]:
            raise SystemExit(
                f"{name}: input digests differ, the results are not "
                f"comparable\n  A {left['digest']}\n  B {right['digest']}"
            )
        print(f"== {name}")
        for metric, (better, bound) in RULES.items():
            x = left["end_to_end"].get(metric)
            y = right["end_to_end"].get(metric)
            if x is None or y is None:
                continue
            if metric != "failed_ratio" and not (x["median"] or y["median"]):
                continue  # not measured on this workload
            change, outcome = verdict(x, y, better, bound)
            worse += outcome == "worse"
            print(
                f"  {metric:24s} A {x['median']:11.4f} "
                f"[{x['min']:.4f}..{x['max']:.4f}]  "
                f"B {y['median']:11.4f} [{y['min']:.4f}..{y['max']:.4f}]  "
                f"{change:+8.2%} of A {x['median']:.4f} "
                f"({better} is better, bound {bound:.0%})  {outcome}"
            )
    return worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    worse = compare(a, b)
    print(f"{worse} metric(s) worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
