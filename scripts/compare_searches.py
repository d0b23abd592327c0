"""Seeded first-contact searches run on two source trees, outcomes compared bit for bit.

    git archive <rev> src | tar -x -C /tmp/base
    python3 scripts/compare_searches.py /tmp/base/src

One subprocess per tree (this repository's ``src`` and the one given) runs
the same seeded draws and prints one outcome per draw: the repr of the result
or the name of the exception raised.  The departures go through
``poincare.next_crossing`` (a side the field allows, x_i on the contact
lattice 2k/3, uniform in [0, 200] or up to 4e7, a log-uniform in
[1e-3, 100]); the starts go through
``analytic_flow.next_contact`` (interior starts on the threshold level,
starts on or off a layer boundary y = +-eps, departures y0 = level = 0, each
with x_end infinite or a few periods on).  The script prints the number of
draws of each kind and of those whose outcomes differ, a few of them, and
exits 1 when any differs.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEPARTURES = 30001
CONTACTS = 20000


def departure_draws(n: int):
    import numpy as np
    from switchosc.core import departure_ok
    rng = np.random.default_rng(38)
    for k in range(n):
        sign = 1 if rng.random() < 0.5 else -1
        a = float(10.0 ** rng.uniform(-3.0, 2.0))
        x_i = (2.0 * int(rng.integers(0, 3000)) / 3.0 if k % 3 == 0
               else float(rng.uniform(0.0, 200.0)) if k % 3 == 1
               else float(rng.uniform(0.0, 4e7)))
        # the side the field allows, where there is one
        yield (sign if departure_ok(sign, x_i) else -sign), x_i, a


def contact_draws(n: int):
    import numpy as np
    rng = np.random.default_rng(39)
    for k in range(n):
        sign = 1 if rng.random() < 0.5 else -1
        a = float(10.0 ** rng.uniform(-3.0, 1.0))
        eps = float(10.0 ** rng.uniform(-3.0, -2.0))
        x0 = float(rng.uniform(0.0, 200.0))
        kind = k % 4
        if kind == 0:  # interior start, threshold level
            y0, level = sign * float(rng.uniform(1e-3, 1.0)), 0.0
        elif kind == 1:  # on the layer boundary
            y0 = level = sign * eps
        elif kind == 2:  # off the layer boundary, outside the strip
            level = sign * eps
            y0 = level * float(rng.uniform(1.0 + 1e-6, 1.5))
        else:  # a threshold departure
            y0 = level = 0.0
        x_end = math.inf if rng.random() < 0.5 else x0 + float(rng.uniform(0.0, 20.0))
        yield sign, x0, y0, level, a, eps, x_end


def worker() -> None:
    from switchosc.analytic_flow import next_contact
    from switchosc.core import OscillatorParams
    from switchosc.poincare import next_crossing

    def outcome(fn, *args):
        try:
            return repr(fn(*args))
        except Exception as exc:  # the outcome compared is the exception's type
            return type(exc).__name__

    for sign, x_i, a in departure_draws(DEPARTURES):
        print("D", outcome(next_crossing, sign, x_i, OscillatorParams(a=a)))
    for sign, x0, y0, level, a, eps, x_end in contact_draws(CONTACTS):
        p = OscillatorParams(a=a, epsilon=eps)
        print("C", outcome(next_contact, sign, x0, y0, level, p, x_end))


def run(src: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run([sys.executable, __file__, "--worker"],
                         env=env, capture_output=True, text=True, check=True)
    return res.stdout.splitlines()


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        worker()
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("other_src", type=Path, help="the src directory of the other tree")
    args = ap.parse_args(argv)
    ours = run(ROOT / "src")
    theirs = run(args.other_src.resolve())
    differ = [(i, a, b) for i, (a, b) in enumerate(zip(ours, theirs)) if a != b]
    for kind, name in (("D", "departures"), ("C", "contact starts")):
        n = sum(line[0] == kind for line in ours)
        d = sum(a[0] == kind for _, a, _ in differ)
        print(f"{name}: {n} draws, {d} differ")
    for i, a, b in differ[:10]:
        print(f"  draw {i}: {a} here, {b} there")
    return 1 if differ or len(ours) != len(theirs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
