#!/usr/bin/env python3
"""Checks the shape of Fig. 3 (strong scaling) in fig3_strong_scaling's
stdout: for cube and for sphere, Yukawa's parallel efficiency at the
largest core count must be at least Laplace's, as in the paper (74% vs
60% on cube, 69% vs 62% on sphere, at 4096 cores).  Prints both pairs;
exit 0 when the shape holds, 1 when it does not or the output cannot be
read.

Usage: fig3_strong_scaling | check_fig3_shape.py [FILE]   (default stdin)
"""

import re
import sys

SECTION = re.compile(r"^(cube|sphere)\s+(Laplace|Yukawa)\s*$")
ROW = re.compile(r"^\s*(\d+)\s+\S+\s+\S+\s+([\d.]+)%")


def largest_core_efficiency(lines):
    """{(distribution, kernel): (cores, efficiency %)} at the largest cores."""
    out, key = {}, None
    for line in lines:
        m = SECTION.match(line)
        if m:
            key = (m.group(1), m.group(2))
            continue
        m = ROW.match(line)
        if key and m:
            cores, eff = int(m.group(1)), float(m.group(2))
            if key not in out or cores > out[key][0]:
                out[key] = (cores, eff)
    return out


def main(argv):
    with (open(argv[1], encoding="utf-8") if len(argv) > 1 else sys.stdin) as f:
        eff = largest_core_efficiency(f.read().splitlines())
    ok = True
    for dist in ("cube", "sphere"):
        lap, yuk = eff.get((dist, "Laplace")), eff.get((dist, "Yukawa"))
        if lap is None or yuk is None:
            print(f"fig3 shape: no {dist} Laplace/Yukawa table",
                  file=sys.stderr)
            return 1
        holds = yuk[1] >= lap[1]
        ok = ok and holds
        print(f"fig3 shape: {dist} at {lap[0]} cores: Yukawa {yuk[1]:.1f}% "
              f"{'>=' if holds else '<'} Laplace {lap[1]:.1f}%")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
