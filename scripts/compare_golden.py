#!/usr/bin/env python3
"""Runs a command and compares its stdout with a committed expected output.

Text and integers must match exactly.  A decimal number must match within
one unit of its last printed digit (0.0187 accepts 0.0186..0.0188), so a
last-digit rounding difference between compilers passes and any real move
of a figure fails.  Exit 0 on a match; otherwise one line per differing
output line and exit 1.

Usage: compare_golden.py EXPECTED -- COMMAND [ARGS...]

A change that moves a figure on purpose regenerates EXPECTED from the
command's output and says why in CHANGES.md.
"""

import re
import subprocess
import sys

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def tokens(line):
    """Splits a line into (text pieces, number strings)."""
    return NUMBER.split(line), NUMBER.findall(line)


def unit(num):
    """One unit of the last printed digit of a decimal; None for an integer."""
    mant, _, exp = num.lower().partition("e")
    if "." not in mant and not exp:
        return None
    digits = len(mant.split(".")[1]) if "." in mant else 0
    return 10.0 ** (int(exp or 0) - digits)


def same_line(want, got):
    want_text, want_nums = tokens(want)
    got_text, got_nums = tokens(got)
    if want_text != got_text or len(want_nums) != len(got_nums):
        return False
    for w, g in zip(want_nums, got_nums):
        u = unit(w)
        if u is None:
            if w != g:
                return False
        elif abs(float(w) - float(g)) > u * (1.0 + 1e-9):
            return False
    return True


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        want = f.read().splitlines()
    run = subprocess.run(argv[3:], stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        print(f"command exited {run.returncode}", file=sys.stderr)
        return 1
    got = run.stdout.splitlines()
    bad = 0
    for i in range(max(len(want), len(got))):
        w = want[i] if i < len(want) else "<missing>"
        g = got[i] if i < len(got) else "<missing>"
        if not same_line(w, g):
            bad += 1
            print(f"line {i + 1}:\n  expected: {w}\n  got:      {g}")
    if bad:
        print(f"{bad} line(s) differ from {argv[1]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
