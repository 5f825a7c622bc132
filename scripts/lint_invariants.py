#!/usr/bin/env python3
"""Repository concurrency/robustness invariant linter.

Machine-checkable rules the code review relies on:

  1. threading-primitives: raw std::thread / std::mutex /
     std::condition_variable only inside src/runtime/ (the execution
     substrate) and src/rtcheck/ (the model checker's own machinery).
     Everything else goes through the Executor interface or SyncMutex /
     SyncCondVar.  Escape: `// thread-ok: <reason>` on the line or within
     two lines above, for the rare documented exception.

  2. relaxed-ordering: `memory_order_relaxed` needs a
     `// relaxed-ok: <reason>` comment (same line or up to two lines
     above) stating why the weak order is safe.  Exempt files, where
     relaxed is the reviewed default: src/runtime/counters.* (sharded
     statistics, snapshot() documents the merge ordering),
     src/runtime/ws_deque.hpp (the Chase-Lev memory-order table lives in
     DESIGN.md §3d), src/runtime/sync_hook.hpp (hook dispatch constants,
     not atomic operations), src/runtime/net/ transport and executor
     (NetStats diagnostic counters, and termination-protocol counts whose
     soundness rests on two-round stability, not ordering — DESIGN.md §5),
     and src/rtcheck/ (the harness serializes all model threads; its
     control flags carry no data).

  3. payload-raw-pointers: parcel payload structs (serialized with memcpy
     and shipped between localities) must not contain raw pointers —
     addresses are meaningless on the wire.  Checked structurally for the
     known wire structs: WireRecord, ParcelHeader, SectionHeader,
     ContribHeader.

  4. seeded-randomness: no rand()/srand()/std::random_device in src/ —
     every stochastic component (PCT exploration, benchmark point clouds)
     takes an explicit seed so runs replay exactly.  Escape:
     `// rand-ok: <reason>`.

  5. simd-confinement: vector intrinsics (<immintrin.h>, <arm_neon.h>,
     _mm*/__m256/__m512/__mmask/float64x2_t spellings, `#ifdef __AVX*`
     gates, __builtin_cpu_supports) only inside src/kernels/simd/ — every
     other layer calls the dispatched amtfmm::simd API so portability and
     the scalar-parity tests stay meaningful.  Escape:
     `// simd-ok: <reason>`, mirroring the threading-confinement rule.

  6. net-confinement: raw socket syscalls and headers (<sys/socket.h>,
     <sys/un.h>, <netinet/*>, <arpa/inet.h>, ::socket/::connect/::bind/
     ::listen/::accept, sockaddr) only inside src/runtime/net/ — every
     other layer talks to peers through NetTransport / the Executor
     parcel API, so transport policy (framing, backpressure, shutdown)
     stays in one reviewed place.  Escape: `// net-ok: <reason>`.

  7. wall-clock-confinement: wall-clock time sources (system_clock,
     gettimeofday, CLOCK_REALTIME, time(nullptr)) only inside the
     trace/telemetry layer (src/runtime/trace.cpp, src/runtime/
     telemetry.cpp) — everything else runs on the steady clock so clock
     adjustments (NTP slews, DST) can never corrupt latency measurements,
     the termination protocol, or cross-rank clock sync; the trace
     wall-anchor is the ONE place real time enters, and the merge
     corrects everything else against it.  Escape: `// time-ok: <reason>`.

Exit status 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

THREAD_RE = re.compile(
    r"std::(thread|jthread|mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"condition_variable(_any)?)\b"
)
RELAXED_RE = re.compile(r"memory_order_relaxed")
RANDOM_RE = re.compile(r"std::random_device|(?<![\w.])s?rand\s*\(")
# A struct member that is (or contains) a raw pointer:  `T* name;`,
# `T *name = ...;`, `std::array<T*, N> name;`.
POINTER_MEMBER_RE = re.compile(r"^\s*[\w:<>,\s]+\*+\s*\w+\s*(=[^;]*)?;|<[^>]*\*")

SIMD_RE = re.compile(
    r"immintrin\.h|x86intrin\.h|arm_neon\.h|__builtin_cpu_supports|"
    r"\b_mm\d*_\w+|\b__m(128|256|512)[di]?\b|\b__mmask\d+\b|"
    r"\b(float|uint|int)64x2(x\d)?_t\b|__AVX\w*__"
)

# Socket headers and syscalls.  The lookbehind on the `::` forms keeps
# qualified member definitions (`ThreadExecutor::send(`) from matching —
# only global-namespace calls like `::send(fd, ...)` count.
NET_RE = re.compile(
    r"sys/socket\.h|sys/un\.h|netinet/|arpa/inet\.h|\bsockaddr\b|"
    r"(?<![\w)])::(socket|connect|bind|listen|accept4?|recv|send|"
    r"sendmsg|recvmsg|setsockopt|getsockopt|getsockname|shutdown)\s*\("
)

# Wall-clock reads (rule 7).  The negative lookbehind keeps identifiers
# like `steady_time(` from matching the bare `time(` call form.
WALLCLOCK_RE = re.compile(
    r"system_clock|gettimeofday|CLOCK_REALTIME|"
    r"(?<![\w.])time\s*\(\s*(nullptr|NULL|0)?\s*\)"
)

THREAD_DIRS = ("src/runtime/", "src/rtcheck/")
SIMD_DIRS = ("src/kernels/simd/",)
NET_DIRS = ("src/runtime/net/",)
RELAXED_EXEMPT = (
    "src/runtime/counters.hpp",
    "src/runtime/counters.cpp",
    "src/runtime/ws_deque.hpp",
    "src/runtime/sync_hook.hpp",
    # NetStats mirrors counters.*: independent monotone counts and
    # high-water marks, read for diagnostics.  The termination protocol's
    # sent-parcel counter is relaxed too: a cut reads it after the acquire
    # loads that order it, and the protocol's soundness comes from
    # requiring two consecutive probe rounds with identical counter cuts
    # (DESIGN.md §5).
    "src/runtime/net/transport.cpp",
    "src/runtime/net/net_executor.cpp",
)
RELAXED_EXEMPT_DIRS = ("src/rtcheck/",)
# The trace wall-anchor (make_trace_clock) and the telemetry layer are the
# sanctioned homes for wall time; trace.cpp still carries an explanatory
# `// time-ok:` at its single read site.
WALLCLOCK_FILES = (
    "src/runtime/trace.cpp",
    "src/runtime/telemetry.cpp",
)
PAYLOAD_STRUCTS = (
    "WireRecord",
    "ParcelHeader",
    "SectionHeader",
    "ContribHeader",
)


def has_escape(lines: list[str], idx: int, tag: str) -> bool:
    """True when `// <tag>:` appears on the line or up to two lines above."""
    for j in range(max(0, idx - 2), idx + 1):
        if f"// {tag}:" in lines[j]:
            return True
    return False


def code_lines(lines: list[str]) -> list[str]:
    """Returns `lines` with comments and literal contents blanked out.

    Strips `//` line comments, `/* ... */` block comments (including
    multi-line ones), and the contents of string / character / raw-string
    literals, leaving empty `""` / `''` placeholders so adjacent tokens do
    not fuse.  C++14 digit separators (`1'000'000`) are preserved.  The
    rule regexes match against this view, so `"std::mutex"` inside a log
    message or a commented-out `memory_order_relaxed` can no longer
    produce false violations; `has_escape` still reads the ORIGINAL lines
    (escape hatches are comments).
    """
    out: list[str] = []
    block = False  # inside /* ... */
    raw_term = ""  # inside a raw string; holds the `)delim"` terminator
    for line in lines:
        kept: list[str] = []
        i, n = 0, len(line)
        while i < n:
            if block:
                j = line.find("*/", i)
                if j < 0:
                    i = n
                else:
                    block = False
                    i = j + 2
                continue
            if raw_term:
                j = line.find(raw_term, i)
                if j < 0:
                    i = n
                else:
                    i = j + len(raw_term)
                    raw_term = ""
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break  # rest of the line is a comment
            if ch == "/" and nxt == "*":
                block = True
                i += 2
                continue
            if ch == "'" and i > 0 and line[i - 1].isalnum() and nxt.isalnum():
                kept.append(ch)  # digit separator, not a char literal
                i += 1
                continue
            if ch == '"' and i > 0 and line[i - 1] == "R" and (
                i < 2 or not (line[i - 2].isalnum() or line[i - 2] == "_")
            ):
                m = re.match(r'"([^()\\ ]{0,16})\(', line[i:])
                if m:
                    raw_term = ")" + m.group(1) + '"'
                    j = line.find(raw_term, i + m.end())
                    kept.append('""')
                    if j < 0:
                        i = n
                    else:
                        i = j + len(raw_term)
                        raw_term = ""
                    continue
            if ch in ('"', "'"):
                j = i + 1
                closed = False
                while j < n:
                    if line[j] == "\\":
                        j += 2
                        continue
                    if line[j] == ch:
                        closed = True
                        break
                    j += 1
                kept.append(ch + ch)
                i = j + 1 if closed else n
                continue
            kept.append(ch)
            i += 1
        out.append("".join(kept))
    return out


def struct_body(lines: list[str], start: int):
    """Yields (index, line) of a struct body starting at its `struct` line."""
    depth = 0
    opened = False
    for i in range(start, len(lines)):
        depth += lines[i].count("{") - lines[i].count("}")
        if "{" in lines[i]:
            opened = True
        if opened:
            yield i, lines[i]
        if opened and depth <= 0:
            return


def lint_lines(rel: str, lines: list[str]) -> list[str]:
    """Runs every rule against one file's lines; returns violation strings.

    Rule regexes match the comment/literal-stripped view from
    `code_lines`; escape-hatch detection reads the original lines.
    Factored out of main() so scripts/test_lint_invariants.py can feed
    synthetic content.
    """
    violations: list[str] = []
    codes = code_lines(lines)

    in_thread_zone = rel.startswith(THREAD_DIRS)
    in_simd_zone = rel.startswith(SIMD_DIRS)
    in_net_zone = rel.startswith(NET_DIRS)
    relaxed_exempt = rel in RELAXED_EXEMPT or rel.startswith(
        RELAXED_EXEMPT_DIRS
    )

    for i, code in enumerate(codes):
        if not in_thread_zone and THREAD_RE.search(code):
            if not has_escape(lines, i, "thread-ok"):
                violations.append(
                    f"{rel}:{i + 1}: threading primitive outside "
                    "src/runtime/ (use the Executor / SyncMutex layer, "
                    "or add '// thread-ok: <reason>')"
                )
        if not relaxed_exempt and RELAXED_RE.search(code):
            if not has_escape(lines, i, "relaxed-ok"):
                violations.append(
                    f"{rel}:{i + 1}: memory_order_relaxed without a "
                    "'// relaxed-ok: <reason>' comment"
                )
        if RANDOM_RE.search(code):
            if not has_escape(lines, i, "rand-ok"):
                violations.append(
                    f"{rel}:{i + 1}: unseeded randomness (rand/"
                    "random_device); use an explicit seed or add "
                    "'// rand-ok: <reason>'"
                )
        if not in_simd_zone and SIMD_RE.search(code):
            if not has_escape(lines, i, "simd-ok"):
                violations.append(
                    f"{rel}:{i + 1}: vector intrinsics outside "
                    "src/kernels/simd/ (call the amtfmm::simd API, or "
                    "add '// simd-ok: <reason>')"
                )
        if not in_net_zone and NET_RE.search(code):
            if not has_escape(lines, i, "net-ok"):
                violations.append(
                    f"{rel}:{i + 1}: raw socket usage outside "
                    "src/runtime/net/ (go through NetTransport, or "
                    "add '// net-ok: <reason>')"
                )
        if rel not in WALLCLOCK_FILES and WALLCLOCK_RE.search(code):
            if not has_escape(lines, i, "time-ok"):
                violations.append(
                    f"{rel}:{i + 1}: wall-clock time source outside "
                    "the trace/telemetry layer (use the steady clock, "
                    "or add '// time-ok: <reason>')"
                )

    for i, code in enumerate(codes):
        m = re.match(r"\s*struct\s+(\w+)\b(?!.*;\s*$)", code)
        if not m or m.group(1) not in PAYLOAD_STRUCTS:
            continue
        for j, body_line in struct_body(codes, i):
            if "(" in body_line or ")" in body_line:
                continue  # member functions may take/return pointers
            if POINTER_MEMBER_RE.search(body_line):
                violations.append(
                    f"{rel}:{j + 1}: raw pointer member in parcel "
                    f"payload struct {m.group(1)} (addresses do not "
                    "survive the wire)"
                )

    return violations


def main() -> int:
    violations: list[str] = []
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(REPO).as_posix()
        violations.extend(lint_lines(rel, path.read_text().splitlines()))

    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        for v in violations:
            print("  " + v)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
