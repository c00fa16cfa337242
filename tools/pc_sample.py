#!/usr/bin/env python3
"""Symbolize the samples tools/pc_sample.c wrote and print where they land.

    python3 tools/pc_sample.py pc_sample.<pid>.txt [more files...]
        [--top N] [--group NAME=REGEX ...] [--require REGEX]

Each sample's program counter is mapped back to its object file and
symbolized with `addr2line -f -i -C`. With -i, addr2line lists the
inline chain innermost first, so a sample is charged to the innermost
function the compiler inlined at that PC: std::function's move
constructor counts as itself, not as the simulator function it was
inlined into. Objects without line tables (libc, libstdc++) fall back
to the nearest preceding dynamic symbol (`nm -D`).

Three tables are printed, each as share of all samples:
  * the top N innermost functions;
  * subsystems: the directory (src/<dir>, perfbench, tests, tools) of
    the innermost frame whose source file lies in this repository, or
    else the object file's name;
  * each --group: the innermost functions whose name matches REGEX,
    summed (e.g. --group 'std::function=^std::(function<|_Function)'
    for std::function's own code, not code that merely names it in a
    template argument).

--require exits 1 unless at least one sample's innermost function
matches REGEX (e.g. 'dbsim::' checks that the simulator's own code was
symbolized at all). Several files are pooled into one profile.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys

# A source file of this repository, in any checkout of it.
REPO_PATH = re.compile(r"/(?:(perfbench|tests|tools|bench)/|src/([^/]+)/)")


def read_samples(paths):
    """(mappings per file, pcs per file) from pc_sample output files."""
    runs = []
    for path in paths:
        maps, pcs = [], []
        with open(path) as f:
            for line in f:
                kind, _, rest = line.rstrip("\n").partition(" ")
                if kind == "map":
                    start, end, offset, obj = rest.split(" ", 3)
                    maps.append((int(start, 16), int(end, 16),
                                 int(offset, 16), obj))
                elif kind == "pc":
                    pcs.append(int(rest, 16))
        maps.sort()
        runs.append((maps, pcs))
    return runs


def is_fixed_address(obj):
    """True for a non-PIE executable (ELF e_type ET_EXEC)."""
    try:
        with open(obj, "rb") as f:
            head = f.read(18)
    except OSError:
        return False
    return len(head) == 18 and head[16] == 2 and head[17] == 0


def object_offsets(maps, pcs):
    """Group pcs by object, as addresses addr2line understands."""
    starts = [m[0] for m in maps]
    base = {}
    for start, _, offset, obj in maps:
        if offset == 0 and obj not in base:
            base[obj] = start
    by_obj = collections.defaultdict(list)
    unmapped = 0
    for pc in pcs:
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            unmapped += 1
            continue
        start, _, offset, obj = maps[i]
        if is_fixed_address(obj):
            addr = pc
        else:
            addr = pc - base.get(obj, start - offset)
        by_obj[obj].append(addr)
    return by_obj, unmapped


def addr2line(obj, addrs):
    """addr -> [(function, file)] inline chain, innermost first."""
    uniq = sorted(set(addrs))
    proc = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
        input="".join(f"{a:#x}\n" for a in uniq), capture_output=True,
        text=True, check=False)
    chains, cur, func = {}, None, None
    for line in proc.stdout.splitlines():
        if line.startswith("0x") and func is None:
            cur = int(line, 16)
            chains[cur] = []
        elif func is None:
            func = line
        else:
            chains[cur].append((func, line.split(":")[0]))
            func = None
    return chains


def dynamic_symbols(obj):
    """Sorted (address, name) of the object's defined dynamic symbols."""
    proc = subprocess.run(["nm", "-D", "--defined-only", "-C", obj],
                          capture_output=True, text=True, check=False)
    syms = []
    for line in proc.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "TtWwiI":
            syms.append((int(parts[0], 16), parts[2]))
    syms.sort()
    return syms


def subsystem(chain, obj):
    for _, path in chain:
        m = REPO_PATH.search(path)
        if m:
            return m.group(1) or "src/" + m.group(2)
    return os.path.basename(obj)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--group", action="append", default=[],
                    metavar="NAME=REGEX")
    ap.add_argument("--require", metavar="REGEX")
    args = ap.parse_args()

    funcs, subs = collections.Counter(), collections.Counter()
    total = unmapped = 0
    for maps, pcs in read_samples(args.files):
        total += len(pcs)
        by_obj, lost = object_offsets(maps, pcs)
        unmapped += lost
        for obj, addrs in by_obj.items():
            chains = addr2line(obj, addrs)
            syms = sym_addrs = None
            for a in addrs:
                chain = chains.get(a) or [("??", "??")]
                func = chain[0][0]
                if func == "??":
                    if syms is None:
                        syms = dynamic_symbols(obj)
                        sym_addrs = [s[0] for s in syms]
                    i = bisect.bisect_right(sym_addrs, a) - 1
                    if i >= 0:
                        func = syms[i][1]
                funcs[func] += 1
                subs[subsystem(chain, obj)] += 1
    if unmapped:
        funcs["(outside any executable mapping)"] += unmapped
        subs["(unmapped)"] += unmapped
    if total == 0:
        print("no samples", file=sys.stderr)
        return 1

    def table(title, counter, limit=None):
        print(f"\n{title}")
        for name, n in counter.most_common(limit):
            print(f"  {100.0 * n / total:6.2f}%  {n:8d}  {name}")

    print(f"{total} samples from {len(args.files)} file(s)")
    table(f"Innermost functions (top {args.top})", funcs, args.top)
    table("Subsystems", subs)
    if args.group:
        groups = collections.Counter()
        for spec in args.group:
            name, _, pattern = spec.partition("=")
            rx = re.compile(pattern)
            groups[name] = sum(n for f, n in funcs.items() if rx.search(f))
        print("\nGroups")
        for spec in args.group:
            name = spec.partition("=")[0]
            n = groups[name]
            print(f"  {100.0 * n / total:6.2f}%  {n:8d}  {name}")
    if args.require:
        rx = re.compile(args.require)
        if not any(rx.search(f) for f in funcs):
            print(f"\nno sample resolves to a function matching "
                  f"{args.require!r}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
