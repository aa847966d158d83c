#!/usr/bin/env python3
"""Resolve the samples sampler.c wrote into a self-time profile, or the
census heap.c wrote into live heap or allocation counts by site.

    resolve.py BINARY RUN.raw                     # top symbols, all samples
    resolve.py BINARY RUN.raw --sites measure_window
        # return addresses inside a function that samples passed through,
        # with the function each call site calls (and its source line, if
        # BINARY has debug info): pick the one a window's loop makes
    resolve.py BINARY RUN.raw --within 0x1a2b3c   # only samples under it
    resolve.py BINARY RUN.raw --within 0x1a2b3c --returns-to
        # libc samples grouped by the function their word at rsp returns to
    resolve.py BINARY RUN.heap --heap             # MiB live at the peak, by site
        # (the first repetition's peak, for a run whose live heap passes
        # heap.c's FREEZE_FLOOR of 256 KiB and then falls below a quarter
        # of its peak: every benchmark workload's)
    resolve.py BINARY RUN.heap --heap --frames 3  # sites three callers deep
    resolve.py BINARY RUN.heap --heap --allocs --per 28800
        # blocks allocated over the whole run by site, and per commit of a
        # run that committed 28 800 transactions (the benchmark's
        # "attempted" less "failed")
    resolve.py BINARY RUN.heap --heap --allocs --sites measure_window
        # the call sites inside a function that allocating chains passed
        # through, weighted by blocks allocated
    resolve.py BINARY RUN.heap --heap --allocs --within 0x1a2b3c --per 2700 --lines
        # only the chains under that call site (a window's loop: no set-up,
        # no reference laps), per commit of the window, each site with the
        # source line of its first frame

Addresses are resolved with `nm` on the file they fall in (`nm -D` for a
stripped library, plus the run-time IFUNC addresses the sampler saved; a
stripped library's local functions show under the exported symbol before
them). On a stripped libc, malloc's internal functions (`_int_malloc`,
`_int_free`, `malloc_consolidate`, ...) therefore show up as
`__default_morecore`: count those samples as `malloc` + `free`. A
sample with no frame chain (libc's malloc uses rbp as scratch) takes the
window membership of the last sample that had one.

A heap site is the first `--frames` functions of BINARY on the
allocation's call chain that are not allocation plumbing: std's `alloc`,
`core` and `std` paths, hashbrown, the `Bytes` shim, the `__rust_*`
entry points, and trait impls from `alloc`/`core` (`Clone`, `Extend`,
`FromIterator`, ...). A `VecDeque::push_back` that grows the deque's
buffer is charged to the function that pushed. `--lines` adds the source
line of the call in the first of those frames (a site then is one line:
a function that allocates on two lines is two sites). BINARY needs line
tables for it: `CARGO_PROFILE_RELEASE_DEBUG=line-tables-only` (the
workspace's release profile has them, the benchmark's does not).
A chain is at most heap.c's MAX_FRAMES deep: `--within` drops a chain
cut short above the address.

Output piped into `head` ends quietly when the reader stops reading.
"""
import argparse
import bisect
import collections
import re
import signal
import struct
import subprocess


def read_samples(path):
    words = open(path, "rb").read()
    words = struct.unpack(f"<{len(words) // 8}Q", words)
    i = 0
    while i < len(words):
        n = words[i]
        yield words[i + 1:i + 1 + n]
        i += 1 + n


def read_census(path):
    """The live total at heap.c's snapshot, and (bytes, blocks, allocations,
    chain) per call chain: bytes and blocks live at the snapshot, blocks
    allocated over the run."""
    words = open(path, "rb").read()
    words = struct.unpack(f"<{len(words) // 8}Q", words)
    chains, i = [], 1
    while i < len(words):
        nbytes, blocks, allocs, n = words[i:i + 4]
        chains.append((nbytes, blocks, allocs, words[i + 4:i + 4 + n]))
        i += 4 + n
    return words[0], chains


PLUMBING = re.compile(r"^<?(alloc|core|std|hashbrown|bytes)::|^__r|^<[^<>]* as (alloc|core)::")


class Symbols:
    """Every mapped file's symbols, by run-time address."""

    def __init__(self, maps_path):
        self.maps, runtime = [], []
        for line in open(maps_path):
            parts = line.split()
            if parts[0] == "symbol":
                runtime.append((int(parts[2], 16), parts[1]))
            elif len(parts) == 6 and parts[5].startswith("/"):
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                self.maps.append((lo, hi, int(parts[2], 16), parts[5]))
        self.bias = {}
        for lo, _, offset, path in self.maps:
            self.bias[path] = min(self.bias.get(path, lo - offset), lo - offset)
        self.tables, self.addrs = {}, {}
        for addr, name in runtime:
            path = self.file_of(addr)
            if path:
                self.table(path).append((addr - self.bias[path], name))
        for table in self.tables.values():
            table.sort()
        self.addrs = {path: [a for a, _ in table] for path, table in self.tables.items()}

    def file_of(self, addr):
        for lo, hi, _, path in self.maps:
            if lo <= addr < hi:
                return path
        return None

    def table(self, path):
        if path not in self.tables:
            out = subprocess.run(["nm", "-C", "--defined-only", path], capture_output=True, text=True).stdout
            if not out.strip():
                out = subprocess.run(["nm", "-C", "-D", "--defined-only", path], capture_output=True, text=True).stdout
            rows = (line.split(" ", 2) for line in out.splitlines())
            self.tables[path] = sorted((int(a, 16), n) for a, t, n in rows if t in "TtWwi")
            self.addrs[path] = [a for a, _ in self.tables[path]]
        return self.tables[path]

    def resolve(self, addr):
        """(file, address in the file, symbol) of a run-time address."""
        path = self.file_of(addr)
        if path is None:
            return None, addr, "?"
        vaddr = addr - self.bias[path]
        table = self.table(path)
        i = bisect.bisect_right(self.addrs[path], vaddr) - 1
        return path, vaddr, table[i][1] if i >= 0 else "?"


def short(name):
    """`Type::method` of a demangled Rust path: generics and hash dropped,
    `<Type as Trait>` read as `Type`."""
    name = re.sub(r"::h[0-9a-f]{16}$", "", name)
    innermost = r"<([^<>]*)>"
    while re.search(innermost, name):
        name = re.sub(innermost, lambda m: m[1].split(" as ")[0] if " as " in m[1] else "", name)
    return "::".join(name.split("::")[-2:])


def source_lines(binary, addrs):
    """The source line of each return address's call, by address: with
    inlining, the line in the function the frame belongs to (the last of
    `addr2line -i`'s chain), not in what was inlined into it."""
    addrs = sorted(set(addrs))
    if not addrs:
        return {}
    out = subprocess.run(["addr2line", "-a", "-i", "-e", binary] + [hex(a - 1) for a in addrs],
                         capture_output=True, text=True).stdout
    lines, at = {}, None
    for line in out.splitlines():
        if line.startswith("0x"):
            at = int(line, 16) + 1
        else:
            lines[at] = re.sub(r"^.*?/(crates|benchmark|tests)/", r"\1/", line)
    return lines


def heap_sites(syms, binary, args):
    total, chains = read_census(args.raw)
    within = int(args.within, 16) if args.within else None
    kept = []
    for nbytes, n, allocated, chain in chains:
        resolved = [syms.resolve(a) for a in chain]
        if within is None or any(p == binary and v == within for p, v, _ in resolved):
            kept.append((nbytes, n, allocated, resolved))
    if args.sites:
        calls = collections.Counter()
        for _, _, allocated, resolved in kept:
            callees = ["malloc"] + [name for _, _, name in resolved]
            for (p, v, caller), callee in zip(resolved, callees):
                if p == binary and args.sites in caller:
                    calls[v, short(callee)] += allocated
        lines = source_lines(binary, [v for v, _ in calls])
        for (v, callee), n in calls.most_common():
            print(f"{n:10}  {v:#x} calls {callee}  {lines.get(v, '')}")
        return
    frames = [[(v, name) for p, v, name in resolved if p == binary and not PLUMBING.search(name)][:args.frames]
              for *_, resolved in kept]
    lines = source_lines(binary, [f[0][0] for f in frames if f]) if args.lines else {}
    sites, blocks, allocs = collections.Counter(), collections.Counter(), collections.Counter()
    for (nbytes, n, allocated, _), first in zip(kept, frames):
        site = " <- ".join(short(name) for _, name in first) or "(outside BINARY)"
        if first and args.lines:
            site += f"  {lines.get(first[0][0], '?')}"
        sites[site] += nbytes
        blocks[site] += n
        allocs[site] += allocated
    if args.allocs:
        count = sum(allocs.values())
        span = "under the call site" if within is not None else "over the run"
        print(f"{count} blocks allocated {span}, {len(kept)} call chains")
        for site, n in allocs.most_common(args.top):
            per = f"{n / args.per:9.3f} /commit " if args.per else ""
            print(f"{n:10} {100 * n / max(count, 1):5.1f} % {per} {site}")
        return
    mib = 1 << 20
    print(f"{total / mib:.2f} MiB live at the peak, {len(chains)} call chains")
    for site, nbytes in sites.most_common(args.top):
        if nbytes:
            print(f"{nbytes / mib:8.3f} MiB {100 * nbytes / max(total, 1):5.1f} % {blocks[site]:9}  {site}")


def main():
    # a closed pipe ends the process, as it does any Unix filter, rather
    # than raising BrokenPipeError
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("binary")
    ap.add_argument("raw")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--within", help="keep samples (census chains) whose chain holds this return address (in BINARY)")
    ap.add_argument("--sites", help="list the call sites inside this function")
    ap.add_argument("--lines", action="store_true", help="with --heap: the source line of each site's first frame")
    ap.add_argument("--returns-to", action="store_true", help="group libc samples by caller")
    ap.add_argument("--heap", action="store_true", help="RAW is a heap.c census")
    ap.add_argument("--frames", type=int, default=2, help="callers that name a heap site")
    ap.add_argument("--allocs", action="store_true", help="with --heap: rank sites by blocks allocated")
    ap.add_argument("--per", type=int, help="with --allocs: also divide each count by this (the run's commits)")
    args = ap.parse_args()
    syms = Symbols(args.raw + ".maps")
    binary = next(p for _, _, _, p in syms.maps if p.endswith(args.binary.split("/")[-1]))
    if args.heap:
        heap_sites(syms, binary, args)
        return
    within = int(args.within, 16) if args.within else None
    counts, sites, kept, total, member = collections.Counter(), collections.Counter(), 0, 0, True
    for sample in read_samples(args.raw):
        total += 1
        rip, at_rsp, chain = sample[0], sample[1], sample[2:]
        resolved = [syms.resolve(a) for a in chain]
        if within is not None and chain:
            member = any(p == binary and v == within for p, v, _ in resolved)
        if not member:
            continue
        kept += 1
        path, _, name = syms.resolve(rip)
        callees = [name] + [n for _, _, n in resolved]
        for (p, v, caller), callee in zip(resolved if args.sites else (), callees):
            if p == binary and args.sites in caller:
                sites[v, short(callee)] += 1
        if path != binary:
            lib = (path or "?").split("/")[-1]
            caller = short(syms.resolve(at_rsp)[2]) if args.returns_to else ""
            name = name.split("@")[0]
            counts[f"{lib} {name}" + (f" <- {caller}" if caller else "")] += 1
        else:
            counts[short(name)] += 1
    print(f"{kept} of {total} samples")
    if args.sites:
        for (v, callee), n in sites.most_common():
            where = subprocess.run(["addr2line", "-e", binary, hex(v - 1)], capture_output=True, text=True)
            line = where.stdout.strip()
            print(f"{n:8}  {v:#x} calls {callee}  {'' if line.endswith(':?') else line}")
        return
    for name, n in counts.most_common(args.top):
        print(f"{100 * n / max(kept, 1):6.1f} % {n:8}  {name}")


if __name__ == "__main__":
    main()
