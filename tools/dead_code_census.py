#!/usr/bin/env python3
"""Dead-code census: which out-of-line functions in src/ does no shipped binary reach?

The script builds every shipped binary at -O0 with one section per function
and with --gc-sections, so each binary keeps only the functions its entry
points can reach. The shipped binaries are the greenhpc CLI, the benches and the
examples of the main tree, plus sweepbench's sweep_ledger. sweepbench/ is
configured out of tree, the way sweepbench/run.py builds it, and nothing is
written under it.

It then compares the strong text (T) symbols of the src/ libraries with the
symbols the binaries keep. Inline and template code (weak symbols) is outside
the census. A constructor or destructor that the compiler emits twice (C1 and
C2) counts once, under its demangled name.

tools/dead_code_allowlist.txt lists the unreached functions that stay on
purpose, one demangled name per line, followed by "  # " and the tests that
use it (Suite.Name, comma separated). The census fails on:
  - an unreached function that is not on the list;
  - a list entry that a binary now reaches, or that src/ no longer defines;
  - a list entry whose named test is not defined under tests/.

Usage:
  python3 tools/dead_code_census.py [--build-dir DIR]

The build tree defaults to build-census/ at the repository root and is
reused (incrementally rebuilt) by later runs. Exit status 0 means the
census matches the allowlist, 1 a mismatch, 2 a build or usage error.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALLOWLIST = os.path.join(HERE, "dead_code_allowlist.txt")

CENSUS_FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
BUILD_JOBS = min(4, os.cpu_count() or 1)


class CensusError(Exception):
    """The census cannot run; exit 2."""


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode:
        sys.stderr.write(proc.stdout)
        raise CensusError("command failed: " + " ".join(cmd))
    return proc.stdout


def build(src, bdir, extra, targets):
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        run(["cmake", "-S", src, "-B", bdir] + CENSUS_FLAGS + extra)
    cmd = ["cmake", "--build", bdir, "-j", str(BUILD_JOBS)]
    for target in targets:
        cmd += ["--target", target]
    run(cmd)


def defined_symbols(path, types):
    """Mangled names of the symbols in `path` whose nm type is in `types`."""
    names = set()
    for line in run(["nm", "--defined-only", "-P", path]).splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[1] in types:
            names.add(fields[0])
    return names


def demangle(names):
    ordered = sorted(names)
    proc = subprocess.run(["c++filt"], input="\n".join(ordered), stdout=subprocess.PIPE,
                          text=True, check=True)
    return dict(zip(ordered, proc.stdout.splitlines()))


def shipped_binaries(main_dir, ledger_dir):
    binaries = []
    for sub in ("bench", "examples"):
        for path in sorted(glob.glob(os.path.join(main_dir, sub, "*"))):
            if os.path.isfile(path) and os.access(path, os.X_OK):
                binaries.append(path)
    binaries.append(os.path.join(main_dir, "tools", "greenhpc"))
    binaries.append(os.path.join(ledger_dir, "sweep_ledger"))
    for path in binaries:
        if not os.path.isfile(path):
            raise CensusError("expected binary not built: " + path)
    return binaries


def read_allowlist(path):
    """{demangled name: [test names]} from the allowlist file."""
    entries = {}
    with open(path) as f:
        for number, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            name, sep, tests = line.rpartition("  # ")
            tests = [t.strip() for t in tests.split(",") if t.strip()]
            if not sep or not name.strip() or not tests:
                raise CensusError(f"{path}:{number}: expected '<function>  # <Suite.Test>'")
            entries[name.strip()] = tests
    return entries


def test_defined(test, sources):
    suite, dot, name = test.partition(".")
    if not dot:
        return False
    pattern = re.compile(r"\bTEST(?:_F|_P)?\(\s*" + re.escape(suite) + r"\s*,\s*" +
                         re.escape(name) + r"\s*\)")
    return any(pattern.search(text) for text in sources)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-census"),
                        help="scratch build tree (default: build-census/)")
    args = parser.parse_args()

    main_dir = os.path.join(args.build_dir, "main")
    ledger_dir = os.path.join(args.build_dir, "ledger")
    build(ROOT, main_dir,
          ["-DGREENHPC_BUILD_TESTS=OFF", "-DGREENHPC_BUILD_BENCH=ON",
           "-DGREENHPC_BUILD_EXAMPLES=ON"], [])
    build(os.path.join(ROOT, "sweepbench"), ledger_dir, [], ["sweep_ledger"])

    libraries = sorted(glob.glob(os.path.join(main_dir, "src", "**", "*.a"), recursive=True))
    if not libraries:
        raise CensusError("no src/ libraries under " + main_dir)
    strong = set()
    for lib in libraries:
        strong |= defined_symbols(lib, "T")

    binaries = shipped_binaries(main_dir, ledger_dir)
    kept = set()
    for binary in binaries:
        kept |= defined_symbols(binary, "TtWw")

    names = demangle(strong)
    functions = {}
    for mangled, name in names.items():
        functions.setdefault(name, set()).add(mangled)
    unreached = sorted(name for name, syms in functions.items() if not syms & kept)
    unreached_symbols = sum(len(functions[name]) for name in unreached)

    allow = read_allowlist(ALLOWLIST)
    sources = []
    for path in glob.glob(os.path.join(ROOT, "tests", "**", "*.cpp"), recursive=True):
        with open(path) as f:
            sources.append(f.read())

    print(f"{len(binaries)} shipped binaries, {len(strong)} strong symbols in src/ "
          f"({len(functions)} functions)")
    print(f"unreached: {unreached_symbols} symbols ({len(unreached)} functions), "
          f"{len(allow)} on the allowlist")

    failures = []
    for name in unreached:
        if name not in allow:
            failures.append(f"unreached and not on the allowlist: {name}")
    for name, tests in sorted(allow.items()):
        if name not in functions:
            failures.append(f"allowlisted but no longer defined in src/: {name}")
        elif name not in unreached:
            failures.append(f"allowlisted but reached by a shipped binary: {name}")
        for test in tests:
            if not test_defined(test, sources):
                failures.append(f"allowlisted for {test}, which tests/ does not define: {name}")
    for line in failures:
        print("FAIL: " + line)
    if failures:
        print(f"{len(failures)} census failure(s); see {os.path.relpath(ALLOWLIST, ROOT)}")
        return 1
    print("census matches the allowlist")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CensusError as e:
        print("error: " + str(e), file=sys.stderr)
        sys.exit(2)
