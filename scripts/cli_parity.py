#!/usr/bin/env python3
"""Byte-for-byte comparison of `virlog` output between a base commit and
the working tree.

    python3 scripts/cli_parity.py
    python3 scripts/cli_parity.py --base HEAD~2

The script builds one list of argvs from its sweeps, extracts the files of
the base commit (default HEAD) with `git archive` into a temporary
directory, and runs the whole list in-process, `virlog.cli.main(argv)`
after `main(argv)`, in one subprocess per tree: the extracted one and the
working tree, each with its own src/ on the path.  It compares each
invocation's exit code, stdout and stderr, prints the first differences,
and exits 1 if there is any, else 0.

The sweeps:
  - `fusion` on the c = 1 grid h1 = m^2/4, h2 = n^2/4, 1 <= n <= m <= 4;
  - `fusion` on the Kac table (virlog.kac_weight), h2 = h_{r,s} with
    rs <= 6, fused with h1 = h_{1,2} and h_{2,1}, for the t of the
    benchmark's numeric sweep;
  - both with and without `--json`, and with and without `--level`;
  - `determine-b` at every h = a/b with |a| <= 12 and 1 <= b <= 8, which
    takes in 5/8 and the degenerate weights 0 and 1, with and without
    `--json`;
  - `ope-coeff` on a grid of (c, h) that takes in c = 0, with and without
    `--json`;
  - `euler-solve --input FILE` on fixture 06a's operator and rhs, and on
    documents with log powers, repeated indicial roots and symbolic `b`
    coefficients, each written once to a temporary directory that both
    trees read;
  - the module verbs at levels 0-6 and `--jordan` 1-3, with and without
    `--json`: `det`, `singular`, `radical` and, at `--jordan` 1 and 2,
    `hom-check` on Kac weights h_{r,s} with rs the level and on two generic
    weights; `shapovalov --symbolic`, and `det --symbolic` within the CLI's
    symbolic row cap; and the refusals of `singular` at level 0,
    `--jordan 0` and `--symbolic` with `--c` or `--h`;
  - the deepest block shapes on the same weights, with and without
    `--json`: `singular` and `radical` at `--jordan` 4 on levels 0-8 and at
    every `--jordan` on levels 7 and 8 (up to 88 columns), and `hom-check`
    at `--jordan` 1 and 2 on levels 7 and 8: 312 invocations, which take
    1-3 s a tree on a 2-core x86 host;
  - in every `--cocycle` mode, with and without `--json`: `wlog bracket`
    and `wlog cocycle` on every pair of generators i:m with |i|, |m| <= 3,
    `wlog jacobi` at `--level` 1 and 2, and `wlog vev` on the words of the
    `$ virlog wlog vev ...` examples of README.md and on 200 seeded words
    of 3-5 factors, each a generator i:m with |i|, |m| <= 3 or b;
  - the `fixture` listing, with and without `--json` (`fixture <id>` and
    `report` print seconds, so they stay out);
  - usage errors and help: an unknown verb, `singular` without `--level`,
    a decimal `--c 0.5`, `--jordan x`, `--help`, `--help` of `singular`,
    `det`, `fusion`, `euler-solve` and `wlog bracket`, `wlog` with no op and
    `wlog bracket` with one generator;
  - the argv shapes on both sides of the split between the verb parsers
    and the top parser: no argv, a verb in the wrong case, a bare
    `singular`, trailing extra tokens after a verb (one and two, and after
    `--help`) and after `wlog bracket 1:1 1:2`, a bare `wlog vev`, an
    option before the verb (`--json singular ...`, `-h singular`,
    `wlog --json bracket ...`), `--` before the verb, right after it and
    after `wlog bracket`, abbreviated options (`--lev`, `--ju`, `--sym`),
    `--opt=value`, a repeated `--jordan` and `--json`, hom-check's default
    `--jordan`, a missing option value, an unknown option (`-x`, and
    `--symbolic` on `singular`), `radical -h`, `report extra`, `fixture`
    with two ids and `fixture --json --out` with no file;
  - the `$ virlog ...` examples of README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, extract, git  # noqa: E402

SHOWN = 5  # differences printed in full
T_VALUES = tuple(Fraction(p, q) for p, q in
                 [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3)])
COCYCLES = ("none", "closed", "residue")
WLOG_BOUND = 3
VEV_WORDS = 200
B_NUMERATOR, B_DENOMINATOR = 12, 8  # the determine-b grid
PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11)  # levels 0-6
DEEP_LEVELS = (7, 8)  # the CLI's MAX_LEVEL is 8
DEEP_JORDAN = 4  # virlog.cli.MAX_JORDAN
SYMBOLIC_DET_ROWS = 15  # virlog.cli.MAX_SYMBOLIC_DET_ROWS
GENERIC_WEIGHTS = ((Fraction(1, 3), Fraction(2, 7)), (Fraction(-7, 2), Fraction(5, 9)))
OPE_C = ("0", "1", "-2", "1/2", "-7/3")  # the ope-coeff grid
OPE_H = ("0", "5/8", "-1/8", "1/3", "-12/5")


def _fusion(c, h1, h2, level: int) -> list:
    """The four variants of one fusion job: --json and --level on or off."""
    argv = ["fusion", "--c", str(c), "--h1", str(h1), "--h2", str(h2)]
    return [argv + extra + fmt
            for extra in ([], ["--level", str(level)])
            for fmt in ([], ["--json"])]


def _modules(kac_weight) -> list:
    """The module verbs, with and without --json, and their refusals."""
    formats = ([], ["--json"])
    argvs = []
    for level in (*range(len(PARTITION_COUNTS)), *DEEP_LEVELS):
        labels = [(r, level // r) for r in range(1, level + 1) if level % r == 0]
        weights = [kac_weight(T_VALUES[k % len(T_VALUES)], r, s) for k, (r, s) in enumerate(labels)]
        for jordan in range(1, DEEP_JORDAN + 1):
            shallow = level < len(PARTITION_COUNTS) and jordan < DEEP_JORDAN
            sizes = ["--level", str(level), "--jordan", str(jordan)]
            verbs = (["det"] if shallow else []) + ["singular", "radical"] + (
                ["hom-check"] if jordan <= 2 else [])
            for c, h in weights + list(GENERIC_WEIGHTS):
                argvs += [[verb, "--c", str(c), "--h", str(h)] + sizes + fmt
                          for verb in verbs for fmt in formats]
            if shallow:
                symbolic = ["shapovalov"] + (
                    ["det"] if jordan * PARTITION_COUNTS[level] <= SYMBOLIC_DET_ROWS else [])
                argvs += [[verb, "--symbolic"] + sizes + fmt
                          for verb in symbolic for fmt in formats]
    argvs += [["singular", "--c", "1", "--h", "1", "--level", "0"]]
    argvs += [[verb, "--c", "1", "--h", "1", "--level", "2", "--jordan", "0"]
              for verb in ("det", "singular", "radical", "hom-check")]
    argvs += [[verb, "--symbolic", flag, "1", "--level", "2"]
              for verb in ("det", "shapovalov") for flag in ("--c", "--h")]
    return argvs


def _wlog(readme: list) -> list:
    """The wlog verbs, in every cocycle mode, with and without --json."""
    gens = [f"{i}:{m}" for i in range(-WLOG_BOUND, WLOG_BOUND + 1)
            for m in range(-WLOG_BOUND, WLOG_BOUND + 1)]
    words = [argv[2:] for argv in readme if argv[:2] == ["wlog", "vev"]]
    rng = random.Random(1)
    words += [rng.choices(gens + ["b"], k=rng.randint(3, 5)) for _ in range(VEV_WORDS)]
    argvs = []
    for mode in COCYCLES:
        for fmt in ([], ["--json"]):
            opts = ["--cocycle", mode] + fmt
            for verb in ("bracket", "cocycle"):
                argvs += [["wlog", verb, a, b] + opts for a in gens for b in gens]
            argvs += [["wlog", "jacobi", "--level", str(level)] + opts for level in (1, 2)]
            argvs += [["wlog", "vev", *word] + opts for word in words]
    return argvs


def _ope_coeff() -> list:
    """ope-coeff on a (c, h) grid with c = 0 in it, with and without --json."""
    return [["ope-coeff", "--c", c, "--h", h] + fmt
            for c in OPE_C for h in OPE_H for fmt in ([], ["--json"])]


def _b(*terms):
    """A polynomial in b: (coefficient, power of b) pairs."""
    return {"vars": ["b"], "terms": [{"coeff": q, "exps": [p]} for q, p in terms]}


def _euler_docs() -> list:
    """Documents {"op": ..., "rhs": ...} for euler-solve: operator terms
    (xpow, dorder, coeff) and rhs terms (exponent, logpower, coeff)."""
    fixture_06a = [(0, 2, "1"), (-1, 1, "3/2"), (-2, 0, "-15/16")]
    double_root = [(0, 2, "1"), (-1, 1, "1")]  # indicial s^2
    cases = [
        (fixture_06a, [("-5/4", 0, _b(("2/3", 1)))]),
        (fixture_06a, [("-5/4", 2, _b(("1", 2), ("1/3", 0)))]),
        (fixture_06a, [("1/2", 3, "7"), ("3/4", 1, _b(("-2", 1)))]),
        (double_root, [("0", 1, _b(("1", 1)))]),
        (double_root, [("2", 0, "1"), ("0", 0, "5")]),
        ([(0, 3, "1"), (-3, 0, "-6")], [("1", 2, _b(("1", 1), ("1", 0)))]),
        ([(0, 2, _b(("1", 1)))], [("0", 0, "1")]),
    ]
    return [{"op": {"terms": [{"xpow": x, "dorder": d, "coeff": q} for x, d, q in op]},
             "rhs": {"terms": [{"exponent": e, "logpower": p, "coeff": q} for e, p, q in rhs]}}
            for op, rhs in cases]


def _euler_solve(inputs: Path) -> list:
    """euler-solve --input on each of _euler_docs, written into inputs."""
    inputs.mkdir()
    argvs = []
    for i, doc in enumerate(_euler_docs()):
        path = inputs / f"euler-{i}.json"
        path.write_text(json.dumps(doc))
        argvs.append(["euler-solve", "--input", str(path)])
    return argvs


def _usage() -> list:
    """The fixture listing, and the usage errors and help of the parser."""
    module = ["--c", "1", "--h", "1"]
    return [
        ["fixture"],
        ["fixture", "--json"],
        ["no-such-verb"],
        ["singular", *module],
        ["singular", "--c", "0.5", "--h", "1", "--level", "2"],
        ["singular", *module, "--level", "2", "--jordan", "x"],
        ["--help"],
        *[[*verb, "--help"] for verb in (
            ["singular"], ["det"], ["fusion"], ["euler-solve"], ["wlog", "bracket"])],
        ["wlog"],
        ["wlog", "bracket", "1:1"],
        # a verb-led argv goes straight to its verb's parser, every other
        # one to the top parser: the shapes on both sides of that split
        [],
        ["SINGULAR", *module, "--level", "2"],
        ["singular"],
        ["singular", *module, "--level", "2", "extra"],
        ["singular", *module, "--level", "2", "extra", "more"],
        ["singular", "--help", "extra"],
        ["wlog", "bracket", "1:1", "1:2", "extra"],
        ["wlog", "vev"],
        ["--json", "singular", *module, "--level", "2"],
        ["-h", "singular"],
        ["wlog", "--json", "bracket", "1:1", "1:2"],
        ["--", "singular", *module, "--level", "2"],
        ["singular", "--", *module, "--level", "2"],
        ["wlog", "bracket", "--", "-1:1", "1:2"],
        ["singular", *module, "--lev", "2"],
        ["singular", *module, "--level", "2", "--ju", "2"],
        ["det", "--sym", "--level", "2"],
        ["fusion", "--c", "1", "--h1", "1", "--h2", "1", "--lev", "2"],
        ["singular", "--c=1", "--h=1", "--level=2", "--jordan=2"],
        ["singular", *module, "--level", "2", "--jordan", "1", "--jordan", "2"],
        ["singular", *module, "--level", "2", "--json", "--json"],
        ["hom-check", *module, "--level", "2"],
        ["fusion", "--c", "1", "--h1", "1", "--h2", "1", "--level"],
        ["singular", "-x"],
        ["singular", *module, "--level", "2", "--symbolic"],
        ["radical", "-h"],
        ["report", "extra"],
        ["fixture", "01a", "02a"],
        ["fixture", "--json", "--out"],
    ]


def sweeps(inputs: Path) -> list:
    """Every argv of the run; the input files go into the new directory
    inputs."""
    # the working tree's virlog, imported here: at module level it would
    # also load in each tree's --worker, which must use that tree's src/
    sys.path.insert(0, str(ROOT / "src"))
    from virlog import kac_weight

    argvs = []
    for m in range(1, 5):
        for n in range(1, m + 1):
            argvs += _fusion(1, Fraction(m * m, 4), Fraction(n * n, 4), n + 1)
    labels = [(r, s) for r in range(1, 7) for s in range(1, 7) if r * s <= 6]
    for t in T_VALUES:
        for r, s in labels:
            c, h2 = kac_weight(t, r, s)
            for partner in ((1, 2), (2, 1)):
                argvs += _fusion(c, kac_weight(t, *partner)[1], h2, r * s)
    weights = {Fraction(a, b) for a in range(-B_NUMERATOR, B_NUMERATOR + 1)
               for b in range(1, B_DENOMINATOR + 1)}
    for h in sorted(weights):
        argvs += [["determine-b", "--h", str(h)], ["determine-b", "--h", str(h), "--json"]]
    readme = [shlex.split(line)[2:] for line in (ROOT / "README.md").read_text().splitlines()
              if line.startswith("$ virlog ")]
    return (argvs + _modules(kac_weight) + _wlog(readme) + _usage() + readme
            + _ope_coeff() + _euler_solve(inputs))


def worker() -> int:
    """Read a JSON list of argvs on stdin; write [code, stdout, stderr] for
    each on stdout.  An exception other than virlog's own errors is
    recorded as its type and message with code None."""
    from virlog.cli import main

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001  a crash is an output too
                code = None
                err.write(f"{type(exc).__name__}: {exc}\n")
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)
    return 0


def run_tree(tree: Path, argvs: list) -> list:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          cwd=tree, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"worker on {tree} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _show(argv, base, change) -> None:
    print("virlog " + shlex.join(argv))
    for name, a, b in zip(("exit code", "stdout", "stderr"), base, change):
        if a == b:
            continue
        if name == "exit code":
            print(f"  exit code: {a} -> {b}")
            continue
        print(f"  {name}:")
        lines = difflib.unified_diff(a.splitlines(), b.splitlines(), "base", "change",
                                     lineterm="", n=1)
        for i, line in enumerate(lines):
            if i == 20:
                print("    ...")
                break
            print("    " + line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker()

    base_rev = git("rev-parse", args.base)
    with tempfile.TemporaryDirectory(prefix="parity-base-") as tmp:
        argvs = sweeps(Path(tmp) / "inputs")
        extract(base_rev, Path(tmp))
        base = run_tree(Path(tmp) / "tree", argvs)
        change = run_tree(ROOT, argvs)
    differ = [(a, b, c) for a, b, c in zip(argvs, base, change) if b != c]
    for item in differ[:SHOWN]:
        _show(*item)
    print(f"{len(argvs)} invocations, {len(differ)} differ "
          f"(base {base_rev[:12]}, working tree)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
