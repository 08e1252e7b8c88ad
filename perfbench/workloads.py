"""Seeded inputs, argv lists and report checks for the benchmark workloads.

Every workload is a list of operations.  An operation is one argv for
`grkoszul.cli.main` plus a check of the report it writes; one pass over the
list is a round.  The seed picks the inputs, the program sees only the files
written here and the argv.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NAMES = ("resolve_q", "resolve_fp", "kl_a3", "selftest")

# Resolution of the simple module over k<x,y>/(all cubes): the terms are
# 1, 2, 8 and 16 copies of P(v) in every characteristic (monomial algebra).
RESOLVE_DEGREE = 3
RESOLVE_TERMS = (1, 2, 8, 16)
FP_PRIMES = (2, 3, 5, 7)

# `kl table --type A --rank 3 --max-length 6`: these lines and the digest of
# the report body without its `arg.` lines are the same for every e in 4..7.
KL_ELEMENTS = 195
KL_INTERVALS = 4889
KL_BODY_SHA256 = "7e25f31f50b6d399ec958bad2658533bb83b3b3ced998bf53cca4e2130a55376"

# `selftest --criterion N`: digest of each passing report, taken like the kl
# one.  The details hold no timings or paths, so it is the same for every
# seed, criterion order and round.
SELFTEST_BODY_SHA256 = {
    1: "440d094451704ea26b85fb577fa70b02ded8a9a07da940e19748479bb3ec37ee",
    2: "e838f58f89bf5e74a66ab5431fd5ae0f94429a73e15e823fa0d5d8185a287533",
    3: "d827383aab00f86e12c0d344b83a50dc69cfda32033d606820b9dee95e41e326",
    4: "c3b4c03208f1b5e8d93e5bb1eb012db402875df0e0d71247fd93b41dc3fbf283",
    5: "da32e54524aa0f8d477478bde4c3c1093680cb3cb15acd59849de7030193287a",
    6: "5ef103bc174c34ff99d81557544f16e64d3023c2967256509e7ae390006cb7b5",
    7: "14ddc9aade317a81eb268746da0187db703760e04ba3fc21d373e33d6d7c7582",
    8: "6dd591da960a40b90f3d1cc50fd663e05f02b2e4769b77fa4004aedc618fc24a",
    9: "5c8edf391e2af243c1e97f1acca74a14ee5fcf51b0be07bb19b606bb71bbe66f",
}
BUDGET_OVERRUN = "runtime_budget_exceeded="

_ARROW_POOL = "abcdfghkmnpqrstuwxyz"


@dataclass
class Operation:
    argv: list[str]
    out: Path
    check: Callable[[int, str], str | None]  # (exit code, report) -> error or None


def cube_qalg(rng: random.Random, field_line: str) -> tuple[str, str, str]:
    """k<a,b>/(all eight cubes) with seeded arrow names, arrow order and
    relation order; returns (qalg text, qrep text of the simple, vertex)."""
    vertex = "o"
    arrows = rng.sample(_ARROW_POOL, 2)
    words = list(itertools.product(arrows, repeat=3))
    rng.shuffle(words)
    lines = [field_line, "vertex %s" % vertex]
    lines += ["arrow %s %s %s" % (a, vertex, vertex) for a in arrows]
    lines += ["relation 1*%s" % "*".join(w) for w in words]
    qrep = ["vertexdim %s 1" % vertex]
    for a in arrows:
        qrep += ["matrix %s" % a, "0"]
    return "\n".join(lines) + "\n", "\n".join(qrep) + "\n", vertex


def report_fields(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key] = value
    return out


def _resolve_check(vertex: str):
    def check(code: int, text: str) -> str | None:
        if code != 0:
            return "exit code %d" % code
        fields = report_fields(text)
        if fields.get("finite") != "false":
            return "finite=%s" % fields.get("finite")
        for n, copies in enumerate(RESOLVE_TERMS):
            got = fields.get("term.%d" % n, "").split(",")
            if got != [vertex] * copies:
                return "term.%d=%s" % (n, fields.get("term.%d" % n))
        if "term.%d" % len(RESOLVE_TERMS) in fields:
            return "unexpected term.%d" % len(RESOLVE_TERMS)
        return None
    return check


def kl_body_digest(text: str) -> str:
    body = [line for line in text.splitlines() if not line.startswith("arg.")]
    return hashlib.sha256("\n".join(body).encode()).hexdigest()


def _kl_check(code: int, text: str) -> str | None:
    if code != 0:
        return "exit code %d" % code
    fields = report_fields(text)
    if fields.get("elements") != str(KL_ELEMENTS):
        return "elements=%s" % fields.get("elements")
    if fields.get("intervals_verified") != str(KL_INTERVALS):
        return "intervals_verified=%s" % fields.get("intervals_verified")
    if kl_body_digest(text) != KL_BODY_SHA256:
        return "report body digest %s" % kl_body_digest(text)
    return None


def without_budget_overruns(text: str) -> tuple[str, list[str]]:
    """The report as it reads when no criterion runs over its wall-time
    budget, and the overrun details taken out of it.

    A criterion over budget gets one more detail and a `fail` verdict, so
    its report depends on how busy the host is.  The benchmark times the
    criteria itself; it checks what they computed and lists overruns apart.
    """
    lines, overruns = [], []
    for line in text.splitlines(keepends=True):
        key, _, value = line.partition("=")
        if key.startswith("criterion.") and value.startswith(BUDGET_OVERRUN):
            overruns.append(line.strip())
            verdict = "criterion.%s=" % key.split(".")[1]
            lines = [verdict + "pass\n" if line == verdict + "fail\n" else line
                     for line in lines]
        else:
            lines.append(line)
    if overruns and not any(line.startswith("criterion.") and line.endswith("=fail\n")
                            for line in lines):
        lines = ["selftest=pass\n" if line == "selftest=fail\n" else line for line in lines]
    return "".join(lines), overruns


def _selftest_check(number: int):
    def check(code: int, text: str) -> str | None:
        body, overruns = without_budget_overruns(text)
        if code != (4 if overruns else 0):
            return "criterion %d: exit code %d" % (number, code)
        if kl_body_digest(body) != SELFTEST_BODY_SHA256[number]:
            details = [v for k, v in report_fields(body).items() if k.startswith("criterion.")]
            return "criterion %d: report differs from its passing report: %s" \
                % (number, "; ".join(details))
        return None
    return check


def build(name: str, seed: int, workdir: Path) -> list[Operation]:
    """Write the inputs of one workload under workdir and return its round."""
    rng = random.Random("%s:%d" % (name, seed))
    workdir.mkdir(parents=True, exist_ok=True)
    if name in ("resolve_q", "resolve_fp"):
        field_line = "field Q" if name == "resolve_q" else "field F %d" % rng.choice(FP_PRIMES)
        qalg, qrep, vertex = cube_qalg(rng, field_line)
        (workdir / "cube.qalg").write_text(qalg)
        (workdir / "simple.qrep").write_text(qrep)
        out = workdir / "resolve.out"
        argv = ["module", "resolve", str(workdir / "cube.qalg"), str(workdir / "simple.qrep"),
                "--max-degree", str(RESOLVE_DEGREE), "--out", str(out)]
        return [Operation(argv, out, _resolve_check(vertex))]
    if name == "kl_a3":
        out = workdir / "kl.out"
        argv = ["kl", "table", "--type", "A", "--rank", "3", "--e", str(4 + seed % 4),
                "--max-length", "6", "--out", str(out)]
        return [Operation(argv, out, _kl_check)]
    if name == "selftest":
        from grkoszul.selftest import CRITERIA

        numbers = [number for number, _, _ in CRITERIA]
        rng.shuffle(numbers)
        ops = []
        for number in numbers:
            out = workdir / ("selftest-%d.out" % number)
            argv = ["selftest", "--criterion", str(number), "--out", str(out)]
            ops.append(Operation(argv, out, _selftest_check(number)))
        return ops
    raise ValueError("unknown workload %r" % name)
