"""Decide whether one op printed the right answer.

The expectations come from workloads.py, built from the construction of
each graph; on the default seed every op's stdout must also hash to the
digest pinned in digests.json.
"""

from __future__ import annotations

import hashlib
import re

from workloads import Op

_CENTER = re.compile(r"^center: C\^(\d+) x T\^(\d+)$", re.M)
_GENERATOR = re.compile(r"^  [ez]\(\S* = (.*)$", re.M)
_TERM_SEP = re.compile(r" [+-] ")


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def _line_value(stdout: str, prefix: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def check(op: Op, code: int, stdout: str, pinned: str | None = None) -> str | None:
    """None when the op's exit code and stdout are right, else the reason."""
    exp = op.expect
    if code != exp.exit_code:
        return f"exit code {code}, expected {exp.exit_code}"
    if pinned is not None and stdout_digest(stdout) != pinned:
        return f"stdout digest {stdout_digest(stdout)}, pinned {pinned}"
    if code != 0:
        return None if not stdout else "a refused op printed to stdout"
    command = op.argv[0]
    if command in ("center", "analyze"):
        if "\nverified: yes\n" not in "\n" + stdout:
            return "center not verified"
        m = _CENTER.search(stdout)
        if m is None or (int(m[1]), int(m[2])) != (exp.c, exp.t):
            return f"center line {m and m[0]!r}, expected C^{exp.c} x T^{exp.t}"
        if exp.generator_terms is not None:
            terms = sorted(len(_TERM_SEP.split(g)) for g in _GENERATOR.findall(stdout))
            if tuple(terms) != exp.generator_terms:
                return f"generator term counts {terms}, expected {list(exp.generator_terms)}"
    if command == "analyze":
        elements = _line_value(stdout, "lattice elements: ")
        if elements is None or elements.count("{") != exp.lattice_elements:
            return f"lattice does not list {exp.lattice_elements} elements"
        cycles = _line_value(stdout, "cycles: ")
        if cycles is None:
            return "no cycles line"
        if exp.cycles is not None:
            found = 0 if cycles == "none" else len(cycles.split(", "))
            if found != exp.cycles:
                return f"{found} cycles listed, expected {exp.cycles}"
    if command == "cross-check":
        for line in ("predicted in kernel: yes", "dimensions match: yes", "agrees: yes"):
            if line not in stdout.splitlines():
                return f"missing {line!r}"
        if _line_value(stdout, "candidate monomials: ") != str(exp.candidates):
            return f"candidate monomials not {exp.candidates}"
    return None
