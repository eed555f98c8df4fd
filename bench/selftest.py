"""Checker self-test: every checker must count a wrong output as a failure.

For each workload, one smoke-size cycle runs twice: once clean, which must
pass, and once with every output corrupted before checking, where every
request must fail, so fail_ratio is 1.  The corruptions are the plausible
mistakes the checkers exist to catch: a wrong group order, a wrong orbit
count, a bogus witness, an off-by-one coefficient, a wrong measure weight.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
from fractions import Fraction

from bench import model as M
from bench.run import WORK, load_library, run_phase
from bench.workloads import WORKLOADS, Files


def _bump(x):
    return M.frac_json(Fraction(x) + 1)


def _json_edit(edit):
    def tamper(out):
        doc = json.loads(out)
        edit(doc)
        return json.dumps(doc)

    return tamper


def _orbit_count(doc):
    size = next(reversed(doc["census"]))
    doc["census"][size] += 1


def _witness(doc, on_accept):
    """Replace a rejection's witness generator by the identity, which moves
    nothing; corrupt an acceptance with on_accept."""
    if "witness" in doc:
        doc["witness"]["generator"] = "id"
    else:
        on_accept(doc)


def _coefficient(doc):
    doc["coeffs"][0][0] = _bump(doc["coeffs"][0][0])


def _code(out):
    if out.startswith("vector,"):  # CSV: first data row's scaled code
        lines = out.splitlines()
        vector, code, cls = lines[1].split(",")
        first, *rest = code.split(" ")
        lines[1] = ",".join([vector, " ".join([str(int(first) + 1), *rest]), cls])
        return "\n".join(lines) + "\n"
    doc = json.loads(out)
    doc["rows"][0]["scaled_code"][0] += 1
    return json.dumps(doc)


def _operator(op):
    row = (op.coeffs[0][0] + 1,) + op.coeffs[0][1:]
    return dataclasses.replace(op, coeffs=(row,) + op.coeffs[1:])


TAMPERS = {
    "aut": ("wrong group order", _json_edit(lambda d: d["elements"].pop())),
    "orbits": ("wrong orbit count", _json_edit(_orbit_count)),
    "census-c6c3": ("wrong orbit count", _json_edit(_orbit_count)),
    "permutant-check": (
        "bogus witness",
        _json_edit(lambda d: _witness(d, lambda a: a.update(size=a["size"] + 1))),
    ),
    "measure-check": (
        "bogus witness",
        _json_edit(lambda d: _witness(d, lambda a: a.update(total_variation=_bump(a["total_variation"])))),
    ),
    "verify": (
        "bogus witness",
        _json_edit(lambda d: _witness(d, lambda a: a.update(operator_norm=_bump(a["operator_norm"])))),
    ),
    "build-permutant": ("off-by-one coefficient", _json_edit(_coefficient)),
    "build-measure": ("off-by-one coefficient", _json_edit(_coefficient)),
    "apply": ("off-by-one coefficient", _json_edit(lambda d: d.__setitem__(0, _bump(d[0])))),
    "convex": ("off-by-one coefficient", _operator),
    "compose": ("off-by-one coefficient", _operator),
    "codes": ("off-by-one coefficient", _code),
    "codes-analyze": ("wrong class count", _json_edit(lambda d: d.update(classes=d["classes"] + 1))),
    "decompose": (
        "wrong measure weight",
        _json_edit(lambda d: d["weights"][0].update(weight=_bump(d["weights"][0]["weight"]))),
    ),
}


def selftest() -> int:
    ok = True
    for name, make in WORKLOADS.items():
        work = WORK / f"selftest-{name}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            workload = make(random.Random(f"selftest:{name}"), Files(work))
            lib = load_library()
            state = workload.setup(lib)
            n = len(workload.cycle(smoke=True))
            _, _, _, clean = run_phase(lib, state, workload.stream(True), n, 0, 0, limit=n)
            tampers = {kind: fn for kind, (_, fn) in TAMPERS.items()}
            requests, _, _, failed = run_phase(lib, state, workload.stream(True), n, 0, 0, limit=n, tamper=tampers)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if clean:
            ok = False
            print(f"{name}: clean outputs rejected: {clean[:3]}")
        print(f"{name}: fail_ratio {len(failed) / len(requests):.3f} with every output corrupted")
        for kind in dict.fromkeys(r.kind for r in requests):
            total = sum(1 for r in requests if r.kind == kind)
            caught = sum(1 for msg in failed if msg.split(" ", 1)[0] == kind)
            ok &= caught == total
            print(f"  {kind:16s} {TAMPERS[kind][0]:24s} {caught}/{total} counted as failed")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1
