"""Output checks for benchmark jobs.

Three layers of checking, all counted as failed jobs:

* each job's exit code is one it may end with and its stdout has the
  shape its command documents (`check_job`), with `lower-value` equal
  to the `quality` table at initial memory (`check_pass`);
* every pass of a run reproduces the first pass byte for byte;
* when `expected/<workload>-<seed>.json` exists, each job's exit code
  and stdout sha256 match the recorded ones (`compare_recorded`).

The recorded file also holds a digest of each job's inputs
(`input_digest`). Inputs are generated with the program's own solver,
so a change to it can change them; such a run is not compared at all
(`compare_inputs`), since its outputs are of other inputs.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
DIGEST_CHARS = 16  # of the stdout sha256, enough to tell outputs apart

_RATIONAL = r"-?\d+/\d+"
_CHECK_PASS = (
    "PASS value-equations\nPASS consistent-flag\nPASS m-field\nPASS witness-strategies\n"
)


def _lines_match(lines: list[str], patterns: list[str]) -> bool:
    return len(lines) == len(patterns) and all(
        re.fullmatch(p, line) for p, line in zip(patterns, lines)
    )


def check_job(job, code, out: str) -> str | None:
    """Why this job's result is wrong, or None."""
    if code not in job.expect:
        return f"exit {code}, expected one of {job.expect}"
    if code != 0:
        return None if out == "" else "stdout written on a failing exit"
    lines = out.splitlines()
    f = job.facts
    v = [re.escape(x) for x in f.get("vertices", ())]
    if job.kind == "solve":
        ok = _lines_match(
            lines, [f"{x}={_RATIONAL}" for x in v] + ["consistent=(true|false)", f"m=({_RATIONAL}|inf)"]
        )
    elif job.kind == "check":
        ok = out == _CHECK_PASS
    elif job.kind == "quality":
        want = sorted((x, m) for x in f["vertices"] for m in f["memories"])
        ok = _lines_match(
            lines, [f"{re.escape(x)},{re.escape(m)}={_RATIONAL}" for x, m in want]
        )
    elif job.kind == "lower-value":
        ok = _lines_match(lines, [f"{x}={_RATIONAL}" for x in v])
    elif job.kind == "deviation-prob":
        ok = _lines_match(
            lines,
            [f"epsilon={_RATIONAL}", f"m={_RATIONAL}", f"bound={_RATIONAL}",
             f"deviation-prob={_RATIONAL}"],
        )
    elif job.kind == "reset":
        pat = f"{_RATIONAL} -> {_RATIONAL} value={_RATIONAL}"
        ok = _lines_match(lines[:-1], [f"{x}={pat}" for x in v]) and lines[-1].startswith(
            "reset-pairs="
        )
    elif job.kind == "verify":
        ok = bool(lines) and all(line.startswith("PASS ") for line in lines)
    elif job.kind == "simulate":
        try:
            res = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        ok = res.get("n") == f["samples"] and 0 <= res.get("truncated_count", -1) <= f["samples"]
    else:
        return f"unknown job kind {job.kind!r}"
    return None if ok else f"unexpected {job.kind} output"


def check_pass(jobs, outs: list[str]) -> dict[int, str]:
    """Cross-job checks over one pass: lower-value equals quality at initial memory."""
    quality = {}
    for i, job in enumerate(jobs):
        if job.kind == "quality":
            quality[tuple(job.argv[1:])] = outs[i]
    bad = {}
    for i, job in enumerate(jobs):
        table = quality.get(tuple(job.argv[1:]))
        if job.kind != "lower-value" or table is None:
            continue
        initial = job.facts["initial"]
        rows = dict(line.split("=", 1) for line in table.splitlines())
        want = "".join(f"{x}={rows[f'{x},{initial}']}\n" for x in job.facts["vertices"])
        if outs[i] != want:
            bad[i] = "lower-value differs from quality at initial memory"
    return bad


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}-{seed}.json"


def input_digest(job, workdir: Path) -> str:
    """sha256 of a job's argv, with the work directory left out, and of the
    contents of every input file it names."""
    h = hashlib.sha256()
    prefix = str(workdir)
    for arg in job.argv:
        if arg.startswith(prefix):
            h.update(b"@" + arg[len(prefix):].encode() + b"\0")
            path = Path(arg)
            if path.is_file():
                h.update(path.read_bytes())
        else:
            h.update(arg.encode())
        h.update(b"\0")
    return h.hexdigest()[:DIGEST_CHARS]


def load_recorded(workload: str, seed: int) -> dict | None:
    """{"inputs": [digest], "jobs": [[exit code, stdout digest]]}, or None."""
    path = expected_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def save_recorded(workload: str, seed: int, inputs: list, results: list) -> Path:
    path = expected_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "jobs": [[code, digest] for code, digest in results],
    }
    path.write_text(json.dumps(body, separators=(",", ":")) + "\n")
    return path


def compare_inputs(recorded: list, inputs: list) -> str | None:
    """Why the generated inputs are not the recorded ones, or None."""
    if len(recorded) != len(inputs):
        return f"{len(inputs)} jobs, recorded {len(recorded)}"
    differ = [i for i, (a, b) in enumerate(zip(inputs, recorded)) if a != b]
    if differ:
        return f"{len(differ)} of {len(inputs)} jobs, first job {differ[0]}"
    return None


def compare_recorded(recorded: list, results: list) -> dict[int, str]:
    if len(recorded) != len(results):
        return {-1: f"{len(results)} jobs, recorded {len(recorded)}"}
    return {
        i: f"exit {code} sha {digest}, recorded exit {rc} sha {rd}"
        for i, ((code, digest), (rc, rd)) in enumerate(zip(results, recorded))
        if [code, digest] != [rc, rd]
    }
