"""The benchmark's workloads, their fixed inputs, and the correctness gate.

An item is one unit of work that the untraced passes run as a cold process
and the traced run runs in-process: ("cli", argv) is the public CLI,
("check", name) is verify.run_checks((name,)).  Inputs are fixed by the
paper's claims; a seed only shuffles the order of items within a pass.
"""

from __future__ import annotations

import json

SCHEMA = "outersix/1"

WORKLOADS = {
    "verify-all": (("cli", ("verify-all", "--json")),),
    "sym6-tables": (
        ("cli", ("aut", "--n", "3", "--json")),
        ("cli", ("aut", "--n", "4", "--json")),
        ("cli", ("aut", "--n", "5", "--json")),
        ("cli", ("aut", "--n", "6", "--json")),
        ("cli", ("icosa", "--emit", "phi", "--json")),
        ("check", "induced-map-outer"),
        ("check", "cage-correspondence"),
        ("check", "involutive-counts"),
        ("check", "engine-oracle"),
    ),
    "obstruction": (
        ("cli", ("lemma2", "--n-max", "11", "--json")),
        ("cli", ("lemma1", "--n", "7", "--json")),
        ("cli", ("classes", "--n", "8", "--json")),
        ("check", "spectrum-survey"),
        ("check", "stars"),
        ("check", "permutation-algebra"),
    ),
}

# The layers whose public functions the traced run calls before the items:
# the ones each workload's items spend their time in.
LAYERS = {
    "verify-all": {
        "perms", "involutions", "k6", "graphs", "autgroup", "icosahedron", "correspondence",
    },
    "sym6-tables": {"k6", "graphs", "autgroup", "icosahedron", "correspondence"},
    "obstruction": {"perms", "involutions"},
}

AUT_ORDER = {3: 6, 4: 24, 5: 120, 6: 1440}
OUT_ORDER = {3: 1, 4: 1, 5: 1, 6: 2}
INVOLUTIVE_OUTER = 36
SURVIVORS = [[6, 3]]
CHECK_COUNT = 11


def item_name(item) -> str:
    kind, payload = item
    if kind == "cli":
        return " ".join(a for a in payload if a != "--json")
    return f"check {payload}"


def check_report(names, results) -> str:
    """The JSON report a ("check", name) item prints, in the CLI's envelope."""
    report = {
        "schema": SCHEMA,
        "command": "check",
        "parameters": {"names": list(names)},
        "findings": {"checks": results},
        "pass": all(r["passed"] for r in results),
    }
    return json.dumps(report, indent=2) + "\n"


def _headlines(item, findings: dict) -> dict:
    """The paper's headline findings in this report, as {key: (got, expected)}."""
    kind, payload = item
    if kind == "check":
        details = findings["checks"][0].get("details", {})
        if payload == "involutive-counts":
            return {"involutive_outer": (details.get("involutive_outer"), INVOLUTIVE_OUTER)}
        if payload == "spectrum-survey":
            return {"survivors": (details.get("survivors"), SURVIVORS)}
        return {}
    command = payload[0]
    if command == "aut":
        n = int(payload[2])
        want = {"aut_order": AUT_ORDER[n], "out_order": OUT_ORDER[n]}
        if n == 6:
            want["involutive_outer"] = INVOLUTIVE_OUTER
        return {key: (findings.get(key), value) for key, value in want.items()}
    if command == "lemma2":
        return {"survivors": (findings.get("survivors"), SURVIVORS)}
    if command == "verify-all":
        return {
            "total": (findings.get("total"), CHECK_COUNT),
            "failed": (findings.get("failed"), 0),
        }
    return {}


def gate(item, output: bytes) -> str | None:
    """Why the item's report is wrong, or None when it is right."""
    try:
        report = json.loads(output)
    except ValueError:
        return "stdout is not a JSON report"
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        return f"schema is not {SCHEMA}"
    if report.get("pass") is not True:
        return "pass is not true"
    findings = report.get("findings")
    if not isinstance(findings, dict):
        return "findings missing"
    kind, payload = item
    if kind == "check":
        checks = findings.get("checks")
        if not isinstance(checks, list) or len(checks) != 1:
            return "expected exactly one check result"
        if checks[0].get("check") != payload or checks[0].get("passed") is not True:
            return f"check {payload} did not pass"
    for key, (got, want) in _headlines(item, findings).items():
        if got != want:
            return f"{key} is {got!r}, expected {want!r}"
    return None
