"""The traced run of one workload, in one fresh interpreter.

    python bench/traced.py WORKLOAD SPANS

It first calls the public functions of each layer the workload uses, in
dependency order, one span per call, so the lru_caches are warm.  It then
runs the workload's items in the same process, so their spans measure only
the work the layer calls did not already cover.  With SPANS = 0 the same
sequence runs with no span recorded, which gives the tracing overhead.
The last line of stdout is a JSON object with the spans, the counts read
from the results, and the gate's verdict on each item.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

from workloads import LAYERS, WORKLOADS, check_report, gate, item_name


class Tracer:
    """Spans (name, start, end, parent index) kept in memory."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced


def layer_calls():
    """(span name, call, counts read from the call's result), in dependency
    order.  The span name's prefix is the layer."""
    from outersix import (
        autgroup,
        correspondence,
        graphs,
        icosahedron,
        involutions,
        k6,
        perms,
        verify,
    )

    def involution_classes():
        return [
            perms.involution_class(n, j)
            for n in range(2, 12)
            for j in range(1, n // 2 + 1)
        ]

    def k6_build():
        return (k6.edges(), k6.factors(), k6.factorizations(), k6.doily(), k6.tutte_graph())

    def corpus(search):
        return [search(graph, colors) for _, graph, colors in verify.oracle_corpus()]

    def search_counts(found):
        orders = [p.order() for p in autgroup.group_elements(6)]
        pairs = orders.count(2) * orders.count(6)
        return {
            "autgroup.search_found": len(found),
            "autgroup.search_pairs": pairs,
            "autgroup.search_yield": len(found) / pairs,
        }

    def symmetry():
        return icosahedron.full_symmetry_group(), icosahedron.rotation_group()

    none = lambda result: {}  # noqa: E731
    return [
        ("perms.involution_classes", involution_classes,
         lambda r: {"perms.involution_class_members": sum(map(len, r))}),
        ("involutions.survey", lambda: involutions.lemma2_survey(11),
         lambda r: {"involutions.survey_rows": len(r)}),
        ("involutions.star_search",
         lambda: [involutions.maximal_independent_sets(n) for n in range(3, 8)],
         lambda r: {"involutions.star_sets": sum(map(len, r))}),
        ("k6.build", k6_build, none),
        ("graphs.engine_corpus", lambda: corpus(graphs.automorphism_group), none),
        ("graphs.brute_force_corpus", lambda: corpus(graphs.brute_force_automorphisms), none),
        ("autgroup.context", lambda: autgroup.element_index(6, perms.Permutation.identity(6)),
         lambda r: {"autgroup.context_entries": len(autgroup.group_elements(6)) ** 2}),
        ("autgroup.search", lambda: autgroup.enumerate_automorphisms(6), search_counts),
        ("autgroup.split", lambda: autgroup.inner_and_outer(6), none),
        ("autgroup.inner_order", lambda: autgroup.inner_order(6), none),
        ("icosahedron.symmetry", symmetry, none),
        ("icosahedron.table", icosahedron.dual_pair_table, none),
        ("icosahedron.phi", lambda: icosahedron.dual_pair_table().pair_permutation_table(), none),
        ("icosahedron.outer_coset", lambda: icosahedron.dual_pair_table().all_outer_automorphisms(),
         lambda r: {"icosahedron.outer_coset_tables": len(r)}),
        ("graphs.cage_search", correspondence.cage_automorphisms,
         lambda r: {"graphs.cage_automorphisms": len(r)}),
        ("correspondence.transport", correspondence.correspondence, none),
    ]


def run_item(item, tracer: Tracer, cli, verify) -> bytes:
    kind, payload = item
    if kind == "check":
        return check_report([payload], verify.run_checks((payload,))).encode()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with tracer.span("cli.main"):
            cli.main(list(payload))
    return out.getvalue().encode()


def main(workload: str, enabled: bool) -> dict:
    tracer = Tracer(enabled)
    with tracer.span("setup.import"):
        from outersix import cli, verify
    # Spans around each registered check and around report rendering; the
    # program's own code is unchanged.
    verify.CHECKS = tuple(
        (name, tracer.wrap(f"verify.{name}", check)) for name, check in verify.CHECKS
    )
    if hasattr(cli, "_render"):
        cli._render = tracer.wrap("cli.render", cli._render)

    counts: dict = {}
    errors: list[str] = []
    attempted = 0
    for name, call, count in layer_calls():
        if name.split(".")[0] not in LAYERS[workload]:
            continue
        attempted += 1
        try:
            with tracer.span(name):
                result = call()
            counts.update(count(result))
        except Exception:
            errors.append(f"{name}: {traceback.format_exc()}")

    report_bytes = 0
    for item in WORKLOADS[workload]:
        attempted += 1
        try:
            output = run_item(item, tracer, cli, verify)
        except Exception:
            errors.append(f"{item_name(item)}: {traceback.format_exc()}")
            continue
        if item[0] == "cli":
            report_bytes += len(output)
        problem = gate(item, output)
        if problem is not None:
            errors.append(f"{item_name(item)}: {problem}")
    counts["cli.report_bytes"] = report_bytes
    return {
        "spans": tracer.spans,
        "counts": counts,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
    }


if __name__ == "__main__":
    result = main(sys.argv[1], sys.argv[2] == "1")
    print(json.dumps(result))
