"""The benchmark's tracer (perfbench/tracing.py) still finds what it wraps.

The tracer patches kvar's functions by module attribute, from outside the
package.  A renamed function, or one that ``cli`` captured at import time,
would leave its span at zero calls without any error.
"""

import importlib.util
import json
import pathlib
import sys

from kvar import cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SUITE = pathlib.Path(__file__).resolve().parent / "fixtures" / "perturbed_suite.json"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(mod_name: str, path: str):
    owner = sys.modules[mod_name]
    if "." in path:
        cls_name, path = path.split(".")
        owner = getattr(owner, cls_name)
    return owner, path


def _namespaces():
    """Every kvar module and every class defined in one, with a copy of its attributes."""
    spaces = [m for n, m in sorted(sys.modules.items()) if n == "kvar" or n.startswith("kvar.")]
    spaces += [value for m in list(spaces) for value in vars(m).values()
               if isinstance(value, type) and value.__module__ == m.__name__]
    return [(ns, dict(vars(ns))) for ns in spaces]


def test_tracer_wraps_every_target_and_restores_it(monkeypatch):
    tracing = _load_tracing()
    assert "perfbench_tracing" not in sys.modules
    added = []
    add = cli.Report.add

    def counting_add(self, record):
        added.append(record)
        add(self, record)
    monkeypatch.setattr(cli.Report, "add", counting_add)

    before = _namespaces()
    originals = {}
    for mod_name, path, _ in tracing.TARGETS:
        owner, attr = _target(mod_name, path)
        originals[owner, attr] = vars(owner)[attr]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original, (owner, attr)
        report = cli.Report({})
        cli.run_corpus_checks(report, 1, 10, ["euler", "e"])
    finally:
        tracer.uninstall()
    for span in ("csupport.additivity_check", "csupport.consistency_check",
                 "csupport.extend_measure", "spansite.check_c_complete",
                 "toric.complete_surface"):
        assert tracer.calls[span] > 0, span
    assert len(added) == len(report.records) > 0
    for ns, attrs in before:
        now = vars(ns)
        assert all(now.get(k) is v for k, v in attrs.items()), ns


def test_tracer_counts_the_checks_of_a_suite():
    # the suite runner picks its check function per kind; each call still
    # goes through the tracer's span
    suite = json.loads(SUITE.read_text())
    kinds = [check["kind"] for check in suite["checks"]]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        report = cli.Report({})
        cli.run_suite(report, suite)
    finally:
        tracer.uninstall()
    assert len(report.records) == len(kinds)
    assert tracer.calls["csupport.additivity_check"] == kinds.count("additivity") > 0
    assert tracer.calls["csupport.consistency_check"] == sum(
        kinds.count(k) for k in ("blowup_descent", "mayer_vietoris", "kunneth")) > 0
    assert tracer.calls["csupport.extend_measure"] > 0
