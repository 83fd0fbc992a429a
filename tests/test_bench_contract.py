"""What bench/ reads of the package: the span tracer's rebinding, and the names the harness uses.

CI's benchmark smoke runs after tier-1, so without these tests a deletion that breaks the
benchmark would pass tier-1. The tracer is loaded from bench/tracer.py and nothing there is
edited.
"""

import importlib.util
import inspect

import finslercurv as fc
from finslercurv import cli, indicatrix, metrics

from golden_corpus import ROOT


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict:
    """Every function bound in the package's modules, and FundamentalFunction.guard."""
    modules = [fc] + [m for m in vars(fc).values()
                      if inspect.ismodule(m) and m.__name__.startswith("finslercurv.")]
    found = {(m.__name__, attr): obj for m in modules for attr, obj in vars(m).items()
             if inspect.isfunction(obj)}
    found["FundamentalFunction", "guard"] = vars(metrics.FundamentalFunction)["guard"]
    return found


def test_tracer_installs_and_restores_every_binding():
    tracer = load_tracer().Tracer(fc)
    before = bindings()
    tracer.install()
    try:
        during = bindings()
        wrapped = {key for key in before if during[key] is not before[key]}
        assert {("finslercurv.indicatrix", "verify_claims"), ("finslercurv", "verify_claims"),
                ("finslercurv.indicatrix", "adapted_field"),
                ("FundamentalFunction", "guard")} <= wrapped
        fund = fc.euclidean(3)
        assert fc.verify_claims(fund, count=2, methods=("hyperdual",)).passed
        assert fund.guard([1.0, 2.0, 3.0]) is True
        assert tracer.calls["indicatrix.verify_claims"] == 1
        assert tracer.calls["indicatrix.adapted_field"] == 1
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_names_the_harness_reads():
    # bench/run.py records the thread count; bench/workloads.py builds mroot norms and
    # checks every oracle gap against the bound
    assert cli._thread_count() == 1
    assert metrics.mroot(2, 6).family == "mroot"
    assert 0.0 < indicatrix.ORACLE_GAP_BOUND < 1.0
    summary = indicatrix.verify_claims(fc.euclidean(2), count=1, methods=("hyperdual",))
    assert len(summary.reports["hyperdual"]) == 1
