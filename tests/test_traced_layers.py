"""The benchmark's traced layers name functions the package still calls.

perfbench/spec.py lists each layer as (module, attribute) targets that the
traced run replaces with timing wrappers.  A target that no longer resolves
is reported absent instead of failing the run, so these tests catch a
refactor that drops or renames one.  ``RETIRED`` lists the targets whose
functions the package deleted on purpose while spec.py still names them;
they must stay absent.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from supermodeling import engine, tumor
from supermodeling.engine import CouplingMatrix, SubModelEnsemble, coupled_step
from supermodeling.fields import GridSpec

SPEC_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"


def _layers():
    loader = importlib.util.spec_from_file_location("perfbench_spec", SPEC_FILE)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module.LAYERS


TARGETS = [(layer.name, module, attribute)
           for layer in _layers() for module, attribute in layer.targets]
RETIRED = {
    ("dynamics", "estimate_lipschitz"),
    ("experiments", "_write_contraction_csv"),
    ("experiments", "_write_coupling_trajectories"),
}


@pytest.mark.parametrize("layer, module, attribute", TARGETS,
                         ids=[f"{module}.{attribute}" for _, module, attribute in TARGETS])
def test_every_traced_target_resolves(layer, module, attribute):
    target = getattr(importlib.import_module(f"supermodeling.{module}"), attribute, None)
    if (module, attribute) in RETIRED:
        assert target is None, f"layer {layer}: retired {module}.{attribute} is back"
    else:
        assert callable(target), f"layer {layer}: supermodeling.{module}.{attribute} is gone"


def test_every_retired_target_is_still_traced():
    assert RETIRED <= {(module, attribute) for _, module, attribute in TARGETS}


def test_the_kernel_calls_its_traced_layers_by_their_module_names(monkeypatch):
    """Replacing a tumor target in its module, as the tracer does, must reach
    every call of it: a kernel that bound one to another name would hide its
    time from the trace."""
    calls = {}
    for _layer, module, attribute in TARGETS:
        if module != "tumor":
            continue
        original = getattr(tumor, attribute)

        def counted(*args, _name=attribute, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        calls[attribute] = 0
        monkeypatch.setattr(tumor, attribute, counted)
    spec = GridSpec(6, 6, 6, 1.0)
    params = tumor.TumorParams()
    system = tumor.TumorSystem(spec)
    state = tumor.gaussian_bump_state(spec, params, core_oxygen=1.0)
    system.volumes(state + system.tendency(state, params))
    assert calls and all(calls.values()), calls


def test_every_member_step_goes_through_explicit_step(monkeypatch):
    """The tracer replaces engine's binding of dynamics.explicit_step: an
    inline coupled step must call it once per member, correction included,
    and step no member by another path."""
    calls = []
    original = engine.explicit_step

    def counted(system, state, params, dt, **kwargs):
        calls.append((state, kwargs.get("correction")))
        return original(system, state, params, dt, **kwargs)

    monkeypatch.setattr(engine, "explicit_step", counted)
    spec = GridSpec(6, 6, 6, 1.0)
    params = tumor.TumorParams()
    ens = SubModelEnsemble(tumor.TumorSystem(spec), [params] * 3,
                           tumor.gaussian_bump_state(spec, params, core_oxygen=1.0))
    assert spec.size < engine.PARALLEL_MIN_CELLS  # every member is stepped inline
    coupled_step(ens, CouplingMatrix.uniform(3, 0.5, k_nudge=0.0), None, 0.1)
    assert len(calls) == 3
    for i, (state, correction) in enumerate(calls):
        assert np.shares_memory(state, ens.states[i]) and correction is not None
