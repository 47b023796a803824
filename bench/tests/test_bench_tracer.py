"""The outside-in tracer restores every binding and accounts for op time."""

import json
import sys
from time import perf_counter

import xychain.cli
from tracer import LAYERS, NAME, Tracer, self_times


def _bindings():
    """Every ``(module, attribute) -> object`` in the xychain namespaces."""
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "xychain" or name.startswith("xychain.")
        for attr, value in vars(module).items()
    }


def _write_config(tmp_path):
    path = tmp_path / "qr24.json"
    path.write_text(json.dumps({"family": "qr24", "a": -0.3, "b": 0.3, "c": -0.8,
                                "q": 0.7, "N": 4}))
    return str(path)


def test_every_public_function_is_wrapped_at_every_binding():
    before = _bindings()
    with Tracer():
        during = _bindings()
        for layer in LAYERS:
            module = sys.modules[f"xychain.{layer}"]
            for attr in module.__all__:
                original = before[(module.__name__, attr)]
                if callable(original) and not isinstance(original, type):
                    copies = [key for key, value in before.items() if value is original]
                    assert copies, attr
                    for key in copies:
                        assert during[key] is not original
                        assert during[key].__wrapped__ is original
        assert during[("xychain.cli", "main")].__wrapped__ is before[("xychain.cli", "main")]
        # the package's own `from .x import f` copies are covered
        assert during[("xychain.cli", "build_chain")] is during[("xychain.chain", "build_chain")]


def test_restore_puts_back_every_original_binding():
    before = _bindings()
    with Tracer():
        pass
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_restore_after_an_exception():
    before = _bindings()
    try:
        with Tracer():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert all(_bindings()[key] is value for key, value in before.items())


def test_self_times_sum_to_op_wall(tmp_path):
    config = _write_config(tmp_path)
    tracer = Tracer()
    with tracer:
        tracer.op = 0
        start = perf_counter()
        code = xychain.cli.main(["verify", "--config", config, "--out", str(tmp_path / "r.json")])
        wall = perf_counter() - start
    assert code == 0
    spans = tracer.spans
    assert spans[0][NAME] == "cli.main"
    assert all(span[2] >= span[1] for span in spans)
    own = self_times(spans)
    assert min(own) >= -1e-6
    coverage = sum(own) / wall
    assert 0.95 <= coverage <= 1.0 + 1e-9
    names = {span[NAME] for span in spans}
    assert {"qseries.phi43_terminating_exact", "qracah.contiguity_coefficients",
            "linalg.jacobi_eigh", "spinoracle.jw_certify"} <= names
