"""The bit-identity tool runs against the package's storage API."""
import importlib.util
import pathlib
import re

import pytest

import svsim

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("fingerprint_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", list(svsim.PrecisionMode))
def test_fingerprints_are_digests_that_ignore_rank_order(tool, mode):
    circuit = tool._random_circuit(svsim, 0, n_qubits=8)
    tier = tool.tier_config(svsim, circuit, 2, mode)
    digests = [tool.fingerprint(svsim, svsim.run_circuit(
                   circuit, ranks=2, mode=mode, tier_config=tier, rank_order_seed=seed))
               for seed in (None, tool.ORDER_SEED)]
    assert len(digests[0]) == 3
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests[0])
    assert digests[0] == digests[1]
