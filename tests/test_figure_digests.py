"""Cross-change anchor: SHA-256 digests of every figure's series.

Each digest covers one figure's full data at the ``tiny`` scale, seed 1:
the sweep figures' x values, normalised and mean series, and Fig. 9's
per-policy failure-snapshot arrays and final makespans.  Floats go
through ``json.dumps``, whose ``repr`` form round-trips every double, so
a digest changes iff some value changes by at least one bit.

Any change to a scheduling decision, a fault draw or an Eq. 4
evaluation shows up here without running an oracle.  Regenerate the
literals only for a deliberate change of behaviour:
``PYTHONPATH=src python tests/test_figure_digests.py`` prints the table.

``SMALL_DIGESTS`` pins fig7 and fig10 at ``small`` scale, seed 1, in the
slow leg (``REPRO_SLOW_TESTS=1``, about half a minute): more replicates
and larger packs than ``tiny``, so the per-replicate series tree forks
far more often per figure.
"""

import hashlib
import json
import os

import pytest

from repro.experiments import list_figures, run_figure
from repro.experiments.figures import TraceFigureResult

TINY_DIGESTS = {
    "fig10": "5d68f798573f27bade808778ce7236d8bfafac6ce81a72f4dd3e13d6fc1f492e",
    "fig11": "3478a54a60593fb29530034e770ba45928dedd154ea6a9728deb09c2eb65dd8c",
    "fig12": "61321b0728f61e794f668358537900d3d3e79501a59bd6f8183a10467ba9e45b",
    "fig13a": "5d68f798573f27bade808778ce7236d8bfafac6ce81a72f4dd3e13d6fc1f492e",
    "fig13b": "7078bb63096a9f374790c68d781314e02d379640d84220b73591bafcd805f874",
    "fig13c": "8334bd66f7ab03fe22fcf6685a33d7552d0f705a30a242610ca8e36081a9d21c",
    "fig14": "b19fc56da4793861b7e9e10b6bae911438ed5e832a86845be6b1a1eca69b1dd1",
    "fig5a": "afc7fceb517e8035220c43ea6d9bb0b15ce907b29da0caafa89a0891f99b8214",
    "fig5b": "cf6f7ac54c4c28d1c634dc9734351bc70344a42930919ccc0c8eb47437974065",
    "fig6a": "51acd2acc5421f261aee0077ccacae471e987f6bbbe24fccbf6354aeeaa2d13c",
    "fig6b": "db8f4af1dbead09712adbb04cc1a49027e04b38f452838299d133736d284711e",
    "fig7": "41714d7104cd2b5bf690bb8afa674746105b307ec8d39d69c3501d9051b1342a",
    "fig8": "ff7d8eaa964faee375429016ea29ac4e41018341a5b99e15e4862408df55e54c",
    "fig9": "393b4791917c3536b1098ddebfb5bd4677b25d10f93ac3c6890a7621c83cd2c7",
}

SMALL_DIGESTS = {
    "fig10": "21a30640c38437fafa0740103814a8662a0e7b088acf79bbccdf761beac09176",
    "fig7": "027236e0873a19a5b67d55a2adb521b81c63489ba5dab530860fa8ba49cbc75e",
}


def figure_digest(result) -> str:
    """SHA-256 of one figure's series (bit-exact through float ``repr``)."""
    if isinstance(result, TraceFigureResult):
        doc = {
            "series": {
                key: {name: arr.tolist() for name, arr in arrays.items()}
                for key, arrays in result.series.items()
            },
            "final": result.final_makespans,
        }
    else:
        doc = {
            "x": result.x_values,
            "normalized": result.normalized,
            "means": result.means,
        }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_every_figure_is_pinned():
    assert sorted(TINY_DIGESTS) == sorted(list_figures())


@pytest.mark.parametrize("figure", sorted(TINY_DIGESTS))
def test_tiny_digest_unchanged(figure):
    result = run_figure(figure, scale="tiny", seed=1)
    assert figure_digest(result) == TINY_DIGESTS[figure]


@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW_TESTS"),
    reason="small-scale sweeps take a while; set REPRO_SLOW_TESTS=1",
)
@pytest.mark.parametrize("figure", sorted(SMALL_DIGESTS))
def test_small_digest_unchanged(figure):
    result = run_figure(figure, scale="small", seed=1)
    assert figure_digest(result) == SMALL_DIGESTS[figure]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for name in sorted(list_figures()):
        digest = figure_digest(run_figure(name, scale="tiny", seed=1))
        print(f'    "{name}": "{digest}",')
    print("small:")
    for name in sorted(SMALL_DIGESTS):
        digest = figure_digest(run_figure(name, scale="small", seed=1))
        print(f'    "{name}": "{digest}",')
