"""Byte-identity of the session-rewired experiments vs pre-redesign output.

The golden files under ``golden/`` were rendered by the pre-DesignSession
implementations (direct ``tile_cost``/``simulate_network``/
``design_efficiency`` calls) at reduced sample counts; ``fig10_big.txt``
was rendered by the per-tile simulator before batched sampling, and
``quick/accuracy.txt`` by the one-call-per-output-channel emulated
convolution. The rewired drivers must reproduce them byte for byte: the
session, the batched simulator and the batched convolution only remove
repeated work, never change a number.
"""

from pathlib import Path

import pytest

from repro.tile.config import BIG_TILE, SMALL_TILE

GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


def test_fig7_render_byte_identical():
    from repro.experiments import fig7

    assert fig7.render(fig7.run()) + "\n" == golden_text("fig7.txt")


def test_table1_render_byte_identical():
    from repro.experiments import table1

    assert table1.render(table1.run(samples=48, rng=5)) + "\n" == golden_text("table1.txt")


def test_table1_shared_session_still_byte_identical():
    from repro.api import DesignSession
    from repro.experiments import table1

    with DesignSession() as session:
        cold = table1.render(table1.run(samples=48, rng=5, session=session))
        warm = table1.render(table1.run(samples=48, rng=5, session=session))
    assert cold == warm
    assert cold + "\n" == golden_text("table1.txt")


@pytest.mark.slow
def test_fig8a_render_byte_identical():
    from repro.experiments import fig8

    out = fig8.render(fig8.run_precision_sweep(samples=48, rng=1))
    assert out + "\n" == golden_text("fig8a.txt")


@pytest.mark.slow
def test_fig8b_render_byte_identical():
    from repro.experiments import fig8

    out = fig8.render(fig8.run_cluster_sweep(samples=48, rng=2))
    assert out + "\n" == golden_text("fig8b.txt")


def test_fig10_render_byte_identical():
    from repro.experiments import fig10

    out = fig10.render(fig10.run(samples=48, rng=4, tiles=(SMALL_TILE,)))
    assert out + "\n" == golden_text("fig10.txt")


def test_fig10_big_tile_render_byte_identical():
    from repro.experiments import fig10

    out = fig10.render(fig10.run(samples=48, rng=4, tiles=(BIG_TILE,)))
    assert out + "\n" == golden_text("fig10_big.txt")


@pytest.mark.slow
def test_accuracy_quick_run_byte_identical(capsys):
    """``runner accuracy --quick`` (training plus every emulated conv) still
    prints the committed quick golden; the ``[bracketed]`` timing footer is
    the only permitted difference."""
    from repro.experiments.runner import main

    assert main(["accuracy", "--quick"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    out = "".join(line for line in lines if not line.startswith("["))
    assert out == golden_text("quick/accuracy.txt")
