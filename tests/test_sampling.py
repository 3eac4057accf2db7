import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from convexotonic.sampling import (
    complex_gaussian,
    complex_gaussians,
    random_directions,
    seeded_rng,
)


def one_direction(rng, g, n):
    """Reference: one tuple of two separate draws, its real parts and then its
    imaginary parts, scaled to unit largest entry magnitude."""
    real, imag = rng.standard_normal((g, n, n)), rng.standard_normal((g, n, n))
    t = (real + 1j * imag) / np.sqrt(2)
    return t / np.max(np.abs(t))


@pytest.mark.parametrize("g, n, count", [(1, 1, 5), (2, 3, 7), (3, 2, 1), (2, 4, 3)])
@pytest.mark.parametrize("seed", [0, 42])
def test_stacked_directions_are_the_single_draws(seed, g, n, count):
    stacked, single = seeded_rng(seed), seeded_rng(seed)
    got = random_directions(stacked, g, n, count)
    want = np.array([one_direction(single, g, n) for _ in range(count)])
    assert got.shape == (count, g, n, n)
    assert got.tobytes() == want.tobytes()
    assert np.allclose(np.abs(got).max(axis=(1, 2, 3)), 1.0, rtol=1e-15, atol=0)
    # and the generator is left where the single draws leave it
    assert stacked.bit_generator.state == single.bit_generator.state


def test_stream_layout_is_real_then_imaginary_per_item():
    normals = seeded_rng(5).standard_normal(3 * 2 * 4).reshape(3, 2, 4)
    stack = complex_gaussians(seeded_rng(5), 3, 4)
    assert stack.tobytes() == ((normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2)).tobytes()
    assert complex_gaussian(seeded_rng(5), 4).tobytes() == stack[0].tobytes()


def test_zero_directions_draw_nothing():
    rng = seeded_rng(1)
    state = rng.bit_generator.state
    assert random_directions(rng, 2, 3, 0).shape == (0, 2, 3, 3)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "seed, error", [(None, TypeError), (1.5, TypeError), ([1, 2], TypeError), (-1, ValueError)]
)
def test_seeded_rng_takes_integers_of_at_least_zero(seed, error):
    with pytest.raises(error):
        seeded_rng(seed)
    assert seeded_rng(np.int64(7)).standard_normal() == np.random.default_rng(7).standard_normal()


def test_importing_the_package_loads_no_random_module():
    # numpy loads numpy.random (19 modules, about 6 MB) on first use; an
    # annotation such as np.random.Generator evaluated at import would load it
    # in every CLI call, which draws nothing for most subcommands
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = "import sys, convexotonic; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.stdout.strip() == "False"
