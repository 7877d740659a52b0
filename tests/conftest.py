import numpy as np
import pytest

from whichway import SlitGeometry, _floattext


@pytest.fixture
def hene_geom() -> SlitGeometry:
    """HeNe-laser geometry used for the headline angle numbers."""
    return SlitGeometry(wavelength_m=632.8e-9, slit_width_m=2e-6,
                        slit_separation_m=12.6e-6, screen_distance_m=0.1)


@pytest.fixture
def ref_geom() -> SlitGeometry:
    """Round-number geometry used for the pattern and envelope checks."""
    return SlitGeometry(wavelength_m=0.63e-6, slit_width_m=2e-6,
                        slit_separation_m=12e-6, screen_distance_m=0.1)


@pytest.fixture
def spy_on_formatting(monkeypatch):
    """A function that spies on ``_floattext.format_g17`` from when it is
    called, and returns the sizes of the arrays formatted from then on, one
    entry per call."""
    def spy_from_now() -> list[int]:
        sizes = []
        real = _floattext.format_g17

        def spy(values):
            sizes.append(np.size(values))
            return real(values)

        monkeypatch.setattr(_floattext, "format_g17", spy)
        return sizes

    return spy_from_now
