import numpy as np
import pytest

from tbdkit.serialize import _format_float
from tbdkit.spinor_algebra import build_gammas


@pytest.fixture(scope="session")
def dirac():
    return build_gammas("dirac")


@pytest.fixture(scope="session")
def weyl():
    return build_gammas("weyl")


@pytest.fixture(params=["dirac", "weyl"])
def gammas(request):
    return build_gammas(request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    raise TypeError(f"CSV cells must be scalars, got {type(v).__name__}")


@pytest.fixture(scope="session")
def reference_csv():
    """The row-by-row CSV writer that `serialize.write_csv` replaced,
    kept as its oracle: text of (header, rows), every cell formatted
    on its own."""

    def text(header, rows):
        lines = [",".join(header)]
        for row in rows:
            assert len(row) == len(header)
            lines.append(",".join(_format_cell(v) for v in row))
        return "".join(line + "\n" for line in lines)

    return text
