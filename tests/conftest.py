import pytest

from smdc import gf

# the compiled leg exists only where the extension imports, so a pure-only
# install runs each kernel test once, under its plain name
KERNELS = ("pure", "compiled") if gf._gfcore is not None else ("pure",)


def pytest_generate_tests(metafunc):
    if "kernel" in metafunc.fixturenames and len(KERNELS) > 1:
        metafunc.parametrize("kernel", KERNELS, indirect=True)


@pytest.fixture
def kernel(request, monkeypatch):
    """The GF stream kernel the test runs on, forced for its duration."""
    name = getattr(request, "param", "pure")
    if name == "pure":
        monkeypatch.setattr(gf, "_gfcore", None)
    assert gf.backend() == name
    return name
