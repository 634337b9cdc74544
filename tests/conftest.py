import pytest

from smdc import gf
from smdc.covers import chain_to_text, han_chain, yz_chain

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


def _drop(text, prefix):
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith(prefix))


def _han4_without_123():
    """The L=4 Han file without the cover of {1,2,3}; the other level-3
    covers weigh their child inside {1,2,3} 1 and the rest 1/2, so every
    parent sum and every covering inequality still holds."""
    text = _drop(chain_to_text(han_chain(4)), "g 3 1,2,3 ")
    for parent, child in (("1,2,4", "1,2"), ("1,3,4", "1,3"), ("2,3,4", "2,3")):
        text = text.replace(f"g 3 {parent} {child} 1/2\n", f"g 3 {parent} {child} 1\n")
    return text


_HAN4_LEVELS = {
    2: ["{1,2}", "{1,3}", "{1,4}", "{2,3}", "{2,4}", "{3,4}"],
    3: ["{1,2,3}", "{1,2,4}", "{1,3,4}", "{2,3,4}"],
    4: ["{1,2,3,4}"],
}
_COVERLESS_CHAINS = {
    "han4-no-g": (
        lambda: _drop(chain_to_text(han_chain(4)), "g "),
        [f"descent {a}: no cover at {u}" for a, us in _HAN4_LEVELS.items() for u in us],
    ),
    "5,1,1-no-g": (
        lambda: _drop(chain_to_text(yz_chain((5, 1, 1))), "g "),
        ["descent 2: no cover at {1,2}", "descent 2: no cover at {1,3}",
         "descent 3: no cover at {1,2,3}"],
    ),
    "5,1,1-no-g3": (
        lambda: _drop(chain_to_text(yz_chain((5, 1, 1))), "g 3 "),
        ["descent 3: no cover at {1,2,3}"],
    ),
    "han4-no-cover-at-123": (_han4_without_123, ["descent 3: no cover at {1,2,3}"]),
}


@pytest.fixture(params=list(_COVERLESS_CHAINS))
def coverless_chain(request):
    """(file text, audit failures) of a chain file that lacks the cover of
    some subset of positive weight."""
    make, failures = _COVERLESS_CHAINS[request.param]
    return make(), failures
