"""Pinned analytic outputs: numerical rewrites must not move the RCM curves.

``routability()`` and ``log E[S]`` are evaluated in log space (log-binomial
distance distributions, a max-shifted log-sum-exp).  ``PINS`` fixes both for
every registered analytic geometry at d in {10, 16, 100} to 1e-12 relative,
so a change to those numerics shows up here.  The subprocess test evaluates
the pins again with ``scipy`` (and ``networkx``) made unimportable: the
analytic core must not need them, since ``pyproject.toml`` declares neither.
"""

from __future__ import annotations

import json

import pytest

from repro.core.geometry import get_geometry, list_geometries
from repro.core.routability import routability

from conftest import run_with_undeclared_imports_blocked

#: ``(geometry, d, q, routability, log E[S])``.
PINS = [
    ("debruijn", 10, 0.05, 0.6994414591770298, 6.521676844067706),
    ("debruijn", 10, 0.2, 0.2208416591033977, 5.196797496595033),
    ("debruijn", 10, 0.5, 0.017614435543052837, 2.197333078394211),
    ("debruijn", 10, 0.8, 0.0032703238783120697, -0.40572713283364503),
    ("debruijn", 16, 0.05, 0.5147494621996038, 10.374970554704785),
    ("debruijn", 16, 0.2, 0.058591411931251475, 8.03002511676321),
    ("debruijn", 16, 0.5, 0.00045777810781545637, 2.7080512183542966),
    ("debruijn", 16, 0.8, 5.086645639814271e-05, -0.4054661818407349),
    ("debruijn", 100, 0.05, 0.00692459557933797, 64.2907491328973),
    ("debruijn", 100, 0.2, 4.243824950696851e-10, 47.51118854833955),
    ("debruijn", 100, 0.5, 1.561944592337602e-28, 4.595119850134589),
    ("debruijn", 100, 0.8, 2.6295363507367142e-30, -0.4054651081081647),
    ("hypercube", 10, 0.05, 0.9974524036173891, 6.876599174943466),
    ("hypercube", 10, 0.2, 0.9518785371450511, 6.6577889661321),
    ("hypercube", 10, 0.5, 0.6139048663482197, 5.748454286563199),
    ("hypercube", 10, 0.8, 0.10222070744632993, 3.0365181159437435),
    ("hypercube", 16, 0.05, 0.9973705009320674, 11.036412570286423),
    ("hypercube", 16, 0.2, 0.9504837077422151, 10.816408006052525),
    ("hypercube", 16, 0.5, 0.5835904869863768, 9.858621427317358),
    ("hypercube", 16, 0.8, 0.040710363968612134, 6.279568103683019),
    ("hypercube", 100, 0.05, 0.9973687508223354, 69.26079004460874),
    ("hypercube", 100, 0.2, 0.9504159948390103, 69.04071900375145),
    ("hypercube", 100, 0.5, 0.5775761901733732, 68.0726559611824),
    ("hypercube", 100, 0.8, 0.01684181880145437, 63.62138987239733),
    ("ring", 10, 0.05, 0.997297431738299, 6.876443795179392),
    ("ring", 10, 0.2, 0.9421412232664068, 6.647506708394696),
    ("ring", 10, 0.5, 0.43968896442784766, 5.414681889135328),
    ("ring", 10, 0.8, 0.0028526112804108843, -0.5423813446627914),
    ("ring", 16, 0.05, 0.9972439752280202, 11.036285702958697),
    ("ring", 16, 0.2, 0.941820810462403, 10.807252019037266),
    ("ring", 16, 0.5, 0.4348578009160415, 9.564440994574413),
    ("ring", 16, 0.8, 0.00016349436850709753, 0.762108668067361),
    ("ring", 100, 0.05, 0.997243127584221, 69.26066408201959),
    ("ring", 100, 0.2, 0.9418157305944626, 69.03162886605924),
    ("ring", 100, 0.5, 0.4347408277526935, 67.78856565171314),
    ("ring", 100, 0.8, 5.926189223954039e-05, 57.971736058374894),
    ("smallworld", 10, 0.05, 0.8962795760052924, 6.769647134085982),
    ("smallworld", 10, 0.2, 0.10261402455717247, 4.430326141498762),
    ("smallworld", 10, 0.5, 0.001300667823316962, -0.4085078459710604),
    ("smallworld", 10, 0.8, 0.0009086594704193205, -1.6864010331865202),
    ("smallworld", 16, 0.05, 0.6988265749488853, 10.680692860519983),
    ("smallworld", 16, 0.2, 0.0027104132317416407, 4.956538092299154),
    ("smallworld", 16, 0.5, 1.017312142580793e-05, -1.098584279782017),
    ("smallworld", 16, 0.8, 8.257550489462922e-06, -2.2235418856546034),
    ("smallworld", 100, 0.05, 1.4193631686554894e-07, 53.495537408890016),
    ("smallworld", 100, 0.2, 3.321251152755943e-31, -1.0882218129583014),
    ("smallworld", 100, 0.5, 6.573840876841783e-32, -3.178053830347943),
    ("smallworld", 100, 0.8, 6.260800835087426e-32, -4.143134726391529),
    ("tree", 10, 0.05, 0.8170009587950114, 6.677035011404686),
    ("tree", 10, 0.2, 0.43515854639745805, 5.875061965674073),
    ("tree", 10, 0.5, 0.11089048740215271, 4.037157425543185),
    ("tree", 10, 0.8, 0.02547466350539745, 1.647068212011452),
    ("tree", 16, 0.05, 0.7020164437437866, 10.685247081465139),
    ("tree", 16, 0.2, 0.23161286778501985, 9.404504289534337),
    ("tree", 16, 0.5, 0.020015284755128353, 6.485918130802682),
    ("tree", 16, 0.8, 0.0013343628122189268, 2.8615392843800813),
    ("tree", 100, 0.05, 0.08370241038087242, 66.78293725756551),
    ("tree", 100, 0.2, 3.3201748609483454e-05, 58.778666490211876),
    ("tree", 100, 0.5, 6.41440437076287e-13, 40.546510810816415),
    ("tree", 100, 0.8, 3.266593078057264e-22, 18.232155667320775),
    ("xor", 10, 0.05, 0.9948558631855772, 6.87399260853485),
    ("xor", 10, 0.2, 0.9043142346549669, 6.60652843121164),
    ("xor", 10, 0.5, 0.36517437386302787, 5.228989287335291),
    ("xor", 10, 0.8, 0.0334920952488212, 1.9206932900721696),
    ("xor", 16, 0.05, 0.9947355732208774, 11.033767199859641),
    ("xor", 16, 0.2, 0.9008133574750204, 10.762735070728095),
    ("xor", 16, 0.5, 0.29814792382707256, 9.187011663399996),
    ("xor", 16, 0.8, 0.0028100974851506815, 3.606304575655378),
    ("xor", 100, 0.05, 0.994732493341032, 69.25814333272302),
    ("xor", 100, 0.2, 0.9005785218922736, 68.98685658461625),
    ("xor", 100, 0.5, 0.27964117060171134, 67.34732284419),
    ("xor", 100, 0.8, 3.4195505051026017e-06, 55.11927869677628),
]

RELATIVE = 1e-12

_SCIPY_BLOCKED = """
import json
import repro
from repro.core.geometry import get_geometry
from repro.core.routability import routability

values = [
    [routability(g, q, d=d), get_geometry(g).log_expected_reachable_component(d, q)]
    for g, d, q, _, _ in json.load(sys.stdin)
]
assert "scipy" not in sys.modules
json.dump(values, sys.stdout)
"""


def _assert_pinned(pin, measured_routability, measured_log_s):
    geometry, d, q, expected_routability, expected_log_s = pin
    assert measured_routability == pytest.approx(expected_routability, rel=RELATIVE, abs=0.0), pin
    assert measured_log_s == pytest.approx(expected_log_s, rel=RELATIVE, abs=0.0), pin


def test_every_registered_geometry_is_pinned():
    assert {pin[0] for pin in PINS} == set(list_geometries())


@pytest.mark.parametrize("geometry", sorted({pin[0] for pin in PINS}))
def test_pinned_values(geometry):
    model = get_geometry(geometry)
    for pin in PINS:
        if pin[0] == geometry:
            _, d, q, _, _ = pin
            _assert_pinned(pin, routability(geometry, q, d=d), model.log_expected_reachable_component(d, q))


def test_pins_hold_with_scipy_blocked():
    completed = run_with_undeclared_imports_blocked(_SCIPY_BLOCKED, json.dumps(PINS))
    assert completed.returncode == 0, completed.stderr
    values = json.loads(completed.stdout)
    assert len(values) == len(PINS)
    for pin, (measured_routability, measured_log_s) in zip(PINS, values):
        _assert_pinned(pin, measured_routability, measured_log_s)
