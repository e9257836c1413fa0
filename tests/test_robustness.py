"""Inputs at the edges of the float range, of the frequency bound and of
numpy's array rank.

Each config below once ended in a traceback (exit 1) or printed nan: a pair
whose product overflows, l2 norms whose A*A overflows or underflows, and
symbols at an n whose 2n key entries or lattice axes pass numpy's rank.
Through ``cli.main`` each must now exit 0 with a certified reading, or 2
with the field at fault.  Keys up to ``MAX_FREQ`` give star and Berezin
phases of angles up to 2^48 n; the exact identities must hold there as they
do for small keys.
"""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant.analysis import certified_l2_norm, error_intertwine
from torusquant.cli import main
from torusquant.config import parse_config
from torusquant.quantize import HilbertSpec, Polarization, toeplitz_diagonals
from torusquant.starprod import HbarValue, Orientation, star_exact
from torusquant.trigpoly import MAX_FREQ, TrigPoly


def run_cli(tmp_path, command, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return main([command, str(path), "--out", str(tmp_path / "out"), "--quiet"])


def report_of(tmp_path) -> dict:
    (report,) = (tmp_path / "out").glob("*.report.json")
    return json.loads(report.read_text(encoding="utf-8"))


def coeffs(*terms):
    return {"coeffs": [{"p": p, "q": q, "re": re} for p, q, re in terms]}


HUGE_PAIR = coeffs(([1], [1], 1e300))


@pytest.mark.parametrize(
    "command, data, field",
    [
        pytest.param("star", {"experiment": "star_table", "n": 1, "order": 1, "f": HUGE_PAIR, "g": HUGE_PAIR},
                     "f.coeffs", id="star-table"),
        pytest.param("run", {"experiment": "product", "n": 1, "k_min": 2, "k_max": 8, "k_rule": "linear",
                             "order": 1, "f": HUGE_PAIR, "g": HUGE_PAIR}, "f.coeffs", id="product-sweep"),
        # the larger factor is named, here an expression projected at run time
        pytest.param("star", {"experiment": "star_table", "n": 1, "order": 0, "f": coeffs(([0], [1], 1e10)),
                              "g": {"expr": "1e300*cos(2*pi*x1)", "bandwidth": 1}}, "g.expr", id="expression"),
        # a finite l1 product whose order-1 amplitudes pass the float range
        pytest.param("star", {"experiment": "star_table", "n": 1, "order": 1,
                              "f": coeffs(([0], [MAX_FREQ], 1e150)), "g": coeffs(([MAX_FREQ], [0], 1e150))},
                     "f.coeffs", id="truncated-order"),
    ],
)
def test_a_pair_whose_product_overflows_is_a_config_error(tmp_path, capsys, command, data, field):
    assert run_cli(tmp_path, command, data) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: the product of f") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "data, first",
    [
        pytest.param({"experiment": "norm_bound", "n": 1, "k_min": 128, "k_max": 128,
                      "f": coeffs(([1], [1], 1e160), ([0], [1], 1e160))}, 2e160, id="huge-norm"),
        pytest.param({"experiment": "product", "n": 1, "k_min": 128, "k_max": 512, "order": 1,
                      "f": coeffs(([1], [1], 1e100), ([0], [2], 1e100)),
                      "g": coeffs(([2], [1], 1e100), ([1], [0], 1e100))}, None, id="huge-product-remainder"),
        pytest.param({"experiment": "norm_bound", "n": 2, "k_min": 128, "k_max": 128,
                      "f": coeffs(([1, 0], [1, 0], 1e-200), ([0, 0], [0, 1], 1e-200))}, 1.99985e-200,
                     id="tiny-norm-above-the-dense-cap"),
    ],
)
def test_l2_norms_far_from_one_are_certified(tmp_path, data, first):
    # A*A of these overflows past about 1.3e154 or underflows below 1e-154
    assert run_cli(tmp_path, "run", data) == 0
    report = report_of(tmp_path)
    assert {m["method"] for m in report["details"]["l2_methods"]} == {"lanczos_certified"}
    if first is not None:
        assert report["rows"][0]["error"] == pytest.approx(first, rel=1e-5)


# 2n = 80 is past numpy's array rank on every supported numpy: 32 axes on
# numpy 1.x and 64 on 2.x
LARGE_N = 40
FLAT = {"random": {"bandwidth": 0}}


@pytest.mark.parametrize(
    "command, data",
    [
        ("run", {"experiment": "trace", "n": LARGE_N, "k_min": 2, "k_max": 4, "f": FLAT}),
        ("star", {"experiment": "star_table", "n": LARGE_N, "order": 1, "f": FLAT, "g": FLAT}),
        ("run", {"experiment": "trace", "n": LARGE_N, "k_min": 2, "k_max": 4,
                 "f": {"expr": "cos(2*pi*y1)", "bandwidth": 1}}),
        ("run", {"experiment": "trace", "n": LARGE_N, "k_min": 2, "k_max": 4,
                 "f": coeffs(([0] * LARGE_N, [1] + [0] * (LARGE_N - 1), 1.0))}),
    ],
    ids=["random-trace", "random-star", "expr-trace", "coeffs-trace"],
)
def test_symbols_at_large_n_run_with_no_axis_per_dimension(tmp_path, command, data):
    assert run_cli(tmp_path, command, data) == 0
    if command == "star":
        # one flat term each: the order-0 product is their product, and no order-1 term
        f, g = parse_config(data).symbols()
        (csv,) = (tmp_path / "out").glob("*.csv")
        zeros = " ".join(["0"] * LARGE_N)
        c = complex(f.values[0] * g.values[0])
        assert csv.read_text(encoding="utf-8").splitlines()[1:] == [f'0,"{zeros}","{zeros}",{c.real!r},{c.imag!r}']
    else:
        report = report_of(tmp_path)
        assert report["passed"] and all(row["error"] <= 1e-15 for row in report["rows"])


def test_the_exact_transform_of_a_large_symbol_is_judged_relative_to_its_size(tmp_path):
    # defects of 3e184 to 5e184 are 3e-16 to 5e-16 of ||f||_l1 = 3e200:
    # rounding, judged against 1e-10 ||f||_l1 as a small symbol is judged
    data = {"experiment": "intertwine", "n": 1, "k_min": 128, "k_max": 512, "order": 1,
            "f": coeffs(([1], [1], 1e200), ([0], [1], 1e200), ([2], [1], 1e200))}
    assert run_cli(tmp_path, "run", data) == 0
    report = report_of(tmp_path)
    (exact,) = [s for s in report["series"] if s["name"] == "exact_transform"]
    assert exact["outcome"] == "exact_identity" and exact["passed"]
    assert report["details"]["exact_tolerance"] == 1e-10 * 3e200
    assert 1e184 < report["details"]["exact_max_error"] < 1e-15 * 3e200


B = MAX_FREQ
LARGE_F = TrigPoly.harmonic(1, (B,), (-(B - 3),))
LARGE_G = TrigPoly.harmonic(1, (B - 1,), (B,))


@pytest.mark.parametrize("k", [5, 8, 12])
def test_exact_identities_hold_for_keys_at_the_frequency_bound(k):
    # the float angles 2 pi hbar a.q and 2 pi hbar p.a near 2^48 once moved
    # these defects to 2e-3 .. 3e-2
    spec = HilbertSpec(1, k)
    product = toeplitz_diagonals(LARGE_F, spec) @ toeplitz_diagonals(LARGE_G, spec)
    defect = product - toeplitz_diagonals(star_exact(LARGE_F, LARGE_G, HbarValue(k)), spec)
    assert certified_l2_norm(defect, 1e-12) <= 1e-12
    assert certified_l2_norm(error_intertwine(LARGE_F, None, k), 1e-12) <= 1e-12


def moyal_weyl(f: TrigPoly, k: int) -> TrigPoly:
    """The (p, a) amplitude times e^{i pi hbar p.a}, p.a reduced modulo 2k in
    exact integers: Q of this is the Weyl-type quantization of f, under
    which the Moyal product is the operator product."""
    turns = [sum(x * y for x, y in zip(p, a)) % (2 * k) for (p, a), _c in f.terms()]
    phases = np.array([cmath.exp(1j * math.pi * m / k) for m in turns], dtype=complex)
    return TrigPoly._from_arrays(f.n, f.keys, f.values * phases)


frequency = st.integers(-MAX_FREQ, MAX_FREQ)


@st.composite
def harmonic_sums(draw, n):
    keys = draw(st.lists(st.tuples(*[frequency] * (2 * n)), min_size=1, max_size=3, unique=True))
    return TrigPoly(n, {(key[:n], key[n:]): 1.0 for key in keys})


@st.composite
def large_key_pairs(draw):
    n = draw(st.sampled_from((1, 2)))
    return draw(harmonic_sums(n)), draw(harmonic_sums(n))


@settings(max_examples=60, deadline=None)
@given(large_key_pairs(), st.integers(1, 16))
def test_exact_product_and_transform_hold_for_keys_up_to_the_frequency_bound(pair, k):
    f, g = pair
    h, tol = HbarValue(k), 1e-12 * f.l1_norm() * g.l1_norm()
    position, momentum = HilbertSpec(f.n, k), HilbertSpec(f.n, k, Polarization.MOMENTUM)
    # the position basis quantizes STAR, the momentum basis CHECK, and the
    # Weyl-type symbols MOYAL as a homomorphism
    quantizations = (
        (Orientation.STAR, lambda s: toeplitz_diagonals(s, position)),
        (Orientation.CHECK, lambda s: toeplitz_diagonals(s, momentum)),
        (Orientation.MOYAL, lambda s: toeplitz_diagonals(moyal_weyl(s, k), position)),
    )
    for orientation, quantize in quantizations:
        defect = quantize(f) @ quantize(g) - quantize(star_exact(f, g, h, orientation))
        assert certified_l2_norm(defect, tol) <= tol, orientation
    assert certified_l2_norm(error_intertwine(f, None, k), 1e-12 * f.l1_norm()) <= 1e-12 * f.l1_norm()
