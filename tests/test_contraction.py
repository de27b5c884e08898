import numpy as np
import pytest

from mimoiwf import contraction
from mimoiwf.contraction import (
    PowerIterationError,
    _bounds,
    _perron_start,
    build_interference_matrix,
    certify,
    spectral_radius,
    write_matrix_csv,
)
from mimoiwf.netmodel import sample_channels, symmetric_config
from mimoiwf.precode import build_effective_network

from oracles import (
    eig_spectral_radius,
    explicit_net,
    ragged_net,
    reference_certify,
    reference_spectral_radius,
    reference_col_norm,
    reference_row_norm,
    reference_strict_values,
)


def scalar_net(a, b, budgets=(10.0, 10.0), noise=(1.0, 1.0)):
    return explicit_net(
        [np.eye(1), np.eye(1)],
        {(1, 0): np.array([[np.sqrt(a)]]), (0, 1): np.array([[np.sqrt(b)]])},
        list(budgets),
        list(noise),
    )


def random_net(seed, num_users=4, tx=2, rx=2, cross=40.0):
    cfg = symmetric_config(num_users, tx, rx, 10.0, 1.0, 15.0, cross, 2.5)
    return build_effective_network(sample_channels(cfg, seed), cfg)


def test_two_user_scalar_matrix():
    net = scalar_net(0.1, 5.0)
    im = build_interference_matrix(net)
    np.testing.assert_allclose(im.matrix, [[0.0, 0.1], [5.0, 0.0]], atol=1e-12)
    assert im.matrix is net.coupling  # wrapped, not copied
    assert im.block_start == (0, 1)


def test_padding_rows_are_zero():
    cfg = symmetric_config(2, 4, 2, 10.0, 1.0, 15.0, 30.0, 2.5)
    net = build_effective_network(sample_channels(cfg, 6), cfg)
    im = build_interference_matrix(net)
    assert im.matrix.shape == (8, 8)
    assert im.tx_antennas == (4, 4)
    for q, start in enumerate(im.block_start):
        np.testing.assert_array_equal(im.matrix[start + 2 : start + 4, :], 0.0)
        # own coupling is excluded by construction
        np.testing.assert_array_equal(
            im.matrix[start : start + 4, start : start + 4], 0.0
        )


def test_norms_match_loop_references():
    for seed in range(5):
        net = random_net(seed)
        cert = certify(net)
        assert cert.row_norm == pytest.approx(reference_row_norm(net), rel=1e-12)
        assert cert.col_norm == pytest.approx(reference_col_norm(net), rel=1e-12)
        # the plain infinity norms of the matrix and of its transpose
        assert cert.row_norm == pytest.approx(net.coupling.sum(axis=1).max(), rel=1e-12)
        assert cert.col_norm == pytest.approx(net.coupling.sum(axis=0).max(), rel=1e-12)


def test_spectral_radius_closed_forms():
    assert spectral_radius(np.zeros((3, 3))) == 0.0
    assert spectral_radius(np.array([[0.0, 0.1], [5.0, 0.0]])) == pytest.approx(
        np.sqrt(0.5), abs=1e-9
    )
    assert spectral_radius(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(
        0.0, abs=1e-12
    )
    assert spectral_radius(np.array([[0.7]])) == pytest.approx(0.7, rel=1e-12)


def test_spectral_radius_matches_eigensolver():
    rng = np.random.default_rng(99)
    for k in range(300):
        n = int(rng.integers(2, 10))
        m = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        if k % 3 == 0:
            m = np.triu(m, 1)  # strictly triangular, radius zero
        if k % 3 == 1:
            m[: n // 2, : n // 2] = 0.0  # reducible block pattern
        ref = eig_spectral_radius(m)
        assert spectral_radius(m) == pytest.approx(ref, abs=1e-8 + 1e-8 * ref)

    # permuted block diagonal: a 2-cycle of radius 0.5, a 3-cycle of radius 2
    # fed by a zero node, and a self loop of 0.3; the largest radius sits in
    # a component that holds neither the first nor the last index
    m = np.zeros((7, 7))
    m[0, 1] = m[1, 0] = 0.5
    m[2, 3], m[3, 4], m[4, 2] = 1.0, 2.0, 4.0
    m[6, 2] = 3.0
    m[5, 5] = 0.3
    perm = np.array([5, 0, 3, 2, 4, 6, 1])
    pm = m[np.ix_(perm, perm)]
    assert spectral_radius(pm) == pytest.approx(2.0, abs=1e-9)
    assert spectral_radius(pm) == pytest.approx(eig_spectral_radius(pm), abs=1e-8)


def test_spectral_radius_validates_input():
    with pytest.raises(ValueError, match="square"):
        spectral_radius(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        spectral_radius(np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="tol"):
        spectral_radius(np.eye(2), tol=0.0)


def test_spectral_radius_reports_exhaustion():
    # A 3-cycle whose Perron vector spans more than the double range: its
    # smallest entry underflows, so the iteration starts from the uniform
    # vector, whose first bounds are 1e-300 and 1e300.
    cycle = np.array([[0.0, 1e-300, 0.0], [0.0, 0.0, 1e-300], [1e300, 0.0, 0.0]])
    with pytest.raises(PowerIterationError, match="iterations"):
        spectral_radius(cycle, max_iter=1)
    # no iteration at all is refused up front, not left unbound
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
            spectral_radius(cycle, max_iter=max_iter)


def test_radius_bounded_by_weighted_norms():
    rng = np.random.default_rng(12)
    for seed in range(20):
        im = build_interference_matrix(random_net(seed))
        rho = spectral_radius(im)
        m = im.matrix
        for _ in range(5):
            w = 10.0 ** rng.uniform(-1, 1, m.shape[0])
            # weighted max norm max_i (1/w_i) sum_j M_ij w_j
            assert rho <= ((m @ w) / w).max() + 1e-9


def test_strict_conditions_scalar_and_trivial():
    cert = certify(scalar_net(0.25, 0.25))
    assert cert.strict_row_cond and cert.strict_col_cond
    assert cert.strict_row_value == pytest.approx(0.25, rel=1e-12)
    assert cert.strict_col_value == pytest.approx(0.25, rel=1e-12)

    solo = certify(explicit_net([np.eye(2)], {}, [10.0], [1.0]))
    assert (solo.strict_row_cond, solo.strict_row_value) == (True, 0.0)
    assert (solo.strict_col_cond, solo.strict_col_value) == (True, 0.0)


def test_strict_values_match_reference_and_dominate_norms():
    for seed in range(6):
        net = random_net(seed, num_users=3, tx=3, rx=2, cross=35.0)
        cert = certify(net)
        ref_row, ref_col = reference_strict_values(net)
        assert cert.strict_row_value == pytest.approx(ref_row, rel=1e-12)
        assert cert.strict_col_value == pytest.approx(ref_col, rel=1e-12)
        assert cert.strict_row_cond == (cert.strict_row_value < 1.0)
        assert cert.strict_col_cond == (cert.strict_col_value < 1.0)
        # slot-wise maxima dominate the plain norms
        assert cert.strict_row_value >= reference_row_norm(net) - 1e-12
        assert cert.strict_col_value >= reference_col_norm(net) - 1e-12


def test_certificate_coherence():
    cert = certify(scalar_net(4.0, 4.0))
    assert cert.row_norm == pytest.approx(4.0, rel=1e-12)
    assert cert.spectral_radius == pytest.approx(4.0, abs=1e-8)
    assert not cert.norm_unique and not cert.spectral_unique
    assert cert.contraction_modulus is None

    cert = certify(scalar_net(0.25, 0.25))
    assert cert.norm_unique and cert.spectral_unique
    assert cert.strict_row_cond and cert.strict_col_cond
    assert cert.contraction_modulus == pytest.approx(0.25, rel=1e-12)

    for seed in range(30):
        c = certify(random_net(seed, cross=float(20 + seed * 2)))
        assert c.spectral_radius <= min(c.row_norm, c.col_norm) + 1e-9
        if c.strict_row_cond:
            assert c.row_norm < 1.0
        if c.strict_col_cond:
            assert c.col_norm < 1.0
        if c.norm_unique:
            assert c.spectral_unique


def test_padding_neutral_for_radius_and_row_norm():
    cfg = symmetric_config(2, 4, 2, 10.0, 1.0, 15.0, 30.0, 2.5)
    net = build_effective_network(sample_channels(cfg, 14), cfg)
    im = build_interference_matrix(net)
    # zero rows only add zeros to the spectrum: dropping them with their
    # columns leaves the radius unchanged
    keep = [i for i in range(8) if np.any(im.matrix[i, :] != 0.0)]
    sub = im.matrix[np.ix_(keep, keep)]
    assert spectral_radius(im) == pytest.approx(spectral_radius(sub), abs=1e-9)
    # and they never carry the maximal row sum
    active_max = float(im.matrix[keep, :].sum(axis=1).max())
    assert certify(net).row_norm == pytest.approx(active_max, rel=1e-12)


def test_interference_growth_bounded_by_modulus():
    # with the water level held fixed, a uniform power increase raises the
    # normalized interference by at most the contraction modulus times it
    for seed in range(10):
        net = random_net(seed, cross=55.0)
        cert = certify(net)
        if cert.contraction_modulus is None or cert.row_norm >= 1.0:
            continue
        im = build_interference_matrix(net)
        rng = np.random.default_rng(seed)
        p = rng.random(im.matrix.shape[0]) * 5.0
        for eps in (1e-3, 0.1, 1.0):
            grow = im.matrix @ (p + eps) - im.matrix @ p
            assert np.all(grow <= cert.row_norm * eps + 1e-12)


def test_matrix_csv_roundtrip(tmp_path):
    im = build_interference_matrix(scalar_net(0.1, 5.0))
    path = tmp_path / "m.csv"
    write_matrix_csv(im, str(path))
    back = np.loadtxt(path, delimiter=",")
    np.testing.assert_allclose(back, im.matrix, atol=1e-9)


CERTIFIED_FIELDS = ("row_norm", "col_norm", "spectral_radius", "strict_row_value", "strict_col_value")


@pytest.mark.parametrize("tx, rx", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_certify_matches_loop_reference(tx, rx):
    for seed in range(50):
        net = random_net(seed, tx=tx, rx=rx, cross=float(15 + seed))
        cert, ref = certify(net), reference_certify(net)
        assert {f: getattr(cert, f) for f in CERTIFIED_FIELDS} == ref, seed


def test_certify_ragged_matches_loop_reference():
    for seed in range(20):
        net = ragged_net(seed)
        cert, ref = certify(net), reference_certify(net)
        for f in CERTIFIED_FIELDS:
            assert getattr(cert, f) == pytest.approx(ref[f], rel=1e-12, abs=1e-15), (seed, f)


def test_reducible_coupling_falls_back_to_components():
    # three antennas over two receive antennas: every user has a zero row,
    # so the whole matrix is reducible and its Perron start is not positive
    for seed in range(10):
        net = random_net(seed, num_users=3, tx=3, rx=2, cross=25.0)
        m = net.coupling
        assert not m[2].any()
        lo, up, _ = _bounds(m, _perron_start(m))
        assert up - lo > 1e-9 * max(1.0, up)
        rho = spectral_radius(m)
        assert rho == reference_spectral_radius(m)
        assert rho == pytest.approx(eig_spectral_radius(m), rel=1e-8)


def test_stacked_certificates_equal_single_ones(monkeypatch):
    # antennas without a stream give zero rows, so the ragged and the 3 tx x 2 rx
    # couplings are reducible: their whole-matrix bounds never meet, and each
    # matrix is split into components; the shipped geometry needs no split
    groups = {
        "shipped": [random_net(seed, cross=37.7) for seed in range(12)],
        "ragged": [ragged_net(seed) for seed in range(12)],
        "reducible": [random_net(seed, num_users=3, tx=3, rx=2, cross=25.0) for seed in range(6)],
    }
    split = contraction._component_radius
    calls = []
    monkeypatch.setattr(
        contraction, "_component_radius", lambda m, *args: calls.append(m) or split(m, *args)
    )
    for name, nets in groups.items():
        singles = [certify(net) for net in nets]
        calls.clear()
        stacked = certify(nets)
        assert stacked == singles, name
        assert len(calls) == (0 if name == "shipped" else len(nets)), name
        radii = spectral_radius(np.stack([net.coupling for net in nets]))
        assert radii.tolist() == [c.spectral_radius for c in singles], name


def test_certified_together_means_one_config():
    assert certify([]) == []
    with pytest.raises(ValueError, match="one config"):
        certify([random_net(0), random_net(1, cross=41.0)])
