"""Bound-pipeline tests: tangent bases, FIM projection, nuisance removal,
the state Jacobian against manifold finite differences, bound reports, and
the tangent covariance transform with its closed-form partials."""

from dataclasses import replace

import numpy as np
import pytest

from radiopose import bounds, channel, lie, simkit
from radiopose.channel import ArrayGeometry
from radiopose.errors import SingularNuisanceBlock, UnobservableState
from radiopose.simkit import bounds_sweep, default_scenario, generate_trajectory
from references import gain_schur_complement, intrinsic_bound
from test_bound_oracle import CASES, worst_relative


def _random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestTangentBasis:
    def test_north_pole_convention(self):
        b = bounds.tangent_basis(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(b, [[1.0, 0, 0], [0, 1.0, 0]], atol=1e-15)

    def test_orthogonality_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = _random_unit(rng)
            b = bounds.tangent_basis(t)
            np.testing.assert_allclose(b @ b.T, np.eye(2), atol=1e-12)
            assert np.linalg.norm(b @ t) < 1e-12

    def test_inner_products_preserved(self):
        # metric identity: <m, e_i> computed in 3d equals the i-th coordinate
        # of the projected vector
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = _random_unit(rng)
            b = bounds.tangent_basis(t)
            m = rng.standard_normal(3)
            m -= (m @ t) * t  # tangent vector
            proj = b @ m
            assert abs(m @ b[0] - proj[0]) < 1e-12
            assert abs(m @ b[1] - proj[1]) < 1e-12


def _params_for(n, rng):
    out = []
    for _ in range(n):
        out.append(
            channel.ChannelParams(1e-8, _random_unit(rng), _random_unit(rng), 1.0 + 0.5j)
        )
    return out


class TestProjectFim:
    def test_identity_input_single_anchor(self):
        rng = np.random.default_rng(2)
        params = _params_for(1, rng)
        out = bounds.project_fim(np.eye(9), params)
        np.testing.assert_allclose(out, np.eye(7), atol=1e-12)

    def test_euclidean_blocks_pass_through(self):
        rng = np.random.default_rng(3)
        params = _params_for(2, rng)
        f = rng.standard_normal((18, 18))
        f = f @ f.T
        out = bounds.project_fim(f, params)
        # delays: first N rows/cols; gains: trailing 2N
        np.testing.assert_allclose(out[:2, :2], f[:2, :2])
        np.testing.assert_allclose(out[10:, 10:], f[14:, 14:])

    def test_poincare_eigenvalue_interlacing(self):
        rng = np.random.default_rng(4)
        params = _params_for(1, rng)
        a = rng.standard_normal((9, 9))
        f = a @ a.T
        out = bounds.project_fim(f, params)
        ef = np.sort(np.linalg.eigvalsh(f))
        eo = np.sort(np.linalg.eigvalsh(out))
        # B has orthonormal rows, so lambda_i(F) <= lambda_i(BFB') <= lambda_{i+2}(F)
        for i in range(7):
            assert eo[i] >= ef[i] - 1e-10
            assert eo[i] <= ef[i + 2] + 1e-10


def _gain_blocks(fbb, keep=2.0, coupling=(0.5, 1e-8)):
    """Per-anchor 3x3 blocks [keep row, Re gain, Im gain] over gain blocks
    ``fbb`` (..., N, 2, 2), each keep row coupled to its gains by ``coupling``."""
    fbb = np.asarray(fbb, dtype=float)
    f = np.zeros(fbb.shape[:-2] + (3, 3))
    f[..., 0, 0] = keep
    f[..., 0, 1:] = f[..., 1:, 0] = coupling
    f[..., 1:, 1:] = fbb
    return f


def _assembled(blocks):
    """(..., 3N, 3N) FIM of per-anchor 3x3 blocks: the N keep rows, then the
    2N gain rows, as ``project_fim`` orders them."""
    n = blocks.shape[-3]
    idx = np.column_stack([np.arange(n), n + 2 * np.arange(n), n + 2 * np.arange(n) + 1])
    out = np.zeros(blocks.shape[:-3] + (3 * n, 3 * n))
    out[..., idx[:, :, None], idx[:, None, :]] = blocks
    return out


class TestEfimRemoveGains:
    def test_block_diagonal_keeps_top_left(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 7, 7))
        top = a @ a.mT
        f = np.zeros((2, 9, 9))
        f[:, :7, :7] = top
        f[:, 7:, 7:] = np.diag([2.0, 3.0])
        np.testing.assert_allclose(bounds.efim_remove_gains(f), top)

    def test_hand_schur_complement(self):
        # independent oracle: keep row a, remove the gain rows b:
        # out = f_aa - f_ab f_bb^-1 f_ba = 4 - 2 * (1/2) * 2 - 1 * 1 * 1 = 1
        f = np.array([[[4.0, 2.0, 1.0], [2.0, 2.0, 0.0], [1.0, 0.0, 1.0]]])
        np.testing.assert_allclose(bounds.efim_remove_gains(f), [[[1.0]]])

    def test_ridge_spans_the_anchors(self):
        # each anchor's 2x2 gain block is well conditioned, but the gain
        # energies of the two differ by 1e13: the whole 2N block has
        # condition 1e13 and both anchors take its 1e-12 tr/2 ridge, as the
        # single 2N-block complement does
        f = _gain_blocks([np.diag([1.0, 0.5]), np.diag([1e-13, 0.5e-13])], coupling=(1e-7, 1e-8))
        out = bounds.efim_remove_gains(f)
        expected = np.diag(gain_schur_complement(_assembled(f), 2))
        assert np.abs(out[:, 0, 0] / expected - 1.0).max() < 1e-12
        plain = 2.0 - 1e-14 / 1e-13 - 1e-16 / 0.5e-13
        assert abs(out[1, 0, 0] - plain) > 1e-3  # the ridge moved the second anchor

    def test_ridge_and_failure_stay_in_their_rows(self):
        # two anchors per row: in the middle row one gain block has
        # condition 1e14 and the row gets the 1e-12 ridge, the last row's
        # blocks are zero and stay singular; the other rows neither get the
        # ridge nor see the failure, and each row equals its unbatched call
        # bit for bit
        fbb = np.array([
            [np.diag([1.0, 0.5]), np.diag([3.0, 1.0])],
            [np.diag([1.0, 1e-14]), np.diag([3.0, 1.0])],
            [np.diag([2.0, 0.25]), np.diag([3.0, 1.0])],
            np.zeros((2, 2, 2)),
        ])
        f = _gain_blocks(fbb)
        out = bounds.efim_remove_gains(f)
        for row in range(3):
            assert np.array_equal(out[row], bounds.efim_remove_gains(f[row]))
        assert out[0, 0, 0, 0] == 2.0 - 0.25 / 1.0 - 1e-16 / 0.5
        assert out[2, 0, 0, 0] == 2.0 - 0.25 / 2.0 - 1e-16 / 0.25
        no_ridge = 2.0 - 0.25 - 1e-16 / 1e-14
        assert abs(out[1, 0, 0, 0] - no_ridge) > 1e-4  # the ridge took 1e-16 / 1e-14 down to about 2e-4
        expected = np.diag(gain_schur_complement(_assembled(f[1]), 2))
        assert np.abs(out[1, :, 0, 0] / expected - 1.0).max() < 1e-12
        assert np.isnan(out[3]).all()
        with pytest.raises(SingularNuisanceBlock):
            bounds.efim_remove_gains(f[3])

    def test_information_never_increases(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 9, 12))
        f = a @ a.mT
        out = bounds.efim_remove_gains(f)
        diff = f[:, :7, :7] - out
        assert np.linalg.eigvalsh(diff).min() >= -1e-10 * np.abs(f).max()


class TestStateJacobian:
    def test_delay_row_is_los_direction(self):
        cfg = default_scenario()
        tz = bounds.state_jacobian_tz(cfg.ue_start, cfg.anchors)
        for i, anchor in enumerate(cfg.anchors):
            diff = cfg.ue_start.position - anchor.position
            u = diff / np.linalg.norm(diff)
            np.testing.assert_allclose(tz[i, :3], u / channel.SPEED_OF_LIGHT, atol=1e-20)
            np.testing.assert_allclose(tz[i, 3:], 0.0)

    def test_rotation_about_los_axis_invisible_to_ue_direction(self):
        rng = np.random.default_rng(7)
        cfg = default_scenario()
        ue = lie.Pose.from_rotation_position(lie.so3_exp(rng.standard_normal(3)), rng.uniform(-8, 8, 3))
        tz = bounds.state_jacobian_tz(ue, cfg.anchors)
        for i, anchor in enumerate(cfg.anchors):
            diff = ue.position - anchor.position
            u = diff / np.linalg.norm(diff)
            rows = tz[2 + 4 * i : 4 + 4 * i, 3:]  # UE-side tangent rows, rotation columns
            assert np.linalg.norm(rows @ u) < 1e-12 * max(np.abs(rows).max(), 1e-12)

    def test_matches_manifold_finite_differences(self):
        rng = np.random.default_rng(8)
        cfg = default_scenario()
        for _ in range(5):
            pos = rng.uniform(-8, 8, 3)
            rot = lie.so3_exp(rng.standard_normal(3))
            ue = lie.Pose.from_rotation_position(rot, pos)
            bases = []
            for a in cfg.anchors:
                dbs, due = channel.direction_vectors(ue, a)
                bases.append(bounds.tangent_basis(due))
                bases.append(bounds.tangent_basis(dbs))

            def z_of(pose):
                n = len(cfg.anchors)
                taus = [channel.delay(pose, a, 0.0) for a in cfg.anchors]
                rest = []
                for i, a in enumerate(cfg.anchors):
                    dbs, due = channel.direction_vectors(pose, a)
                    rest.extend(bases[2 * i] @ due)
                    rest.extend(bases[2 * i + 1] @ dbs)
                return np.array(taus + rest)

            tz = bounds.state_jacobian_tz(ue, cfg.anchors)
            fd = np.zeros_like(tz)
            h = 1e-6
            for j in range(3):
                dp = np.zeros(3)
                dp[j] = h
                up = lie.Pose.from_rotation_position(rot, pos + dp)
                dn = lie.Pose.from_rotation_position(rot, pos - dp)
                fd[:, j] = (z_of(up) - z_of(dn)) / (2 * h)
            for j in range(3):
                dth = np.zeros(3)
                dth[j] = h
                up = lie.Pose.from_rotation_position(lie.so3_exp(dth) @ rot, pos)
                dn = lie.Pose.from_rotation_position(lie.so3_exp(-dth) @ rot, pos)
                fd[:, 3 + j] = (z_of(up) - z_of(dn)) / (2 * h)
            # delay rows live on a ~1e-9 scale, direction rows on ~1e-1;
            # compare per row against its own scale
            for row in range(tz.shape[0]):
                scale = max(np.abs(fd[row]).max(), np.abs(tz[row]).max())
                assert np.abs(tz[row] - fd[row]).max() < 1e-5 * scale


class TestStateFim:
    def test_zero_input(self):
        jac = np.random.default_rng(9).standard_normal((2, 7, 6))
        assert np.array_equal(bounds.state_fim(np.zeros((2, 7, 7)), jac), np.zeros((6, 6)))

    def test_identity_gram(self):
        jac = np.random.default_rng(10).standard_normal((2, 7, 6))
        np.testing.assert_allclose(bounds.state_fim(np.eye(7), jac), jac[0].T @ jac[0] + jac[1].T @ jac[1])

    def test_random_triple_product(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 7, 7))
        e = a @ a.mT
        jac = rng.standard_normal((3, 7, 6))
        expected = sum(jac[n].T @ e[n] @ jac[n] for n in range(3))
        np.testing.assert_allclose(bounds.state_fim(e, jac), expected, atol=1e-12)


class TestIcrbReport:
    def test_scaled_identity(self):
        rep = bounds.icrb_report(4.0 * np.eye(6))
        np.testing.assert_allclose(rep.icrb, 0.25 * np.eye(6))
        assert abs(rep.peb_m - np.sqrt(0.75)) < 1e-12
        assert abs(rep.rmeb_rad - np.sqrt(0.75)) < 1e-12

    def test_default_scenario_matches_reported_bounds(self):
        # factor-2 window around the published 0.0620 m / 0.0134 rad values
        cfg = default_scenario()
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        rep = bounds.pose_error_bounds(cfg.ue_start, cfg.anchors, cfg.ue_array, cfg.signal, beams)
        assert 0.031 <= rep.peb_m <= 0.124
        assert 0.0067 <= rep.rmeb_rad <= 0.0267

    def test_single_anchor_unobservable(self):
        # one anchor contributes 5 projected rows; the 6d state FIM cannot
        # reach full rank
        cfg = default_scenario()
        tz = bounds.state_jacobian_tz(cfg.ue_start, cfg.anchors[:1])
        f_x = bounds.state_fim(np.eye(5)[None], tz[None])
        with pytest.raises(UnobservableState):
            bounds.icrb_report(f_x)

    def test_rotation_block_is_three_dimensional(self):
        rep = bounds.icrb_report(np.diag([1.0, 2, 3, 4, 5, 6]))
        assert rep.icrb[3:, 3:].shape == (3, 3)


class TestTranslationBlockPartials:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            rho = rng.uniform(-3, 3, 3)
            # 1e-6, 1.01e-2 and 0.2: the old series switches of this derivative and lie's Taylor switch
            scale = rng.choice([1e-8, 1e-6, 1e-5, 1e-3, 1.01e-2, 0.2, 0.3, 1.5, 2.8])
            r = _random_unit(rng) * scale * rng.uniform(0.5, 1.5)
            out = bounds.translation_block_wrt_rotvec(rho, r)
            h = 1e-6 * max(1.0, np.linalg.norm(r))
            fd = np.zeros((3, 3))
            for j in range(3):
                dr = np.zeros(3)
                dr[j] = h
                fd[:, j] = (
                    lie.so3_left_jacobian(r + dr) @ rho - lie.so3_left_jacobian(r - dr) @ rho
                ) / (2 * h)
            assert np.abs(out - fd).max() < 1e-5 * max(np.abs(fd).max(), 1e-9)

    def test_zero_rotation_limit(self):
        rho = np.array([1.0, -2.0, 0.5])
        out = bounds.translation_block_wrt_rotvec(rho, np.zeros(3))
        np.testing.assert_allclose(out, -0.5 * lie.hat3(rho), atol=1e-15)


class TestMeasurementCovariance:
    def test_identity_rotation_keeps_block_meaning(self):
        # at R = I the map diag(R, I3) is the identity: translation variance
        # stays in the rho block, rotation variance in the r block
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 6))
        icrb = a @ a.T
        out = bounds.measurement_covariance(icrb, np.eye(3))
        np.testing.assert_allclose(out, icrb, atol=1e-10)
        assert np.linalg.eigvalsh(out).min() > 0

    def test_positive_definiteness_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            icrb = a @ a.T + 1e-6 * np.eye(6)
            rot = lie.so3_exp(rng.standard_normal(3))
            out = bounds.measurement_covariance(icrb, rot)
            assert np.linalg.eigvalsh(out).min() > 0
            assert np.linalg.norm(out - out.T) < 1e-12 * np.abs(out).max()


class TestIntrinsicIdentity:
    """The per-anchor chain-rule bound equals the intrinsic form: the tangent
    projection, the gain Schur complement of the whole 2N block and
    ``state_jacobian_tz`` (``references.intrinsic_bound``)."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_oracle_cases(self, case):
        cfg, ue = CASES[case]()
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        args = (ue, cfg.anchors, cfg.ue_array, cfg.signal, beams)
        assert worst_relative(bounds.pose_error_bounds(*args).icrb, intrinsic_bound(*args)) < 1e-12

    def test_trajectory_batch(self):
        cfg = default_scenario()
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths = lie.Pose.stack(generate_trajectory(cfg.ue_start, cfg.segments))
        args = (truths, cfg.anchors, cfg.ue_array, cfg.signal, beams)
        icrb, expected = bounds.pose_error_bounds(*args).icrb, intrinsic_bound(*args)
        assert icrb.shape == expected.shape == (120, 6, 6)
        # the two routes round the state FIM differently, by about 1e-16 of
        # its largest eigenvalue; the bound shows that times its condition
        # number, 1.1e5 at the worst-conditioned pose (94)
        cond = np.linalg.cond(expected)
        for k in range(len(icrb)):
            assert worst_relative(icrb[k], expected[k]) < 1e-12 + 1e-16 * cond[k]


class TestPipelineInvariants:
    def setup_method(self):
        self.cfg = default_scenario()
        self.beams = channel.draw_beams(self.cfg.anchors, self.cfg.ue_array, self.cfg.signal)

    def test_third_anchor_never_hurts(self):
        cfg = self.cfg
        third = channel.AnchorConfig(
            np.array([-5.0, 5.0, 1.0]), np.eye(3), cfg.anchors[0].array
        )
        anchors3 = cfg.anchors + (third,)
        beams3 = channel.draw_beams(anchors3, cfg.ue_array, cfg.signal)
        # identical beams for the shared anchors
        beams2 = channel.BeamSet(beams3.precoders[:2], beams3.combiners[:2])
        rep2 = bounds.pose_error_bounds(cfg.ue_start, cfg.anchors, cfg.ue_array, cfg.signal, beams2)
        rep3 = bounds.pose_error_bounds(cfg.ue_start, anchors3, cfg.ue_array, cfg.signal, beams3)
        assert rep3.peb_m <= rep2.peb_m + 1e-12
        assert rep3.rmeb_rad <= rep2.rmeb_rad + 1e-12

    def test_power_scaling_of_bounds(self):
        cfg = self.cfg
        rep = bounds.pose_error_bounds(cfg.ue_start, cfg.anchors, cfg.ue_array, cfg.signal, self.beams)
        louder = replace(cfg.signal, tx_power_dbm=cfg.signal.tx_power_dbm + 20.0)
        rep20 = bounds.pose_error_bounds(cfg.ue_start, cfg.anchors, cfg.ue_array, louder, self.beams)
        assert abs(rep20.peb_m - rep.peb_m / 10.0) < 1e-9 * rep.peb_m
        assert abs(rep20.rmeb_rad - rep.rmeb_rad / 10.0) < 1e-9 * rep.rmeb_rad


class TestBatchAxis:
    """A leading pose or power axis gives the numbers of separate calls."""

    def setup_method(self):
        self.cfg = default_scenario()
        self.beams = channel.draw_beams(self.cfg.anchors, self.cfg.ue_array, self.cfg.signal)
        self.truths = generate_trajectory(self.cfg.ue_start, self.cfg.segments)

    def test_sweep_matches_per_power_calls(self):
        cfg = self.cfg
        powers = [-20.0, -7.5, 0.0, 13.0, 20.0]
        for k in (0, 41, 87, 119):
            pose = self.truths[k]
            rows = bounds_sweep(replace(cfg, ue_start=pose), powers)
            for power, row in zip(powers, rows):
                sig = replace(cfg.signal, tx_power_dbm=power)
                rep = bounds.pose_error_bounds(pose, cfg.anchors, cfg.ue_array, sig, self.beams)
                assert row["observable"]
                assert abs(row["peb_m"] - rep.peb_m) <= 1e-12 * rep.peb_m
                assert abs(row["rmeb_rad"] - rep.rmeb_rad) <= 1e-12 * rep.rmeb_rad

    def test_sweep_on_the_power_scaling_line(self):
        # criterion 3's line, to rounding: each power scales one unit-weight
        # bound, so PEB and RMEB times 10^(P/20) agree across the sweep
        powers = list(range(-20, 21, 5))
        rows = bounds_sweep(self.cfg, powers)
        for key in ("peb_m", "rmeb_rad"):
            line = np.array([r[key] * 10.0 ** ((r["power_dbm"] - 20.0) / 20.0) for r in rows])
            assert np.abs(line / line[-1] - 1.0).max() <= 1e-14

    def test_scenario_reports_match_per_pose_calls(self):
        cfg = self.cfg
        truths, reports = simkit.scenario_reports(cfg, self.beams)
        assert reports.icrb.shape == (len(truths), 6, 6) and reports.observable.all()
        for k, pose in enumerate(truths):
            rep = bounds.pose_error_bounds(pose, cfg.anchors, cfg.ue_array, cfg.signal, self.beams)
            assert worst_relative(reports.icrb[k], rep.icrb) < 1e-12
            assert worst_relative(reports[k].icrb_sqrt @ reports[k].icrb_sqrt.T, rep.icrb) < 1e-12
