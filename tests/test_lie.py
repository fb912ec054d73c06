"""Lie-core tests against independent series and conjugation oracles."""

from fractions import Fraction

import numpy as np
import pytest

from radiopose import bounds, channel, lie, simkit, tracking
from radiopose.errors import NearPiRotation, NotSkew
from references import pose_from_matrix, se3_left_jacobian_inv, small_adjoint, so3_log_row_loop


def expm_series(m: np.ndarray, terms: int = 30) -> np.ndarray:
    """Matrix exponential by truncated power series; the reference oracle."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for n in range(1, terms):
        term = term @ m / n
        out = out + term
    return out


def jacobian_series(m: np.ndarray, terms: int = 30) -> np.ndarray:
    """Sum m^n / (n+1)!; reference for left Jacobians."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for n in range(1, terms):
        term = term @ m / (n + 1)
        out = out + term
    return out


def random_tangent(rng, rot_scale=1.0, trans_scale=1.0):
    xi = rng.standard_normal(6)
    xi[:3] *= trans_scale
    xi[3:] *= rot_scale
    return xi


def exact_coeffs(angle: float) -> tuple:
    """(c1, c2, q2, q3) of ``lie._so3_coeffs`` at ``angle`` from their defining
    closed forms over the sine and cosine series, summed to 40 terms in exact
    rational arithmetic, where no difference cancels."""
    a = Fraction(angle)
    terms = [Fraction(1)]  # a^n / n!
    for n in range(1, 80):
        terms.append(terms[-1] * a / n)
    sin, cos = sum(terms[1::4]) - sum(terms[3::4]), sum(terms[::4]) - sum(terms[2::4])
    c1, c2 = (1 - cos) / a**2, (a - sin) / a**3
    return c1, c2, (a**2 + 2 * cos - 2) / (2 * a**4), (2 * a - 3 * sin + a * cos) / (2 * a**5)


class TestCoefficients:
    def test_coefficients_match_exact_series(self):
        # 300 angles in (0, pi] and both sides of the switch and of 1e-2, in
        # one mixed batch. Above the switch q2 cannot reach 1e-14: its first
        # factor a - 2 sin(a/2) is exact, but half an ulp of sin(a/2) is
        # 4.2e-14 of a/2 - sin(a/2) at a = 0.2. q3 inherits c2's 1e-14 times
        # 3 c2 / (3 c2 - c1), about 750 there.
        angles = np.concatenate([
            np.linspace(np.pi / 300, np.pi, 300),
            [1e-8, 1e-4, 1e-2 - 1e-14, 1e-2, 1e-2 + 1e-14],
            [lie._TAYLOR_ANGLE - 1e-12, lie._TAYLOR_ANGLE, lie._TAYLOR_ANGLE + 1e-12],
        ])
        got = np.array(lie._so3_coeffs(angles)).T
        worst = np.zeros(4)
        for angle, row in zip(angles, got):
            exact = exact_coeffs(float(angle))
            errs = [abs(float((Fraction(float(g)) - e) / e)) for g, e in zip(row, exact)]
            worst = np.maximum(worst, errs)
        assert np.all(worst <= [1e-14, 1e-14, 5e-14, 1e-11]), worst


class TestHatVee:
    def test_hat_zero(self):
        assert np.array_equal(lie.hat3(np.zeros(3)), np.zeros((3, 3)))

    def test_hat_layout(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0.0]])
        assert np.array_equal(lie.hat3(np.array([1.0, 0, 0])), expected)

    def test_hat_is_cross_product(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v, w = rng.standard_normal(3), rng.standard_normal(3)
            np.testing.assert_allclose(lie.hat3(v) @ w, np.cross(v, w), atol=1e-14)

    def test_vee_zero(self):
        assert np.array_equal(lie.vee3(np.zeros((3, 3))), np.zeros(3))

    def test_vee_inverts_hat(self):
        v = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(lie.vee3(lie.hat3(v)), v)

    def test_vee_rejects_symmetric(self):
        with pytest.raises(NotSkew):
            lie.vee3(np.eye(3))


class TestSo3Exp:
    def test_zero(self):
        np.testing.assert_allclose(lie.so3_exp(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_x(self):
        r = np.array([np.pi / 2, 0, 0])
        expected = expm_series(lie.hat3(r))
        np.testing.assert_allclose(lie.so3_exp(r), expected, atol=1e-14)
        np.testing.assert_allclose(
            lie.so3_exp(r), np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0.0]]), atol=1e-15
        )

    def test_half_turn_about_z(self):
        r = np.array([0, 0, np.pi])
        np.testing.assert_allclose(lie.so3_exp(r), expm_series(lie.hat3(r)), atol=1e-13)
        np.testing.assert_allclose(lie.so3_exp(r), np.diag([-1, -1, 1.0]), atol=1e-15)

    def test_matches_series_up_to_pi(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            r = rng.standard_normal(3)
            r *= rng.uniform(0, np.pi) / np.linalg.norm(r)
            assert np.abs(lie.so3_exp(r) - expm_series(lie.hat3(r))).max() < 1e-12

    def test_orthonormal_for_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = lie.so3_exp(rng.standard_normal(3) * 3)
            assert np.linalg.norm(m.T @ m - np.eye(3)) < 1e-10
            assert abs(np.linalg.det(m) - 1.0) < 1e-10

    @pytest.mark.parametrize("a", [1e6, 1e10, 1e15])
    def test_rotation_at_huge_angles(self, a):
        # the angle is reduced modulo 2 pi along the axis before the coefficients
        m = lie.so3_exp(np.array([a, 0.3 * a, 0.1]))
        assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_whole_turns_change_nothing_below_two_pi(self):
        # rows below 2 pi are used as given, in a batch with a reduced row too
        r = np.array([[0.3, -0.2, 0.1], [2.0 * np.pi - 1e-9, 0.0, 0.0], [2.0 * np.pi + 0.5, 0.0, 0.0]])
        out = lie.so3_exp(r)
        np.testing.assert_array_equal(out[0], lie.so3_exp(r[0]))
        np.testing.assert_array_equal(out[1], lie.so3_exp(r[1]))
        np.testing.assert_allclose(out[2], lie.so3_exp(np.array([0.5, 0.0, 0.0])), atol=1e-14)


class TestSo3Log:
    def test_identity(self):
        np.testing.assert_allclose(lie.so3_log(np.eye(3)), np.zeros(3))

    def test_round_trip_against_series(self):
        r = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(lie.so3_log(expm_series(lie.hat3(r))), r, atol=1e-12)

    def test_half_turn_axis_via_eigenvector(self):
        rot = np.diag([-1.0, -1.0, 1.0])
        r = lie.so3_log(rot)
        assert abs(np.linalg.norm(r) - np.pi) < 1e-12
        # independent axis extraction: unit eigenvector for eigenvalue 1
        w, v = np.linalg.eig(rot)
        axis = np.real(v[:, np.argmin(np.abs(w - 1.0))])
        cosine = abs(np.dot(r / np.linalg.norm(r), axis))
        assert cosine > 1 - 1e-12

    def test_round_trip_generic(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            r = rng.standard_normal(3)
            r *= rng.uniform(0, np.pi - 0.1) / np.linalg.norm(r)
            back = lie.so3_log(lie.so3_exp(r))
            assert np.linalg.norm(back - lie.so3_log(lie.so3_exp(back))) < 1e-9
            assert np.linalg.norm(back - r) < 1e-9

    @pytest.mark.parametrize("gap", [1e-4, 1e-5])
    def test_exp_of_log_exact_just_below_pi(self, gap):
        # dividing by sin(angle) here would cost about 2e-16 / gap
        rng = np.random.default_rng(5)
        axes = [np.ones(3)] + list(rng.standard_normal((300, 3)))
        for axis in axes:
            rot = lie.so3_exp(axis / np.linalg.norm(axis) * (np.pi - gap))
            log = lie.so3_log(rot)
            assert abs(np.linalg.norm(log) - (np.pi - gap)) < 1e-12
            assert np.abs(lie.so3_exp(log) - rot).max() < 1e-12

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            lie.so3_log(np.eye(3) * 1.001)

    def test_stack_equals_its_rows(self):
        rot = lie.so3_exp(np.random.default_rng(6).uniform(-2.0, 2.0, (5, 3)))
        log = lie.so3_log(rot)
        assert log.shape == (5, 3)
        for i in range(5):
            np.testing.assert_array_equal(log[i], lie.so3_log(rot[i]))

    def test_stack_with_one_non_rotation_raises(self):
        rot = lie.so3_exp(np.random.default_rng(7).uniform(-2.0, 2.0, (2, 3, 3)))
        rot[1, 2] *= 1.001
        with pytest.raises(ValueError, match="orthonormal"):
            lie.so3_log(rot)

    @pytest.mark.parametrize("angle", [0.0, 5e-324, 1e-300, 1e-12, 1e-9, 1e-8, 1.4e-8])
    def test_tiny_angle_log_is_antisymmetric_half(self, angle):
        # below 2^-26 rad sin(angle) rounds to angle, so r = (angle / sin angle) s is s exactly;
        # from 1e-162 down s . s underflows and the angle reads 0 although s need not be
        axes = np.random.default_rng(8).standard_normal((6, 3))
        rot = lie.so3_exp(axes / np.linalg.norm(axes, axis=1, keepdims=True) * angle)
        s = np.stack([rot[:, 2, 1] - rot[:, 1, 2], rot[:, 0, 2] - rot[:, 2, 0], rot[:, 1, 0] - rot[:, 0, 1]], -1) / 2
        np.testing.assert_array_equal(lie._so3_log(rot), s)
        for i in range(len(rot)):
            np.testing.assert_array_equal(lie._so3_log(rot[i]), s[i])

    def test_near_pi_pass_matches_row_loop(self):
        # near-pi rows whose largest axis component is positive and negative take
        # both outcomes of the sign test, mixed with tiny, generic and exact-pi rows
        rng = np.random.default_rng(9)
        gaps = [1e-3 * (1 - 1e-9), 3e-4, 1e-4, 1e-5, 2e-6, 1e-6]
        angles = np.concatenate([np.pi - np.array(gaps * 2), [0.0, 1e-9, 0.5, 2.0, np.pi - 2e-3, np.pi]])
        axes = rng.standard_normal((len(angles), 3))
        axes *= np.sign(axes[np.arange(len(axes)), np.argmax(np.abs(axes), axis=1)])[:, None]
        axes[len(gaps) : 2 * len(gaps)] *= -1.0
        rot = lie.so3_exp(axes / np.linalg.norm(axes, axis=1, keepdims=True) * angles[:, None]).reshape(2, -1, 3, 3)
        assert lie._so3_log(rot).tobytes() == so3_log_row_loop(rot).tobytes()
        assert lie._so3_log(rot[1, 2]).tobytes() == so3_log_row_loop(rot[1, 2]).tobytes()

    def test_log_norm_at_most_pi(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = rng.standard_normal(3)
            r *= rng.uniform(0, 3 * np.pi) / np.linalg.norm(r)
            assert np.linalg.norm(lie.so3_log(lie.so3_exp(r))) <= np.pi + 1e-12


class TestSo3LeftJacobian:
    def test_zero(self):
        np.testing.assert_allclose(lie.so3_left_jacobian(np.zeros(3)), np.eye(3))

    def test_matches_jacobian_series(self):
        r = np.array([np.pi / 2, 0, 0])
        np.testing.assert_allclose(
            lie.so3_left_jacobian(r), jacobian_series(lie.hat3(r)), atol=1e-13
        )

    def test_transpose_antisymmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = rng.standard_normal(3)
            np.testing.assert_allclose(
                lie.so3_left_jacobian(-r), lie.so3_left_jacobian(r).T, atol=1e-12
            )

    def test_small_angle_branch_matches_series(self):
        for scale in (1e-9, 1e-7, 1e-5, 1e-3):
            r = np.array([0.3, -0.5, 0.8]) * scale
            np.testing.assert_allclose(
                lie.so3_left_jacobian(r), jacobian_series(lie.hat3(r)), atol=1e-15
            )


class TestSe3:
    def test_exp_zero(self):
        pose = lie.se3_exp(np.zeros(6))
        np.testing.assert_allclose(pose.matrix(), np.eye(4))

    def test_exp_pure_translation(self):
        pose = lie.se3_exp(np.array([1.0, 2.0, 3.0, 0, 0, 0]))
        np.testing.assert_allclose(pose.rotation, np.eye(3))
        np.testing.assert_allclose(pose.translation_block, [1.0, 2.0, 3.0])

    def test_exp_translation_through_jacobian(self):
        xi = np.array([1.0, 0, 0, 0, 0, np.pi / 2])
        pose = lie.se3_exp(xi)
        expected = jacobian_series(lie.hat3(xi[3:])) @ xi[:3]
        np.testing.assert_allclose(pose.translation_block, expected, atol=1e-13)

    def test_log_identity(self):
        np.testing.assert_allclose(lie.se3_log(lie.Pose.identity()), np.zeros(6))

    def test_log_pure_translation(self):
        pose = lie.Pose(np.eye(3), np.array([4.0, -1.0, 2.0]))
        np.testing.assert_allclose(lie.se3_log(pose), [4.0, -1.0, 2.0, 0, 0, 0])

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            xi = random_tangent(rng, trans_scale=3.0)
            xi[3:] *= rng.uniform(0, 3.0) / np.linalg.norm(xi[3:])
            pose = lie.se3_exp(xi)
            err = np.abs(lie.se3_exp(lie.se3_log(pose)).matrix() - pose.matrix()).max()
            assert err < 1e-9

    def test_log_near_pi_raises(self):
        pose = lie.se3_exp(np.array([0.5, 0, 0, 0, 0, np.pi - 1e-8]))
        with pytest.raises(NearPiRotation):
            lie.se3_log(pose)

    def test_hat_vee_round_trip(self):
        rng = np.random.default_rng(7)
        xi = rng.standard_normal(6)
        np.testing.assert_allclose(lie.se3_vee(lie.se3_hat(xi)), xi)


class TestAdjoint:
    def test_identity_pose(self):
        np.testing.assert_allclose(lie.adjoint(lie.Pose.identity()), np.eye(6))

    def test_conjugation_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            pose = lie.se3_exp(random_tangent(rng, trans_scale=2.0))
            xi = rng.standard_normal(6)
            lhs = lie.adjoint(pose) @ xi
            rhs = lie.se3_vee(pose.matrix() @ lie.se3_hat(xi) @ pose.inverse().matrix())
            assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_homomorphism(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            a = lie.se3_exp(random_tangent(rng))
            b = lie.se3_exp(random_tangent(rng))
            np.testing.assert_allclose(
                lie.adjoint(a @ b), lie.adjoint(a) @ lie.adjoint(b), atol=1e-12
            )

    def test_small_adjoint_zero(self):
        assert np.array_equal(small_adjoint(np.zeros(6)), np.zeros((6, 6)))

    def test_small_adjoint_block_layout(self):
        xi = np.array([1.0, 0, 0, 0, 1.0, 0])
        ad = small_adjoint(xi)
        np.testing.assert_allclose(ad[:3, :3], lie.hat3(xi[3:]))
        np.testing.assert_allclose(ad[:3, 3:], lie.hat3(xi[:3]))
        np.testing.assert_allclose(ad[3:, :3], np.zeros((3, 3)))
        np.testing.assert_allclose(ad[3:, 3:], lie.hat3(xi[3:]))

    def test_exp_of_small_adjoint_is_group_adjoint(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            xi = random_tangent(rng)
            xi *= 0.9 / max(np.linalg.norm(xi), 1.0)
            lhs = expm_series(small_adjoint(xi), terms=40)
            rhs = lie.adjoint(lie.se3_exp(xi))
            assert np.abs(lhs - rhs).max() < 1e-12


class TestSe3LeftJacobian:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(lie.se3_left_jacobian(np.zeros(6)), np.eye(6))

    def test_exact_matches_series_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            xi = random_tangent(rng)
            np.testing.assert_allclose(
                lie.se3_left_jacobian(xi), jacobian_series(small_adjoint(xi), 40), atol=1e-12
            )

    @pytest.mark.parametrize(
        "angle",
        [0.0, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.2 - 1e-12, 0.2, 0.2 + 1e-12, 0.21, 0.5, 1.0, 2.0, 3.0, 3.14],
    )
    def test_closed_form_matches_60_term_series(self, angle):
        # both sides of the 0.2 rad Taylor switch; the error is relative to max(1, max|ref|)
        rng = np.random.default_rng(14)
        for trans_scale in (0.1, 1.0, 10.0):
            for _ in range(10):
                xi = random_tangent(rng, trans_scale=trans_scale)
                xi[3:] *= angle / np.linalg.norm(xi[3:])
                ref = jacobian_series(small_adjoint(xi), 60)
                err = np.abs(lie.se3_left_jacobian(xi) - ref).max()
                assert err <= 1e-14 * max(1.0, np.abs(ref).max())


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            lie.Pose(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            lie.Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_rotation_stack(self):
        with pytest.raises(ValueError, match=r"rotation must be 3x3, got \(5, 3, 3\)"):
            lie.Pose(np.broadcast_to(np.eye(3), (5, 3, 3)), np.zeros(3))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        rot = np.eye(3)
        rot[1, 2] = value
        with pytest.raises(ValueError):
            lie.require_rotation(rot)
        with pytest.raises(ValueError):
            lie.Pose(rot, np.zeros(3))

    def test_position_accessor(self):
        rng = np.random.default_rng(17)
        rot = lie.so3_exp(rng.standard_normal(3))
        p = rng.standard_normal(3)
        pose = lie.Pose.from_rotation_position(rot, p)
        np.testing.assert_allclose(pose.position, p, atol=1e-12)
        np.testing.assert_allclose(pose.translation_block, rot @ p, atol=1e-12)

    def test_compose_inverse(self):
        rng = np.random.default_rng(18)
        pose = lie.se3_exp(rng.standard_normal(6))
        ident = pose @ pose.inverse()
        np.testing.assert_allclose(ident.matrix(), np.eye(4), atol=1e-12)

    def test_matrix_round_trip(self):
        rng = np.random.default_rng(19)
        pose = lie.se3_exp(rng.standard_normal(6))
        np.testing.assert_allclose(pose_from_matrix(pose.matrix()).matrix(), pose.matrix())


# Edge angles of the property tests: zero, both sides of 1e-8 rad and 2^-26
# rad, below which sin a rounds to a, both sides of the Taylor switch and of
# 1e-2 rad, where the closed form of c2 would lose up to 1e-11, and the
# near-pi band of the SO(3) log, all in one mixed batch.
_EDGE_ANGLES = [0.0, 1e-12, 1e-9, 1e-8 - 1e-20, 1e-8, 1e-8 + 1e-20, 2.0**-26, 1e-6, 1e-3, 1e-2 - 1e-14, 1e-2, 1e-2 + 1e-14,
                lie._TAYLOR_ANGLE - 1e-12, lie._TAYLOR_ANGLE, lie._TAYLOR_ANGLE + 1e-12,
                0.5, 1.5, 3.0, np.pi - 1e-3, np.pi - 1e-5]


def edge_batch(seed=40):
    rng = np.random.default_rng(seed)
    axes = rng.standard_normal((len(_EDGE_ANGLES), 3))
    r = axes / np.linalg.norm(axes, axis=1, keepdims=True) * np.array(_EDGE_ANGLES)[:, None]
    return np.concatenate([rng.uniform(-5.0, 5.0, r.shape), r], axis=1)


def assert_rows_match(batched, unbatched_of_row, n):
    for i in range(n):
        ref = np.asarray(unbatched_of_row(i))
        assert np.abs(batched[i] - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max()), i


class TestBatchedKernels:
    """Each kernel over a leading axis gives, row by row, its unbatched result,
    whether a row's angle sits below or above a Taylor switch."""

    def test_so3_kernels(self):
        xi = edge_batch()
        r = xi[:, 3:]
        n = len(xi)
        assert_rows_match(lie.hat3(r), lambda i: lie.hat3(r[i]), n)
        assert_rows_match(lie.so3_exp(r), lambda i: lie.so3_exp(r[i]), n)
        assert_rows_match(lie.so3_left_jacobian(r), lambda i: lie.so3_left_jacobian(r[i]), n)
        rot = lie.so3_exp(r)
        assert_rows_match(lie._so3_log(rot), lambda i: lie._so3_log(rot[i]), n)

    def test_se3_kernels(self):
        xi = edge_batch()
        n = len(xi)
        pose = lie.se3_exp(xi)
        assert_rows_match(pose.matrix(), lambda i: lie.se3_exp(xi[i]).matrix(), n)
        assert_rows_match(lie.se3_log(pose), lambda i: lie.se3_log(pose[i]), n)
        assert_rows_match(lie.se3_left_jacobian(xi), lambda i: lie.se3_left_jacobian(xi[i]), n)
        _, a = lie.se3_log_and_inv_jacobian(pose)
        assert_rows_match(a, lambda i: lie.se3_log_and_inv_jacobian(pose[i])[1], n)
        assert_rows_match(lie.adjoint(pose), lambda i: lie.adjoint(pose[i]), n)

    def test_pose_methods_broadcast(self):
        xi = edge_batch()
        n = len(xi)
        pose, other = lie.se3_exp(xi), lie.se3_exp(edge_batch(41))
        assert_rows_match((pose @ other).matrix(), lambda i: (pose[i] @ other[i]).matrix(), n)
        assert_rows_match((pose @ other[3]).matrix(), lambda i: (pose[i] @ other[3]).matrix(), n)
        assert_rows_match(pose.inverse().matrix(), lambda i: pose[i].inverse().matrix(), n)
        assert_rows_match(pose.position, lambda i: pose[i].position, n)

    def test_one_sided_batch_matches_mixed_batch(self):
        # a batch below the switches evaluates the Taylor branch alone
        xi = edge_batch()
        small = xi[np.linalg.norm(xi[:, 3:], axis=1) < lie._TAYLOR_ANGLE]
        assert len(small) > 1
        mixed = lie.se3_left_jacobian(xi)[np.linalg.norm(xi[:, 3:], axis=1) < lie._TAYLOR_ANGLE]
        np.testing.assert_array_equal(lie.se3_left_jacobian(small), mixed)

    def test_closed_form_inverse_jacobian(self):
        h, a = lie.se3_log_and_inv_jacobian(lie.se3_exp(edge_batch()))
        prod = a @ lie.se3_left_jacobian(-h)
        assert np.abs(prod - np.eye(6)).max() < 1e-12

    def test_near_pi_log_names_its_rows(self):
        # the batch raises; row 2 raises alone, the other rows do not
        xi = edge_batch()[:4].copy()
        xi[2, 3:] *= (np.pi - 1e-8) / np.linalg.norm(xi[2, 3:])
        pose = lie.se3_exp(xi)
        with pytest.raises(NearPiRotation):
            lie.se3_log(pose)
        with pytest.raises(NearPiRotation):
            lie.se3_log(pose[2])
        for i in (0, 1, 3):
            lie.se3_log(pose[i])


# Angles of the shared-term checks: below 1e-8 rad, on both sides of 2^-26
# rad, on both sides of the Taylor switch and within 1e-14 of it, and up to
# near pi.
_SHARED_ANGLES = [0.0, 1e-12, 5e-9, 1.4e-8, 2.0**-26, 1e-3, 0.1, lie._TAYLOR_ANGLE - 1e-14, lie._TAYLOR_ANGLE,
                  lie._TAYLOR_ANGLE + 1e-14, 0.3, 1.5, 3.0, np.pi - 1e-5]


def shared_batches(seed=43):
    """Tangents [rho, r] at ``_SHARED_ANGLES``: the mixed batch, its rows below
    1e-8 rad, below and from ``_TAYLOR_ANGLE`` on, a (2, 7) batch with
    two leading axes, and each row unbatched."""
    rng = np.random.default_rng(seed)
    axes = rng.standard_normal((len(_SHARED_ANGLES), 3))
    r = axes / np.linalg.norm(axes, axis=1, keepdims=True) * np.array(_SHARED_ANGLES)[:, None]
    xi = np.concatenate([rng.uniform(-5.0, 5.0, r.shape), r], axis=1)
    angle = np.array(_SHARED_ANGLES)
    return [xi, xi[angle < 1e-8], xi[angle < lie._TAYLOR_ANGLE], xi[angle >= lie._TAYLOR_ANGLE],
            xi.reshape(2, 7, 6)] + list(xi)


class TestSharedTerms:
    """The kernels that share one ``_so3_terms`` evaluation equal the separate
    calls bit for bit where such a call exists, and evaluate the terms once."""

    @pytest.mark.parametrize("index", range(len(shared_batches())))
    def test_exp_and_jacobian_equal_separate_calls(self, index):
        xi = shared_batches()[index]
        pose, jac = lie.se3_exp_and_jacobian(xi)
        ref = lie.se3_exp(xi)
        np.testing.assert_array_equal(pose.rotation, ref.rotation)
        np.testing.assert_array_equal(pose.translation_block, ref.translation_block)
        np.testing.assert_array_equal(jac, lie.se3_left_jacobian(xi))

    @pytest.mark.parametrize("index", range(len(shared_batches())))
    def test_log_equals_separate_call_and_inv_jacobian_inverts(self, index):
        pose = lie.se3_exp(shared_batches()[index])
        h, a = lie.se3_log_and_inv_jacobian(pose)
        np.testing.assert_array_equal(h, lie.se3_log(pose))
        ref = se3_left_jacobian_inv(-h)
        np.testing.assert_allclose(a, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))

    def test_terms_evaluated_once_per_call(self, monkeypatch):
        xi = shared_batches()[0]
        pose = lie.se3_exp(xi)
        calls = []
        original = lie._so3_terms
        monkeypatch.setattr(lie, "_so3_terms", lambda r: calls.append(r.shape) or original(r))
        lie.se3_exp_and_jacobian(xi)
        lie.se3_log_and_inv_jacobian(pose)
        assert calls == [(len(xi), 3)] * 2

    def test_inverse_jacobian_evaluated_once_per_call(self, monkeypatch):
        # J_l(-h)^-1 is the transpose of the J_l(h)^-1 that gives rho
        pose = lie.se3_exp(shared_batches()[0])
        calls = []
        original = lie._so3_jacobian_inv
        monkeypatch.setattr(lie, "_so3_jacobian_inv", lambda terms: calls.append(1) or original(terms))
        lie.se3_log_and_inv_jacobian(pose)
        assert calls == [1]

    def test_near_pi_rotation_raises(self):
        pose = lie.se3_exp(np.array([1.0, 2.0, 3.0, 0.0, 0.0, np.pi - 1e-8]))
        with pytest.raises(NearPiRotation):
            lie.se3_log_and_inv_jacobian(pose)


def _fields(record, prefix=""):
    """Every field and evaluated cached term of a record by name, the arrays
    of a nested ``Pose`` as ``pose.rotation`` and ``pose.translation_block``."""
    out = {}
    for name, value in vars(record).items():
        if isinstance(value, lie.Pose):
            out.update(_fields(value, f"{prefix}{name}."))
        else:
            out[prefix + name] = value
    return out


def _assert_read_only(record):
    for name, value in _fields(record).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name


class TestRecords:
    """Every record the library builds from computed values holds read-only
    arrays (``lie._record``), and indexing a record indexes each of its
    fields (``lie._indexed``)."""

    @pytest.fixture(scope="class")
    def study(self):
        cfg = simkit.default_scenario()
        beams = channel.draw_beams(cfg.anchors, cfg.ue_array, cfg.signal)
        truths, reports = simkit.scenario_reports(cfg, beams)
        return cfg, beams, lie.Pose.stack(truths[:4]), reports

    @pytest.fixture(scope="class")
    def records(self, study):
        """One batched record of each indexable kind, over a leading axis of 4."""
        cfg, beams, poses, _ = study
        rng = np.random.default_rng(70)
        report = bounds.pose_error_bounds(poses, cfg.anchors, cfg.ue_array, cfg.signal, beams)
        _ = report.icrb_sqrt
        measured = lie.se3_exp(0.01 * rng.standard_normal((4, 6))) @ poses
        meas = tracking.PoseMeasurement(measured, report.icrb).evaluated()
        fused = tracking.fuse_poses([(measured, meas.cov_tangent), (poses, 1e-4 * np.eye(6))], initial=poses)
        return {"Pose": poses, "IcrbReport": report, "FilterState": fused, "PoseMeasurement": meas}

    def test_link_params_are_read_only(self, study):
        cfg, beams, poses, _ = study
        par = channel._anchor_links(poses, cfg.anchors, cfg.ue_array, cfg.signal, beams)[2]
        assert {"delay_s", "dir_ue", "dir_bs", "gain"} <= _fields(par).keys()
        _assert_read_only(par)
        _assert_read_only(channel.channel_params(poses[0], cfg.anchors[0], cfg.signal))

    def test_filter_states_are_read_only(self, records):
        fused = records["FilterState"]
        assert fused.iterations is not None
        _assert_read_only(fused)
        _assert_read_only(tracking.predict(fused, simkit.segment_commands(simkit.default_scenario().segments)[0]))

    def test_drawn_beams_are_read_only(self, study):
        _, beams, _, _ = study
        for array in (*beams.precoders, *beams.combiners, *beams.stacked):
            assert not array.flags.writeable

    def test_bound_reports_are_read_only(self, study):
        cfg, beams, poses, reports = study
        _assert_read_only(reports)
        for ue, powers in ((poses[0], None), (poses, None), (poses[0], [-20.0, 0.0]), (poses, [-20.0, 0.0])):
            _assert_read_only(bounds.pose_error_bounds(ue, cfg.anchors, cfg.ue_array, cfg.signal, beams, powers))

    @pytest.mark.parametrize("kind", ["Pose", "IcrbReport", "FilterState", "PoseMeasurement"])
    @pytest.mark.parametrize(
        "index", [1, slice(1, 3), np.array([True, False, True, True]), np.array([3, 0])],
        ids=["int", "slice", "mask", "take"],
    )
    def test_index_selects_every_field(self, records, kind, index):
        record = records[kind]
        part = record[index]
        assert type(part) is type(record)
        whole, sliced = _fields(record), _fields(part)
        assert sliced.keys() == whole.keys()
        for name, value in whole.items():
            if value is None:
                assert sliced[name] is None, name
            else:
                np.testing.assert_array_equal(sliced[name], value[index])
                assert not sliced[name].flags.writeable, name

    def test_report_slice_is_a_view_with_its_factor(self, study):
        _, _, _, reports = study
        root = reports.icrb_sqrt
        part = reports[:5]
        assert np.shares_memory(part.icrb, reports.icrb)
        assert "icrb_sqrt" in vars(part)
        assert np.shares_memory(part.icrb_sqrt, root)
        np.testing.assert_array_equal(part.icrb_sqrt, root[:5])
