"""Lie-core tests against independent series and conjugation oracles."""

import numpy as np
import pytest

from radiopose import lie
from radiopose.errors import NearPiRotation, NotSkew


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
        assert np.array_equal(lie.small_adjoint(np.zeros(6)), np.zeros((6, 6)))

    def test_small_adjoint_block_layout(self):
        xi = np.array([1.0, 0, 0, 0, 1.0, 0])
        ad = lie.small_adjoint(xi)
        np.testing.assert_allclose(ad[:3, :3], lie.hat3(xi[3:]))
        np.testing.assert_allclose(ad[:3, 3:], lie.hat3(xi[:3]))
        np.testing.assert_allclose(ad[3:, :3], np.zeros((3, 3)))
        np.testing.assert_allclose(ad[3:, 3:], lie.hat3(xi[3:]))

    def test_exp_of_small_adjoint_is_group_adjoint(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            xi = random_tangent(rng)
            xi *= 0.9 / max(np.linalg.norm(xi), 1.0)
            lhs = expm_series(lie.small_adjoint(xi), terms=40)
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
                lie.se3_left_jacobian(xi), jacobian_series(lie.small_adjoint(xi), 40), atol=1e-12
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
                ref = jacobian_series(lie.small_adjoint(xi), 60)
                err = np.abs(lie.se3_left_jacobian(xi) - ref).max()
                assert err <= 1e-14 * max(1.0, np.abs(ref).max())

    def test_right_jacobian_is_left_at_negated(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            xi = random_tangent(rng)
            np.testing.assert_allclose(
                lie.se3_right_jacobian(xi), lie.se3_left_jacobian(-xi), atol=0
            )


class TestBch:
    def test_zero_second_argument(self):
        rng = np.random.default_rng(14)
        xi1 = random_tangent(rng)
        np.testing.assert_allclose(
            lie.bch_compose_small(xi1, np.zeros(6), "second"), xi1, atol=1e-14
        )

    def test_commuting_case_sums(self):
        xi1 = np.array([0, 0, 0, 0, 0, 0.4])
        xi2 = np.array([0, 0, 0, 0, 0, 0.05])
        np.testing.assert_allclose(
            lie.bch_compose_small(xi1, xi2, "second"), xi1 + xi2, atol=1e-12
        )

    def test_error_against_exact_composition(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            xi1 = random_tangent(rng)
            xi1 *= 0.01 / np.linalg.norm(xi1)
            xi2 = random_tangent(rng)
            exact = lie.se3_log(lie.se3_exp(xi1) @ lie.se3_exp(xi2))
            approx = lie.bch_compose_small(xi1, xi2, "first")
            assert np.linalg.norm(exact - approx) < 1e-3

    def test_quadratic_error_scaling(self):
        rng = np.random.default_rng(16)
        xi1 = random_tangent(rng)
        small = random_tangent(rng)
        small /= np.linalg.norm(small)

        def err(scale):
            exact = lie.se3_log(lie.se3_exp(xi1) @ lie.se3_exp(scale * small))
            return np.linalg.norm(exact - lie.bch_compose_small(xi1, scale * small, "second"))

        assert err(0.08) / err(0.04) >= 3.5


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            lie.Pose(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            lie.Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

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
        np.testing.assert_allclose(lie.Pose.from_matrix(pose.matrix()).matrix(), pose.matrix())
