import itertools
import math

import numpy as np
import pytest

from finslerforms import builtins as bi
from finslerforms import connection
from finslerforms.connection import (
    LocalTower,
    TensorField,
    _collapse_zeros,
    _point_tower,
    cartan_coefficients,
    cov_h,
    cov_hh,
    delta_derivative,
    h_covariant_derivative,
    nabla_0,
    nested_build,
    nonlinear_connection,
    pack,
    spray,
    tget,
    v_covariant_derivative,
)
from finslerforms.curvature import (
    hh_components,
    hv_components,
    ricci_identity_residual,
    vv_components,
)
from finslerforms.forms import (
    energy_identity_residuals,
    horizontal_laplacian,
    laplacian_expansion,
    laplacian_expansion_coeffs,
)
from finslerforms.jets import JetRequest, fd_partial, grad_wrt, grad_x, grad_xy, grad_y, gsin, gsqrt
from finslerforms.metric import metric_components
from finslerforms.quadrature import QuadratureGrid

from conftest import sample_points

FAMILIES = ["euclidean", "randers-torus", "riemannian-torus", "riemannian-sphere", "quartic-torus"]


def sphere_christoffel(theta):
    """Closed-form round-sphere symbols in the (theta, phi) chart."""
    G = np.zeros((2, 2, 2))
    G[0, 1, 1] = -math.sin(theta) * math.cos(theta)
    G[1, 0, 1] = G[1, 1, 0] = math.cos(theta) / math.sin(theta)
    return G


class TestSpray:
    def test_flat_families_have_zero_spray(self, euclidean, randers):
        for s in (euclidean, randers):
            for z in sample_points(s, 5):
                assert np.max(np.abs(spray(s, (z.x, z.y)).data)) < 1e-12

    def test_sphere_spray_matches_christoffel(self, sphere):
        for z in sample_points(sphere, 5):
            G = spray(sphere, (z.x, z.y)).data
            Gam = sphere_christoffel(z.x[0])
            expected = 0.5 * np.einsum("ijk,j,k->i", Gam, z.y, z.y)
            assert np.max(np.abs(G - expected)) < 1e-8

    def test_spray_two_homogeneous(self, sphere, quartic):
        for s in (sphere, quartic):
            for z in sample_points(s, 5):
                G1 = spray(s, (z.x, z.y)).data
                G2 = spray(s, (z.x, 2.0 * z.y)).data
                assert np.max(np.abs(G2 - 4.0 * G1)) < 1e-10 * (1 + np.max(np.abs(G2)))

    def test_nonlinear_connection_euler(self, sphere):
        for z in sample_points(sphere, 5):
            N = nonlinear_connection(sphere, (z.x, z.y)).data
            G = spray(sphere, (z.x, z.y)).data
            assert np.max(np.abs(N @ z.y - 2.0 * G)) < 1e-10

    def test_nonlinear_connection_fd_oracle(self, sphere):
        z = sample_points(sphere, 1)[0]
        N = nonlinear_connection(sphere, (z.x, z.y)).data

        def G0(xs, ys):
            from finslerforms.connection import LocalTower

            return LocalTower(sphere, xs, ys).G[0]

        for j in range(2):
            orders = [0, 0]
            orders[j] = 1
            fd = fd_partial(JetRequest(G0, (list(z.x), list(z.y)), ((0, 0), tuple(orders))))
            assert abs(N[0, j] - fd) < 1e-6


class TestDeltaDerivative:
    def test_flat_torus_reduces_to_partial(self, randers):
        z = sample_points(randers, 1)[0]
        d = delta_derivative(randers, lambda xs, ys: __import__("finslerforms.jets", fromlist=["gsin"]).gsin(xs[0]), (z.x, z.y), 0)
        assert abs(d - math.cos(z.x[0])) < 1e-12

    def test_norm_is_horizontally_constant(self):
        for name in FAMILIES:
            s = bi.get_metric(name)
            for z in sample_points(s, 3):
                for axis in range(s.dim):
                    d = delta_derivative(s, lambda xs, ys: gsqrt(s.f2(xs, ys)), (z.x, z.y), axis)
                    assert abs(d) < 1e-9, name


class TestCartanCoefficients:
    def test_sphere_christoffel_closed_form(self, sphere):
        th = math.pi / 3
        conn = cartan_coefficients(sphere, ([th, 0.4], [0.3, 0.9]))
        assert conn.Gamma[0, 1, 1] == pytest.approx(-math.sqrt(3.0) / 4.0, abs=1e-10)
        assert np.max(np.abs(conn.Gamma - sphere_christoffel(th))) < 1e-8
        assert np.max(np.abs(conn.Cv)) < 1e-10

    def test_constant_randers_is_locally_minkowski(self, randers):
        for z in sample_points(randers, 5):
            conn = cartan_coefficients(randers, (z.x, z.y))
            assert np.max(np.abs(conn.Gamma)) < 1e-12
            assert np.max(np.abs(conn.N)) < 1e-12
            Cy = np.einsum("ijk,j->ik", conn.Cv, z.y)
            assert np.max(np.abs(Cy)) < 1e-10
            assert np.max(np.abs(conn.Cv)) > 1e-3

    def test_gamma_symmetric_lower_pair(self):
        rng_pts = 20
        for name in FAMILIES:
            s = bi.get_metric(name)
            for z in sample_points(s, rng_pts):
                conn = cartan_coefficients(s, (z.x, z.y))
                assert np.max(np.abs(conn.Gamma - conn.Gamma.transpose(0, 2, 1))) < 1e-10

    def test_n_equals_gamma_contraction(self):
        for name in FAMILIES:
            s = bi.get_metric(name)
            for z in sample_points(s, 10):
                conn = cartan_coefficients(s, (z.x, z.y))
                assert conn.n_gamma_defect < 1e-8, name


class TestCovariantDerivatives:
    def test_metric_compatibility(self):
        for name in FAMILIES:
            s = bi.get_metric(name)
            gfield = TensorField(lambda xs, ys, s=s: metric_components(s, xs, ys), "ll")
            for z in sample_points(s, 5):
                nh = h_covariant_derivative(s, gfield, (z.x, z.y)).data
                nv = v_covariant_derivative(s, gfield, (z.x, z.y)).data
                assert np.max(np.abs(nh)) < 1e-8, name
                assert np.max(np.abs(nv)) < 1e-8, name

    def test_kronecker_delta_is_parallel(self, sphere):
        delta = TensorField(lambda xs, ys: np.eye(2).tolist(), "ul")
        for z in sample_points(sphere, 3):
            nh = h_covariant_derivative(sphere, delta, (z.x, z.y)).data
            assert np.max(np.abs(nh)) < 1e-12

    def test_flat_scalar_derivative_is_plain_partial(self, randers):
        from finslerforms.jets import gsin

        f = TensorField(lambda xs, ys: gsin(xs[0]), "")
        for z in sample_points(randers, 3):
            nh = h_covariant_derivative(randers, f, (z.x, z.y)).data
            assert abs(nh[0] - math.cos(z.x[0])) < 1e-12
            assert abs(nh[1]) < 1e-12

    def test_leibniz_rule(self, sphere, rng):
        """Product rule for the covariant derivative of an outer product."""
        from finslerforms.jets import gcos, gsin

        a = lambda xs: [gsin(xs[0]), gcos(xs[1])]
        b = lambda xs: [gcos(xs[0] + xs[1]), 1.0]
        S = TensorField(lambda xs, ys: a(xs), "u")
        T = TensorField(lambda xs, ys: b(xs), "l")
        ST = TensorField(
            lambda xs, ys: [[ai * bj for bj in b(xs)] for ai in a(xs)], "ul"
        )
        for z in sample_points(sphere, 3):
            nS = h_covariant_derivative(sphere, S, (z.x, z.y)).data
            nT = h_covariant_derivative(sphere, T, (z.x, z.y)).data
            nST = h_covariant_derivative(sphere, ST, (z.x, z.y)).data
            Sv = np.array(a(list(z.x)), float)
            Tv = np.array(b(list(z.x)), float)
            expected = np.einsum("ih,j->ijh", nS, Tv) + np.einsum("i,jh->ijh", Sv, nT)
            assert np.max(np.abs(nST - expected)) < 1e-7

    def test_vertical_derivative_riemannian_y_independent(self, riemannian_torus):
        from finslerforms.jets import gsin

        T = TensorField(lambda xs, ys: [gsin(xs[0]), 0.0], "l")
        for z in sample_points(riemannian_torus, 3):
            nv = v_covariant_derivative(riemannian_torus, T, (z.x, z.y)).data
            assert np.max(np.abs(nv)) < 1e-12

    def test_vertical_derivative_fd_oracle(self, randers):
        """Vertical derivative of the Hilbert form against finite differences."""
        from finslerforms.metric import hilbert_components

        ellfield = TensorField(lambda xs, ys: hilbert_components(randers, xs, ys), "l")
        z = sample_points(randers, 1)[0]
        nv = v_covariant_derivative(randers, ellfield, (z.x, z.y)).data
        Cv = cartan_coefficients(randers, (z.x, z.y)).Cv
        ell = randers.hilbert_form((z.x, z.y)).data
        for i in range(2):
            for h in range(2):
                orders = [0, 0]
                orders[h] = 1

                def comp(xs, ys, i=i):
                    return hilbert_components(randers, xs, ys)[i]

                fd = fd_partial(JetRequest(comp, (list(z.x), list(z.y)), ((0, 0), tuple(orders))))
                expected = fd - sum(ell[p] * Cv[p, i, h] for p in range(2))
                assert abs(nv[i, h] - expected) < 1e-6


class TestNablaZero:
    def test_cartan_trace_parallel_on_constant_randers(self, randers):
        T = TensorField(lambda xs, ys: LocalTower(randers, xs, ys).Tt, "l")
        for z in sample_points(randers, 3):
            n0 = nabla_0(randers, T, (z.x, z.y)).data
            assert np.max(np.abs(n0)) < 1e-12

    def test_metric_parallel_along_flow(self, sphere):
        gfield = TensorField(lambda xs, ys: metric_components(sphere, xs, ys), "ll")
        for z in sample_points(sphere, 3):
            n0 = nabla_0(sphere, gfield, (z.x, z.y)).data
            assert np.max(np.abs(n0)) < 1e-8


class TestBaseDependentRanders:
    """Horizontal derivatives of the Cartan layers, which vanish on every
    built-in family, checked on a metric where they do not."""

    @pytest.mark.parametrize("layer, source", [("nabla_h_T", "Tt"), ("nabla_nabla0T", "nabla0T")])
    def test_layer_is_covariant_derivative_of_its_one_form(self, randers_base, layer, source):
        s = randers_base
        one_form = TensorField(lambda xs, ys: getattr(LocalTower(s, xs, ys), source), "l")
        for z in sample_points(s, 2):
            tower, _ = _point_tower(s, (z.x, z.y))
            got = pack(getattr(tower, layer), 2)  # [h][j]
            want = h_covariant_derivative(s, one_form, (z.x, z.y)).data  # [j][h]
            assert np.max(np.abs(got)) > 1e-3
            assert np.max(np.abs(got - want.T)) < 1e-12

    def test_deltaCmix_fd_oracle(self, randers_base):
        s = randers_base
        z = sample_points(s, 1)[0]
        tower, _ = _point_tower(s, (z.x, z.y))
        point = (list(tower.xs), list(tower.ys))
        dC = pack(tower.deltaCmix, 4)  # [c][h][k][j]
        N = pack(tower.N, 2)
        assert np.max(np.abs(dC)) > 1e-3
        unit = ((1, 0), (0, 1))
        for h, k, j in itertools.product(range(2), repeat=3):

            def comp(xs, ys, h=h, k=k, j=j):
                return LocalTower(s, xs, ys).Cmix[h][k][j]

            dx = [fd_partial(JetRequest(comp, point, (e, (0, 0)))) for e in unit]
            dy = [fd_partial(JetRequest(comp, point, ((0, 0), e))) for e in unit]
            for c in range(2):
                expected = dx[c] - sum(N[m, c] * dy[m] for m in range(2))
                assert abs(dC[c, h, k, j] - expected) < 1e-6


# -- the parent's second covariant derivative, kept as a reference ------------------


def reference_cov_hh(tower, p2, variance):
    """nabla nabla T by the product rule on the 6-tuple (val, dx, dy, dxx, dxy,
    dyy) of ``TensorField.partials2``, reading dN and dGamma directly."""
    n = tower.n
    rank = len(variance)
    val, dx, dy, dxx, dxy, dyy = p2
    N, Gamma = tower.N, tower.Gamma
    dN_x, dN_y = tower.dN_x, tower.dN_y
    dG_x, dG_y = tower.dGamma_x, tower.dGamma_y
    W = cov_h(tower, val, dx, dy, variance)

    def dW_entry(kind, c, b, idx):
        # plain partial (x if kind == 0 else y, axis c) of (nabla_b T)_idx
        if kind == 0:
            acc = tget(dxx[c][b], idx)
            dN, dG, dT1 = dN_x, dG_x, dx
            for m in range(n):
                acc = acc - dN[c][m][b] * tget(dy[m], idx) - N[m][b] * tget(dxy[c][m], idx)
        else:
            acc = tget(dxy[b][c], idx)
            dN, dG, dT1 = dN_y, dG_y, dy
            for m in range(n):
                acc = acc - dN[c][m][b] * tget(dy[m], idx) - N[m][b] * tget(dyy[c][m], idx)
        for t, var in enumerate(variance):
            it = idx[t]
            for p in range(n):
                jdx = idx[:t] + (p,) + idx[t + 1 :]
                if var == "l":
                    acc = acc - tget(val, jdx) * dG[c][p][it][b] - tget(dT1[c], jdx) * Gamma[p][it][b]
                else:
                    acc = acc + tget(val, jdx) * dG[c][it][p][b] + tget(dT1[c], jdx) * Gamma[it][p][b]
        return acc

    dWx = [
        [nested_build(n, rank, lambda idx, c=c, b=b: dW_entry(0, c, b, idx)) for b in range(n)]
        for c in range(n)
    ]
    dWy = [
        [nested_build(n, rank, lambda idx, c=c, b=b: dW_entry(1, c, b, idx)) for b in range(n)]
        for c in range(n)
    ]
    return cov_h(tower, W, dWx, dWy, "l" + variance)


def trig_tensor_field(s, variance, seed):
    """Rank-len(variance) field with trigonometric x-dependence and a
    y-dependent part, so that every term of nabla nabla T is exercised."""
    n, rank = s.dim, len(variance)
    rng = np.random.default_rng(seed)
    fns = {idx: bi.random_trig_scalar(rng, n) for idx in itertools.product(range(n), repeat=rank)}

    def fn(xs, ys):
        weight = 1.0 + 0.3 * ys[0] * ys[-1]
        return nested_build(
            n, rank, lambda idx: fns[idx](xs) * weight + gsin(xs[0]) * ys[idx[-1]]
        )

    return TensorField(fn, variance)


class TestSecondCovariantDerivative:
    """cov_hh, the covariant derivative of nabla T read off seeded children,
    against the parent's product rule on second partials."""

    REL_TOL = 1e-14  # times the largest |entry| of the reference

    @pytest.mark.parametrize("name", ["randers-base", "randers-torus-3d"])
    @pytest.mark.parametrize("variance", ["u", "l", "ll"])
    @pytest.mark.parametrize("batch", [False, True])
    def test_matches_product_rule(self, name, variance, batch, randers_base):
        s = randers_base if name == "randers-base" else bi.get_metric(name)
        T = trig_tensor_field(s, variance, seed=71)
        if batch:
            pts = sample_points(s, 6)
            towers = [
                LocalTower(
                    s, list(np.array([z.x for z in pts]).T), list(np.array([z.y for z in pts]).T)
                )
            ]
        else:
            towers = [LocalTower(s, list(z.x), list(z.y)) for z in sample_points(s, 3)]
        rank = len(variance)
        for tower in towers:
            p1, W, D = cov_hh(tower, lambda tw: T.components(tw.xs, tw.ys), variance)
            want = reference_cov_hh(tower, T.partials2(tower.xs, tower.ys), variance)
            want, got = pack(want, rank + 2), pack(D, rank + 2)
            scale = np.max(np.abs(want))
            assert scale > 1e-3
            assert np.max(np.abs(got - want)) <= self.REL_TOL * scale
            # the field and nabla T come back as computed at the tower, bit for bit
            val, dx, dy = T.partials(tower.xs, tower.ys)
            assert np.array_equal(pack(p1[0], rank), pack(val, rank))
            nab = cov_h(tower, val, dx, dy, variance)
            assert np.array_equal(pack(W, rank + 1), pack(nab, rank + 1))


class TestPack:
    def test_scalar_row_beside_array_rows(self):
        """A sub-list of plain floats broadcasts against node-array leaves."""
        arr = np.arange(4.0)
        got = pack([[0.0, 1.0], [arr, 2.0 * arr]], 2)
        assert got.shape == (2, 2, 4)
        assert np.array_equal(got[0, 0], np.zeros(4)) and np.array_equal(got[0, 1], np.ones(4))
        assert np.array_equal(got[1, 0], arr) and np.array_equal(got[1, 1], 2.0 * arr)

    def test_all_zero_rows_of_a_three_form(self):
        n = 3
        coeffs = [[[0.0] * n for _ in range(n)] for _ in range(n)]
        coeffs[0][1][2] = np.ones((2, 5))
        assert pack(coeffs, 3).shape == (3, 3, 3, 2, 5)


class TestOnePartialPerList:
    """A rebuilt layer caches one partial per coordinate list.  At a point
    the first read of either list splits both off the tower's one child and
    caches both, so the work does not depend on read order; on arrays each
    list is its own pass, made when it is first read."""

    PARTIALS = (("dT_x", "dT_y"), ("dN_x", "dN_y"), ("dGamma_x", "dGamma_y"),
                ("dCmix_x", "dCmix_y"), ("d_nabla0T_x", "d_nabla0T_y"))

    @pytest.mark.parametrize("order", ["hh-hv-vv", "hv-hh-vv"])
    def test_f2_evaluations_do_not_depend_on_block_order(self, order, randers_base, monkeypatch):
        s = randers_base
        blocks = {"hh": hh_components, "hv": hv_components, "vv": vv_components}
        z = sample_points(s, 1)[0]
        calls, f2 = [], s._f2

        def counted(xs, ys):
            calls.append(1)
            return f2(xs, ys)

        monkeypatch.setattr(s, "_f2", counted)
        tower, _ = _point_tower(s, (z.x, z.y))
        for name in order.split("-"):
            blocks[name](tower)
        assert len(calls) == 9

    def test_one_read_caches_both_lists_at_a_point(self, randers_base):
        z = sample_points(randers_base, 1)[0]
        for x_name, y_name in self.PARTIALS:
            for first, other in ((x_name, y_name), (y_name, x_name)):
                tower, _ = _point_tower(randers_base, (z.x, z.y))
                getattr(tower, first)
                assert other in vars(tower), first

    def test_each_list_is_its_own_pass_on_arrays(self, randers_base):
        pts = sample_points(randers_base, 3, seed=24)
        xs, ys = (list(np.array([getattr(z, c) for z in pts]).T) for c in "xy")
        for x_name, y_name in self.PARTIALS:
            for first, other in ((x_name, y_name), (y_name, x_name)):
                tower = LocalTower(randers_base, xs, ys)
                getattr(tower, first)
                assert other not in vars(tower), first



def built_towers(monkeypatch):
    """The towers built by ``LocalTower.__init__`` from now on, in order."""
    built, init = [], LocalTower.__init__

    def recorded(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(LocalTower, "__init__", recorded)
    return built


class TestOneChildPerTower:
    """At a point a tower caches one child tower, at x and y seeded together,
    and splits N, dgx and every rebuilt partial off the matching layer of
    that child; its child does the same in turn.  An array tower keeps its
    per-coordinate rebuilt passes and caches no child."""

    PARTIALS = TestOnePartialPerList.PARTIALS
    LAYERS = {"dT": ("Tt", 1), "dN": ("N", 2), "dGamma": ("Gamma", 3), "dCmix": ("Cmix", 3),
              "d_nabla0T": ("nabla0T", 1)}

    def test_one_child_per_tower_level(self, randers_base, monkeypatch):
        z = sample_points(randers_base, 1)[0]
        built = built_towers(monkeypatch)
        tower, _ = _point_tower(randers_base, (z.x, z.y))
        for kernel in (hh_components, hv_components, vv_components):
            kernel(tower)
        tower.nabla_nabla0T
        chain = [tower]
        while "_child" in vars(chain[-1]):
            chain.append(vars(chain[-1])["_child"][0])
        assert len(built) == len(chain) == 3
        assert all(a is b for a, b in zip(built, chain))

    @pytest.mark.parametrize("name", ["randers-base", "randers-base-3d", "randers-torus-3d",
                                      "randers-base-4d"])
    @pytest.mark.parametrize("first", [hh_components, hv_components], ids=["hh-first", "hv-first"])
    def test_partials_equal_the_rebuilt_routes(self, name, first, request):
        """N, dgx and both halves of every rebuilt partial equal, hex for
        hex, the y pass of a rebuilt G, the x pass of g and the joint pass
        of :func:`jets.grad_xy` over a fresh rebuilt tower."""
        s = (bi.get_metric(name) if name == "randers-torus-3d"
             else request.getfixturevalue(name.replace("-", "_")))
        n = s.dim
        for z in sample_points(s, 2, seed=5):
            tower, _ = _point_tower(s, (z.x, z.y))
            first(tower)
            xs, ys = tower.xs, tower.ys
            dG = grad_y(lambda a, b: LocalTower(s, a, b).G, xs, ys)
            want = {
                "N": (_collapse_zeros([[dG[j][i] for j in range(n)] for i in range(n)]), 2),
                "dgx": (_collapse_zeros(grad_x(lambda a, b: metric_components(s, a, b), xs, ys)), 3),
            }
            for x_name, y_name in self.PARTIALS:
                layer, rank = self.LAYERS[x_name[:-2]]
                rebuilt = lambda a, b, layer=layer: getattr(LocalTower(s, a, b), layer)
                dx, dy = grad_xy(rebuilt, xs, ys)
                want[x_name] = (_collapse_zeros(dx), rank + 1)
                want[y_name] = (_collapse_zeros(dy), rank + 1)
            for key, (value, rank) in want.items():
                assert hexes(pack(getattr(tower, key), rank)) == hexes(pack(value, rank)), key

    def test_no_child_on_arrays(self, randers_base, monkeypatch):
        """Guards peak memory: a child cached on a grid tower would keep its
        whole derivative tree alive as long as the grid."""
        tower = QuadratureGrid.for_structure(randers_base, (8, 8), (16,)).tower(randers_base)
        built = built_towers(monkeypatch)
        tower.N, tower.dgx
        for pair in self.PARTIALS:
            for name in pair:
                getattr(tower, name)
        assert built and all("_child" not in vars(tw) for tw in [tower, *built])


def per_list(fn, xs, ys):
    """``grad_xy`` as one seeded pass per coordinate list."""
    return grad_wrt(fn, (xs, ys), 0), grad_wrt(fn, (xs, ys), 1)


def hexes(tree):
    return [float(v).hex() for v in np.ravel(np.asarray(tree, float))]


class TestJointSeeding:
    """Seeding x and y in one pass (``jets.grad_xy``) gives every tower
    layer, curvature block and operator output bit for bit as one pass per
    coordinate list does, at points and on an array batch, also when the hv
    block, a reader of y partials alone, is the first read of a fresh tower."""

    LAYERS = (("g", 2), ("C", 3), ("N", 2), ("Gamma", 3), ("flag", 3), ("nabla_nabla0T", 2))

    @classmethod
    def tower_outputs(cls, tower, s, seed, hv_first=False):
        out = {"hv-first": pack(hv_components(tower), 4)} if hv_first else {}
        out.update((layer, pack(getattr(tower, layer), rank)) for layer, rank in cls.LAYERS)
        for kernel in (hh_components, hv_components, vv_components):
            out[kernel.__name__] = pack(kernel(tower), 4)
        rng = np.random.default_rng(seed)
        X = bi.random_trig_vector(rng, s)
        out["nabla-nabla-X"] = pack(cov_hh(tower, lambda tw: X.components(tw.xs, tw.ys), "u")[2], 3)
        for p in range(s.dim + 1):
            phi = bi.random_trig_form(rng, s, p)
            out[f"composed-{p}"] = pack(horizontal_laplacian(s, phi).on(tower), p)
            out[f"expanded-{p}"] = pack(laplacian_expansion_coeffs(tower, phi), p)
        return out

    @classmethod
    def point_outputs(cls, s, z, seed):
        pt = (z.x, z.y)
        out = cls.tower_outputs(_point_tower(s, pt)[0], s, seed)
        rng = np.random.default_rng(seed + 1)
        X = bi.random_trig_vector(rng, s)
        out["ricci"] = ricci_identity_residual(s, X, pt).data
        out["energy"] = energy_identity_residuals(s, X, pt)
        for p in range(s.dim + 1):
            phi = bi.random_trig_form(rng, s, p)
            out[f"composed-{p}-at"] = horizontal_laplacian(s, phi).at(s, pt).data
            out[f"expanded-{p}-at"] = laplacian_expansion(s, phi).at(s, pt).data
        return out

    @staticmethod
    def assert_bit_identical(compute, monkeypatch):
        joint = compute()
        monkeypatch.setattr(connection, "grad_xy", per_list)
        lists = compute()
        assert joint.keys() == lists.keys()
        for key in joint:
            assert hexes(joint[key]) == hexes(lists[key]), key

    @pytest.mark.parametrize("dim", [2, 3])
    def test_at_points(self, dim, randers_base, randers_base_3d, monkeypatch):
        s = randers_base if dim == 2 else randers_base_3d
        points = sample_points(s, 3, seed=23)
        self.assert_bit_identical(
            lambda: {
                f"{k}:{key}": v
                for k, z in enumerate(points)
                for key, v in self.point_outputs(s, z, 30 + k).items()
            },
            monkeypatch,
        )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_hv_first_at_points(self, dim, randers_base, randers_base_3d, monkeypatch):
        s = randers_base if dim == 2 else randers_base_3d
        points = sample_points(s, 3, seed=23)
        self.assert_bit_identical(
            lambda: {
                f"{k}:{key}": v
                for k, z in enumerate(points)
                for key, v in self.tower_outputs(
                    _point_tower(s, (z.x, z.y))[0], s, 30 + k, hv_first=True
                ).items()
            },
            monkeypatch,
        )

    def test_on_an_array_batch(self, randers_base, monkeypatch):
        self.assert_batch_bit_identical(randers_base, monkeypatch, hv_first=False)

    def test_hv_first_on_an_array_batch(self, randers_base, monkeypatch):
        self.assert_batch_bit_identical(randers_base, monkeypatch, hv_first=True)

    def assert_batch_bit_identical(self, s, monkeypatch, hv_first):
        pts = sample_points(s, 3, seed=24)
        xs, ys = (list(np.array([getattr(z, c) for z in pts]).T) for c in "xy")
        self.assert_bit_identical(
            lambda: self.tower_outputs(LocalTower(s, xs, ys), s, 40, hv_first), monkeypatch
        )
