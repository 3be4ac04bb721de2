"""Filtered deformations, their curved duals, and deformed CY verdicts."""

from fractions import Fraction
from random import Random

import pytest

from helpers import (AS_REGULAR, CORPUS, DIM2, cdg_trivial_extension,
                     cert_of, class_from_pairings, column, dense_inverse,
                     description_of, fraction_matrix, oracle_cdga_axioms,
                     potential_deformation, random_nu_theta,
                     rescaled_nakayama_shift, seeded, with_model,
                     zero_action_model)
from quadalg import (Cdga, GradedFDAlgebra, Matrix, NotRegular,
                     PBWDeformation, QuadraticAlgebra, Subspace, add_into,
                     as_regular_certificate, check_cdga_axioms,
                     cy_criterion_deformed, cy_equivalence_dim2, dual_cdga,
                     nakayama_cdga_compatibility, nakayama_shift, pbw,
                     regularity_data, skew_deformation, skew_extend,
                     verify_ext_algebra_isomorphism)
from quadalg.io import description_deformation
from quadalg.linalg import ConsistencyError, LinAlgError

F = Fraction


def _mk(name, nu_rows, theta):
    """A deformation on the canonical relation rows, nu given densely."""
    cert = cert_of(name)
    rows = tuple(dict(r) for r in cert.algebra.relations.rows)
    nu = tuple({t: F(v) for t, v in enumerate(r) if v} for r in nu_rows)
    return PBWDeformation(cert, rows, nu, tuple(F(v) for v in theta))


def _on_rows(defm, mat):
    """The deformation restated on the rows mat @ defm.rows, nu and theta
    following the same coefficients; mat is a list of dense rows."""
    def combine(coeffs, vecs):
        out = {}
        for c, vec in zip(coeffs, vecs):
            for key, v in vec.items():
                add_into(out, key, c * v)
        return out

    return PBWDeformation(
        defm.cert, tuple(combine(r, defm.rows) for r in mat),
        tuple(combine(r, defm.nu) for r in mat),
        tuple(sum(c * t for c, t in zip(r, defm.theta)) for r in mat),
        defm.domain)


def _criterion(defm):
    return cy_criterion_deformed(defm, dual_cdga(defm))


def _corpus_defm(name, gldim, bound=5):
    desc = description_of(name)
    cert = regularity_data(desc.algebra, gldim, bound)
    return description_deformation(desc, cert)


def test_shape_validation():
    # the rows must be a basis of R, and nu and theta one entry per row
    cert = cert_of("poly3")
    rows = tuple(dict(r) for r in cert.algebra.relations.rows)
    nu = ({},) * 3
    theta = (F(0),) * 3
    word = next(w for w in range(9)
                if not cert.algebra.relations.contains({w: 1}))
    dependent = rows[:2] + ({c: 2 * v for c, v in rows[0].items()},)
    for bad in (dependent, rows[:2] + ({word: F(1)},), rows[:2],
                rows + ({word: F(1)},)):
        with pytest.raises(LinAlgError, match="basis of the relation space"):
            PBWDeformation(cert, bad, nu, theta)
    with pytest.raises(LinAlgError, match="nu"):
        PBWDeformation(cert, rows, nu[:2], theta)
    with pytest.raises(LinAlgError, match="nu"):
        PBWDeformation(cert, rows, ({3: F(1)}, {}, {}), theta)
    with pytest.raises(LinAlgError, match="theta"):
        PBWDeformation(cert, rows, nu, theta + (F(0),))


def test_weyl_dual_cdga():
    defm = _corpus_defm("quantum_weyl", 2)
    c = dual_cdga(defm)
    # nu is zero: no linear differential at all
    assert all(m == Matrix.from_rows([[0] * m.cols] * m.rows, m.cols)
               for m in c.delta[1:])
    # theta = 1 on xy - 2yx: curvature pairs to 1 against it, giving -1/2 of
    # the single dual relation class y*x*
    assert c.curvature == Matrix.from_rows([[F(-1, 2)]], 1)
    assert check_cdga_axioms(c).passed


def test_noncy_dual_cdga_and_shift():
    defm = _corpus_defm("deformed_qp_noncy", 2)
    c = dual_cdga(defm)
    assert check_cdga_axioms(c).passed
    shift = column(nakayama_shift(defm.cert, c))
    assert shift == (F(0), F(-1, 2))
    # invariance under rescaling the top class
    for s in (2, 3, F(-1, 2)):
        assert rescaled_nakayama_shift(defm.cert, c, s) == shift
    assert defm.cert.nakayama == Matrix.from_rows(
        [(F(2), F(0)), (F(0), F(1, 2))], 2)


def test_kxy_first_order_shift():
    # relation xy - yx deformed by nu = x, theta = 0
    defm = _mk("kxy", [(1, 0)], (0,))
    c = dual_cdga(defm)
    assert column(nakayama_shift(defm.cert, c)) == (F(0), F(-1))
    assert check_cdga_axioms(c).passed
    # the identity twist fixes every shift, so the verdict is positive no
    # matter the deformation
    rep = cy_criterion_deformed(defm, c)
    assert rep.is_CY
    assert rep.witness is None
    assert column(rep.shift) == column(rep.twisted_shift) == (F(0), F(-1))


def test_cy_witness_names_first_moved_generator():
    rep = _criterion(_corpus_defm("deformed_qp_noncy", 2))
    assert not rep.is_CY
    assert rep.witness == "y"
    assert column(rep.shift) == (F(0), F(-1, 2))
    assert column(rep.twisted_shift) == (F(0), F(-1, 4))


def test_heisenberg_cdga():
    defm = _corpus_defm("heisenberg", 3)
    c = dual_cdga(defm)
    assert check_cdga_axioms(c).passed
    # relation xy - yx deforms to z: the new dual letter z* maps onto minus
    # the dual class of that relation
    assert (fraction_matrix(c.delta[1]).mul_col((F(0), F(0), F(1)))
            == (F(-1), F(0), F(0)))
    assert cy_criterion_deformed(defm, c).is_CY
    assert column(nakayama_shift(defm.cert, c)) == (F(0), F(0), F(0))
    assert nakayama_cdga_compatibility(defm.cert, c).passed


def test_axioms_fail_on_jacobi_violation():
    # bracket [x,y] = z, [x,z] = -x, [y,z] = x violates Jacobi
    defm = _mk("poly3", [(0, 0, 1), (-1, 0, 0), (1, 0, 0)], (0, 0, 0))
    rep = check_cdga_axioms(dual_cdga(defm))
    assert not rep.passed
    assert len(rep.square_failures) == 1
    assert rep.leibniz_failures == ()


def test_axioms_report_leibniz_failures():
    # add 1 to entry (0, 0) of delta_1 on the heisenberg dual: x* now also
    # maps to the first degree-two basis element, which breaks the Leibniz
    # rule on the two products of x* with z* and nothing else
    c = dual_cdga(_corpus_defm("heisenberg", 3))
    rows = [list(row) for row in c.delta[1].entries]
    rows[0][0] += 1
    delta1 = Matrix.from_rows(rows, c.delta[1].cols)
    bad = Cdga(c.algebra, c.delta[:1] + (delta1,) + c.delta[2:], c.curvature)
    rep = check_cdga_axioms(bad)
    assert rep.leibniz_failures == ((1, 1, 0, 2), (1, 1, 2, 0))
    assert rep.curvature_closed
    assert rep.square_failures == ()


def test_dim2_every_deformation_satisfies_axioms():
    # no room for obstructions below the top in dimension two
    rng = Random(11)
    for name in DIM2:
        cert = cert_of(name)
        for _ in range(4):
            defm = PBWDeformation(cert, *random_nu_theta(rng, cert))
            rep = check_cdga_axioms(dual_cdga(defm))
            assert rep.passed, name


def test_skew_deformation_transport():
    # the transported differential sends the new dual letter to the shift
    # combination of the mixed dual relation classes
    for name, gldim in (("quantum_weyl", 2), ("deformed_qp_noncy", 2),
                        ("heisenberg", 3)):
        defm = _corpus_defm(name, gldim)
        cert = defm.cert
        xi = cert.nakayama
        lam = nakayama_shift(cert, dual_cdga(defm))
        ext = skew_extend(cert, xi)
        ext_defm = skew_deformation(defm, ext, lam)
        n = cert.algebra.n
        nrel = cert.algebra.relations.dim
        c = dual_cdga(ext_defm)
        z_img = fraction_matrix(c.delta[1]).mul_col(
            tuple([F(0)] * n) + (F(1),))
        # rebuild the expected class from the stacked relation pairings
        stacked = [{(col // n) * (n + 1) + col % n: v for col, v in row}
                   for row in cert.algebra.relations.rows]
        stacked += ext.stacked_relations[nrel:]
        values = [F(0)] * nrel + list(column(lam))
        [expect] = class_from_pairings(ext_defm.cert.dual_fd, 2, stacked,
                                       [values])
        assert z_img == expect, name


def test_deformation_from_rows_is_basis_free():
    # (nu, theta) is a linear map on R: restated on the canonical rows of R
    # and on shuffled, rescaled and recombined rows, a deformation gives the
    # same curved structure and the same deformed CY report
    defms = [_corpus_defm("deformed_qp_noncy", 2),
             _corpus_defm("quantum_weyl", 2), _corpus_defm("heisenberg", 3)]
    assert len([name for name in CORPUS
                if description_of(name).has_deformation]) == 3
    rng = Random(1515)
    for name in AS_REGULAR:
        cert = cert_of(name)
        defms += [PBWDeformation(cert, *random_nu_theta(rng, cert))
                  for _ in range(2)]
    for defm in defms:
        rels = defm.cert.algebra.relations
        order = list(range(rels.dim))
        rng.shuffle(order)
        mixed = []
        for j, i in enumerate(order):
            row = [F(0)] * rels.dim
            row[i] = F(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
            for k in order[:j]:
                row[k] = F(rng.randrange(-2, 3))
            mixed.append(row)
        mixed = _on_rows(defm, mixed)
        # the canonical row t is the combination of the given rows that
        # reads 1 at pivot t and 0 at the other pivots
        at_pivots = Matrix.from_rows(
            [[r.get(p, F(0)) for p in rels.pivots] for r in mixed.rows],
            rels.dim)
        canonical = _on_rows(mixed, dense_inverse(at_pivots).entries)
        assert canonical.rows == tuple(dict(r) for r in rels.rows)
        c = dual_cdga(defm)
        rep = cy_criterion_deformed(defm, c)
        for other in (mixed, canonical):
            oc = dual_cdga(other)
            assert (oc.delta, oc.curvature) == (c.delta, c.curvature)
            assert cy_criterion_deformed(other, oc) == rep


def test_cy_criterion_goldens():
    noncy = _corpus_defm("deformed_qp_noncy", 2)
    assert not _criterion(noncy).is_CY
    rep = _criterion(_corpus_defm("quantum_weyl", 2))
    assert rep.is_CY and rep.dimension == 3
    assert rep.converse_definitive
    rep3 = _criterion(_corpus_defm("heisenberg", 3))
    assert rep3.is_CY and rep3.dimension == 4


def test_cy_witness_is_the_first_letter_the_twist_moves():
    # route one's images in the Ext model are (-1)^d (shift - twisted
    # shift), one per letter: on the corpus deformations and seeded ones of
    # every AS-regular base, the verdict is that the two shifts agree and
    # the witness is the first letter where they do not
    defms = [_corpus_defm("deformed_qp_noncy", 2),
             _corpus_defm("quantum_weyl", 2), _corpus_defm("heisenberg", 3)]
    rng = Random(59)
    for name in AS_REGULAR:
        cert = cert_of(name)
        defms += [PBWDeformation(cert, *random_nu_theta(rng, cert))
                  for _ in range(8)]
    moved = 0
    for defm in defms:
        rep = _criterion(defm)
        diff = [x for x, a, b in zip(defm.cert.algebra.names,
                                     column(rep.shift),
                                     column(rep.twisted_shift)) if a != b]
        assert rep.is_CY == (not diff)
        assert rep.witness == (diff[0] if diff else None)
        moved += bool(diff)
    assert len(defms) == 59 and 0 < moved < 59


def test_cdg_trivial_extension_structure():
    for name, gldim in (("quantum_weyl", 2), ("deformed_qp_noncy", 2),
                        ("heisenberg", 3)):
        defm = _corpus_defm(name, gldim)
        c = dual_cdga(defm)
        big = cdg_trivial_extension(c)
        assert check_cdga_axioms(big).passed, name
        # the differential of the shifted top unit lands on the shift
        # combination of the omega duals
        cert = defm.cert
        d = cert.gldim
        n = cert.algebra.n
        lam = nakayama_shift(cert, c)
        g1 = cert.frobenius.pairings[1]
        pi_star = tuple([F(0)] * cert.dual_fd.dim(1)) + (F(1),)
        img = fraction_matrix(big.delta[1]).mul_col(pi_star)
        dual_part = img[cert.dual_fd.dim(2):]
        assert tuple(dual_part) == column(g1.transpose() @ lam), name


def test_compatibility_reports():
    for name, passed in (("quantum_weyl", True), ("deformed_qp_noncy", False)):
        defm = _corpus_defm(name, 2)
        rep = nakayama_cdga_compatibility(defm.cert, dual_cdga(defm))
        assert rep.passed == passed, name


def test_equivalence_dim2_goldens():
    rep = cy_equivalence_dim2(_corpus_defm("deformed_qp_noncy", 2))
    assert (rep.cond_i, rep.cond_ii, rep.cond_iii) == (False, False, False)
    assert rep.equivalent
    rep = cy_equivalence_dim2(_corpus_defm("quantum_weyl", 2))
    assert (rep.cond_i, rep.cond_ii, rep.cond_iii) == (True, True, True)
    assert rep.equivalent


def test_equivalence_rejects_dim3():
    with pytest.raises(LinAlgError):
        cy_equivalence_dim2(_corpus_defm("heisenberg", 3))


def test_equivalence_random_dim2():
    rng = Random(23)
    for name in DIM2:
        cert = cert_of(name)
        for _ in range(6):
            rep = cy_equivalence_dim2(
                PBWDeformation(cert, *random_nu_theta(rng, cert)))
            assert rep.equivalent, name
            assert rep.cond_i == rep.cond_ii == rep.cond_iii


def test_the_deformed_criterion_refuses_a_model_that_fails_its_check(
        monkeypatch):
    # a copy of the Nakayama-twisted extension whose model is not the dual
    # of the extension, handed out by skew_extend: the deformed criterion
    # raises, as cy_check_with does, and reads nothing off that model
    for name, gldim in (("deformed_qp_noncy", 2), ("quantum_weyl", 2),
                        ("heisenberg", 3)):
        defm = _corpus_defm(name, gldim)
        cert = defm.cert
        c = dual_cdga(defm)
        bad = with_model(skew_extend(cert, cert.nakayama),
                         zero_action_model(cert))
        assert not verify_ext_algebra_isomorphism(bad).passed
        with monkeypatch.context() as m, pytest.raises(
                ConsistencyError, match="cohomology model does not match"):
            m.setattr(pbw, "skew_extend", lambda cert, sigma, /: bad)
            cy_criterion_deformed(defm, c)
        # the cached extension is as it was, and so is the verdict
        assert skew_extend(cert, cert.nakayama).iso.passed, name
        assert cy_criterion_deformed(defm, c) == _criterion(defm), name


def _agrees_with_the_full_loops(c):
    """check_cdga_axioms on c against the all-pairs loops it replaced: the
    same verdict, the same curvature check, and the loops' failures at the
    pairs whose right factor s is in the generating set S; the verdict."""
    rep = check_cdga_axioms(c)
    leibniz, closed, squares = oracle_cdga_axioms(c)
    gens = c.algebra.generators
    assert rep.passed == (not leibniz and closed and not squares)
    assert rep.curvature_closed == closed
    assert rep.leibniz_failures == tuple(f for f in leibniz
                                         if f[3] in gens[f[1]])
    assert rep.square_failures == tuple(f for f in squares
                                        if f[1] in gens[f[0]])
    return rep.passed


def _corrupted(c, rng):
    """c with one entry of one delta_j, 1 <= j below the top, moved."""
    j = rng.randrange(1, c.algebra.length)
    m = c.delta[j]
    rows = [list(row) for row in m.entries]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice(
        (-2, -1, 1, 2))
    return Cdga(c.algebra, c.delta[:j] + (Matrix.from_rows(rows, m.cols),)
                + c.delta[j + 1:], c.curvature)


def _flat(alg):
    """The zero differential and curvature on alg."""
    dims = alg.dims + (0,)
    return Cdga(alg, tuple(Matrix.from_rows([[0] * dims[j]] * dims[j + 1],
                                            dims[j])
                           for j in range(alg.length + 1)),
                Matrix.from_rows([[0]] * dims[2], 1))


def test_the_generator_check_matches_the_full_loops():
    # seeded (nu, theta) on every AS-regular base, entries at +-1 and at
    # +-3, each with a single-entry corruption of its differential, and
    # the corpus deformations with their dual-sided trivial extensions,
    # whose generating sets reach above degree one
    rng = Random(3701)
    drawn, corrupted = [], []
    for name in AS_REGULAR:
        cert = cert_of(name)
        for bound in (1, 3):
            for _ in range(6):
                c = dual_cdga(PBWDeformation(
                    cert, *random_nu_theta(rng, cert, -bound, bound)))
                drawn.append(_agrees_with_the_full_loops(c))
                corrupted.append(_agrees_with_the_full_loops(
                    _corrupted(c, rng)))
    for name, gldim in (("deformed_qp_noncy", 2), ("quantum_weyl", 2),
                        ("heisenberg", 3)):
        big = cdg_trivial_extension(dual_cdga(_corpus_defm(name, gldim)))
        assert _agrees_with_the_full_loops(big), name
        corrupted += [_agrees_with_the_full_loops(_corrupted(big, rng))
                      for _ in range(2)]
    # the flat structure on a model whose module copy is not generated in
    # degree one, so that S reaches above degree one
    for name in ("kxy", "poly3", "quantum3"):
        flat = _flat(zero_action_model(cert_of(name)))
        assert any(flat.algebra.generators[2:]), name
        assert _agrees_with_the_full_loops(flat), name
        corrupted += [_agrees_with_the_full_loops(_corrupted(flat, rng))
                      for _ in range(4)]
    assert len(drawn) == 84 and 0 < drawn.count(False) < 84
    assert len(corrupted) == 102 and corrupted.count(False) > 0


def _monomial_algebra():
    """k<x, t>/(t x, t t, x x x) with x of degree 1 and t of degree 2: the
    basis 1; x; x x, t; x t; x x t, and t a generator above degree one."""
    dims = (1, 1, 2, 1, 1)
    cells = {(0, j): (tuple(((b, 1),) for b in range(m)),)
             for j, m in enumerate(dims)}
    cells.update({(j, 0): tuple((((a, 1),),) for a in range(m))
                  for j, m in enumerate(dims)})
    cells.update({(1, 1): ((((0, 1),),),),
                  (1, 2): (((), ((0, 1),)),),
                  (2, 1): (((),), ((),)),
                  (1, 3): ((((0, 1),),),),
                  (3, 1): (((),),),
                  (2, 2): (((), ((0, 1),)), ((), ()))})
    return GradedFDAlgebra(dims, cells, 1)


def test_the_generator_check_reaches_generators_above_degree_one():
    alg = _monomial_algebra()
    assert alg.generators == ((), (0,), (1,), (), ())
    flat = _flat(alg)
    assert _agrees_with_the_full_loops(flat)
    # delta(t) = x t breaks Leibniz at (x, t) only: x delta(t) = x x t,
    # while delta(x t) = 0 and delta(x) = 0; t x = 0, so no pair with
    # the degree-one generator sees it
    delta2 = Matrix.from_rows([[0, 1]], 2)
    moved = Cdga(alg, flat.delta[:2] + (delta2,) + flat.delta[3:],
                 flat.curvature)
    assert not _agrees_with_the_full_loops(moved)
    assert check_cdga_axioms(moved).leibniz_failures == ((1, 2, 0, 1),)
    # a differential that moves the unit fails at the pair of the unit
    # with itself, and the full loops refute it too
    for c in (flat, dual_cdga(_corpus_defm("heisenberg", 3))):
        delta0 = Matrix.from_rows([[1]] + [[0]] * (c.algebra.dims[1] - 1), 1)
        unit = Cdga(c.algebra, (delta0,) + c.delta[1:], c.curvature)
        rep = check_cdga_axioms(unit)
        leibniz = oracle_cdga_axioms(unit)[0]
        gens = c.algebra.generators
        assert not rep.passed and (0, 0, 0, 0) in leibniz
        assert rep.leibniz_failures == ((0, 0, 0, 0),) + tuple(
            f for f in leibniz if f[3] in gens[f[1]])


def _potential_samples(count, seed):
    """(certificate, rows, nu, theta) of each seeded potential deformation
    (helpers.potential_deformation) whose D(w) is certified: three
    independent rows on three letters, regular of dimension 3."""
    rng = seeded(seed)
    out = []
    for _ in range(count):
        names, rows, nu, theta = potential_deformation(rng)
        space = Subspace.from_spanning(rows, 9)
        if space.dim != 3:
            continue
        try:
            cert = as_regular_certificate(QuadraticAlgebra(names, space), 5)
        except NotRegular:
            continue
        assert cert.gldim == 3
        out.append((cert, rows, nu, theta))
    return out


def test_potential_deformations_pass_and_are_calabi_yau():
    # D(w + w_2 + w_1) is a PBW deformation of the 3-Calabi-Yau D(w) for
    # a cyclic w and a symmetric w_2 (Berger-Taillefer 2007): the curved
    # axioms hold and the deformed criterion says Calabi-Yau
    samples = _potential_samples(24, 1307)
    assert len(samples) >= 20
    for cert, rows, nu, theta in samples:
        defm = PBWDeformation(cert, rows, nu, theta)
        assert _agrees_with_the_full_loops(defm.cdga)
        assert defm.cy_report.is_CY


def test_potential_controls_agree_with_the_full_loops():
    # an antisymmetric w_2, and random (nu, theta), on the same certified
    # D(w): the generator check and the full loops agree on every control,
    # and they refute some
    rng = Random(1309)
    verdicts = []
    for cert, rows, _, _ in _potential_samples(12, 1308):
        _, _, nu, theta = potential_deformation(rng, symmetric=False)
        verdicts.append(_agrees_with_the_full_loops(
            dual_cdga(PBWDeformation(cert, rows, nu, theta))))
        verdicts.append(_agrees_with_the_full_loops(dual_cdga(
            PBWDeformation(cert, *random_nu_theta(rng, cert)))))
    assert len(verdicts) >= 20 and verdicts.count(False) > 0
