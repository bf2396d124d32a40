"""Tests for exact finite-field constructions and their certificates."""

import numpy as np
import pytest

from fatflat.arith import (
    EVEN_MINUS,
    EVEN_PLUS,
    ODD_DIM,
    FqMatrix,
    QuadExtElement,
    assemble_holonomy_element,
    charpoly_int,
    charpoly_mod,
    charpoly_reduction_check,
    element_order,
    find_generator,
    form_anisotropic,
    form_even_minus,
    form_even_plus,
    form_hyperbolic_plane,
    form_odd_dim,
    is_prime,
    norm_one_generator,
    prime_factors,
    smallest_nonresidue,
    so_block_element,
)

TESTED_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def quad_ext_order(x, bound):
    """Oracle: the least s <= bound with x^s = 1, by repeated
    multiplication."""
    acc = x
    for s in range(1, bound + 1):
        if acc.is_one:
            return s
        acc = acc * x
    return None


def multiplicative_order(g, q):
    acc = g % q
    for s in range(1, q):
        if acc == 1:
            return s
        acc = acc * g % q
    raise AssertionError(f"{g} generates nothing mod {q}")


def poly_product_mod(factors, q):
    """Multiply little-endian polynomials with plain integer convolution."""
    out = [1]
    for factor in factors:
        new = [0] * (len(out) + len(factor) - 1)
        for i, c in enumerate(out):
            for j, d in enumerate(factor):
                new[i + j] = (new[i + j] + c * d) % q
        out = new
    return out


class TestPrimality:
    def test_small_primes_and_composites(self):
        primes = {2, 3, 5, 7, 11, 13, 97, 1000003}
        composites = {0, 1, 4, 9, 15, 1000001, -7}
        assert all(is_prime(p) for p in primes)
        assert not any(is_prime(c) for c in composites)

    def test_prime_factors_are_distinct_and_complete(self):
        assert prime_factors(12) == [2, 3]
        assert prime_factors(13) == [13]
        assert prime_factors(360) == [2, 3, 5]
        for n in (2, 30, 128, 9973, 360360):
            factors = prime_factors(n)
            assert all(is_prime(f) for f in factors)
            assert len(set(factors)) == len(factors)
            remaining = n
            for f in factors:
                while remaining % f == 0:
                    remaining //= f
            assert remaining == 1


class TestSmallestNonresidue:
    @pytest.mark.parametrize("q,expected", [(3, 2), (5, 2), (7, 3), (13, 2)])
    def test_known_values(self, q, expected):
        assert smallest_nonresidue(q) == expected

    @pytest.mark.parametrize("q", TESTED_PRIMES)
    def test_agrees_with_exhaustive_square_table(self, q):
        squares = {x * x % q for x in range(1, q)}
        expected = min(a for a in range(2, q) if a not in squares)
        assert smallest_nonresidue(q) == expected


class TestFindGenerator:
    @pytest.mark.parametrize("q,expected", [(5, 2), (13, 2), (7, 3)])
    def test_known_generators(self, q, expected):
        assert find_generator(q) == expected

    @pytest.mark.parametrize("q", TESTED_PRIMES)
    def test_order_is_group_size_and_choice_is_smallest(self, q):
        g = find_generator(q)
        assert multiplicative_order(g, q) == q - 1
        for smaller in range(2, g):
            assert multiplicative_order(smaller, q) < q - 1

    @pytest.mark.parametrize("q", [1, 2, 4, 9, 15])
    def test_invalid_modulus_rejected(self, q):
        with pytest.raises(ValueError):
            find_generator(q)

    def test_modulus_above_search_bound_rejected(self):
        assert is_prime(1000003)
        with pytest.raises(ValueError):
            find_generator(1000003)


class TestQuadExtension:
    def test_norm_one_generator_of_five(self):
        alpha, lam = norm_one_generator(5)
        assert alpha == 2
        assert (lam.a, lam.b) == (3, 3)
        assert lam.norm() == 1
        assert quad_ext_order(lam, 10) == 6

    def test_exhaustive_norm_one_subgroup_of_five(self):
        # All norm-1 elements of the 25-element extension, by brute force:
        # exactly q + 1 = 6 of them, and the module's pick attains the
        # maximal order 6.
        elements = [QuadExtElement(a, b, 2, 5)
                    for a in range(5) for b in range(5)
                    if (a * a - 2 * b * b) % 5 == 1]
        assert len(elements) == 6
        orders = {(x.a, x.b): quad_ext_order(x, 12) for x in elements}
        assert max(orders.values()) == 6
        assert orders[(3, 3)] == 6

    def test_norm_one_generator_of_three(self):
        alpha, lam = norm_one_generator(3)
        assert alpha == 2
        assert lam.norm() == 1
        assert quad_ext_order(lam, 8) == 4

    @pytest.mark.parametrize("q", TESTED_PRIMES)
    def test_norm_one_generator_has_order_q_plus_one(self, q):
        _, lam = norm_one_generator(q)
        assert lam.norm() == 1
        assert not lam.is_one
        assert quad_ext_order(lam, q + 2) == q + 1

    def test_identity_has_norm_one_but_order_one(self):
        one = QuadExtElement(1, 0, 2, 5)
        assert one.norm() == 1
        assert quad_ext_order(one, 5) == 1

    def test_square_alpha_rejected(self):
        with pytest.raises(ValueError):
            QuadExtElement(1, 1, 4, 5)
        with pytest.raises(ValueError):
            QuadExtElement(5, 0, 2, 5)

    def test_norm_is_multiplicative(self):
        alpha = smallest_nonresidue(11)
        rng = np.random.default_rng(17)
        for _ in range(25):
            a, b, c, d = (int(v) for v in rng.integers(0, 11, size=4))
            x = QuadExtElement(a, b, alpha, 11)
            y = QuadExtElement(c, d, alpha, 11)
            assert (x * y).norm() == x.norm() * y.norm() % 11

    def test_inverse_and_negative_powers(self):
        _, lam = norm_one_generator(7)
        assert (lam * lam.inverse()).is_one
        assert (lam ** -3 * lam ** 3).is_one
        assert lam ** -1 == lam.inverse()

    def test_conjugate_gives_norm_as_product(self):
        _, lam = norm_one_generator(13)
        prod = lam * lam.conjugate()
        assert prod.b == 0
        assert prod.a == lam.norm()


class TestFqMatrix:
    def test_entries_reduced_and_frozen(self):
        m = FqMatrix([[7, -1], [5, 3]], 5)
        assert np.array_equal(m.entries, [[2, 4], [0, 3]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 9

    def test_matmul_and_identity(self):
        m = FqMatrix([[2, 1], [1, 1]], 5)
        ident = FqMatrix.identity(2, 5)
        assert m @ ident == m
        assert (m @ m).entries.tolist() == [[0, 3], [3, 2]]

    def test_determinant_from_charpoly(self):
        assert FqMatrix([[2, 0], [0, 7]], 13).det() == 1
        assert FqMatrix([[1, 1], [1, 1]], 5).det() == 0
        assert FqMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 1]], 7).det() == 6

    def test_shape_and_modulus_validation(self):
        with pytest.raises(ValueError):
            FqMatrix([[1, 2, 3], [4, 5, 6]], 5)
        with pytest.raises(ValueError):
            FqMatrix([[1]], 4)
        with pytest.raises(ValueError):
            FqMatrix([[1]], 5) @ FqMatrix([[1]], 7)


class TestForms:
    def test_hyperbolic_gram_is_antidiagonal(self):
        form = form_hyperbolic_plane(13)
        assert form.gram.entries.tolist() == [[0, 1], [1, 0]]

    def test_anisotropic_gram_avoids_isotropic_vectors(self):
        form = form_anisotropic(5)
        assert form.alpha == 2
        assert form.gram.entries.tolist() == [[1, 0], [0, 3]]
        # brute force: no nonzero (x, y) with x^2 + 3 y^2 = 0 mod 5
        zeros = [(x, y) for x in range(5) for y in range(5)
                 if (x * x + 3 * y * y) % 5 == 0]
        assert zeros == [(0, 0)]

    @pytest.mark.parametrize("q", TESTED_PRIMES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_assembled_grams_are_symmetric_nondegenerate(self, q, n):
        for form in (form_odd_dim(n, q), form_even_plus(n, q),
                     form_even_minus(n, q)):
            gram = form.gram
            assert gram == gram.transpose
            assert gram.det() != 0
        assert form_odd_dim(n, q).gram.size == 2 * n + 1
        assert form_even_plus(n, q).gram.size == 2 * n
        assert form_even_minus(n, q).gram.size == 2 * n

    def test_nonpositive_rank_rejected(self):
        for builder in (form_odd_dim, form_even_plus, form_even_minus):
            with pytest.raises(ValueError):
                builder(0, 5)


class TestSoBlockElement:
    def test_hyperbolic_block_of_thirteen(self):
        mat = so_block_element(form_hyperbolic_plane(13), 13)
        assert mat.entries.tolist() == [[2, 0], [0, 7]]
        assert element_order(mat) == 12

    def test_hyperbolic_block_of_three(self):
        mat = so_block_element(form_hyperbolic_plane(3), 3)
        assert mat.entries.tolist() == [[2, 0], [0, 2]]
        assert element_order(mat) == 2

    def test_anisotropic_block_of_five(self):
        mat = so_block_element(form_anisotropic(5), 5)
        assert mat.entries.tolist() == [[3, 1], [3, 3]]
        assert mat.det() == 1
        assert element_order(mat) == 6

    @pytest.mark.parametrize("q", TESTED_PRIMES)
    def test_blocks_preserve_forms_exactly_with_unit_det(self, q):
        for form in (form_hyperbolic_plane(q), form_anisotropic(q)):
            mat = so_block_element(form, q)
            assert (mat.transpose @ form.gram @ mat) == form.gram
            assert mat.det() == 1

    @pytest.mark.parametrize("q", TESTED_PRIMES)
    def test_block_orders_bracket_the_group_size(self, q):
        assert element_order(so_block_element(form_hyperbolic_plane(q),
                                              q)) == q - 1
        assert element_order(so_block_element(form_anisotropic(q),
                                              q)) == q + 1

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            so_block_element(form_odd_dim(1, 5), 5)
        with pytest.raises(ValueError):
            so_block_element(form_hyperbolic_plane(5), 7)


class TestElementOrder:
    def test_known_orders(self):
        assert element_order(FqMatrix([[2, 0], [0, 7]], 13)) == 12
        assert element_order(FqMatrix.identity(3, 5)) == 1
        assert element_order(FqMatrix([[3, 1], [3, 3]], 5)) == 6

    def test_bound_too_small_returns_none(self):
        # the companion matrix of the primitive cubic t^3 - t + 1 over
        # F_3 has order 3^3 - 1 = 26, past the bound q^2 = 9
        companion = FqMatrix([[0, 0, 2], [1, 0, 1], [0, 1, 0]], 3)
        assert element_order(companion) is None

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            element_order(FqMatrix([[1, 1], [1, 1]], 5))


class TestAssembleHolonomy:
    def test_odd_dim_two_over_five(self):
        mat, cert = assemble_holonomy_element(ODD_DIM, 2, 5)
        assert mat.size == 5
        assert cert.charpoly == (4, 1, 3, 2, 4, 1)
        assert dict(cert.linear_roots) == {2: 2, 3: 2, 1: 1}
        assert cert.quad_factor is None
        assert cert.verified
        # independent route: expand (t-2)^2 (t-3)^2 (t-1) by convolution
        oracle = poly_product_mod([[-2, 1]] * 2 + [[-3, 1]] * 2 + [[-1, 1]],
                                  5)
        assert list(cert.charpoly) == oracle

    def test_even_plus_one_over_seven(self):
        mat, cert = assemble_holonomy_element(EVEN_PLUS, 1, 7)
        assert mat.entries.tolist() == [[3, 0], [0, 5]]
        assert cert.charpoly == (1, 6, 1)
        assert cert.verified
        oracle = poly_product_mod([[-3, 1], [-5, 1]], 7)
        assert list(cert.charpoly) == oracle

    def test_even_minus_one_over_five(self):
        mat, cert = assemble_holonomy_element(EVEN_MINUS, 1, 5)
        assert mat.entries.tolist() == [[3, 1], [3, 3]]
        assert cert.charpoly == (1, 4, 1)
        assert cert.linear_roots == ()
        assert cert.quad_factor == (1, 4, 1)
        assert cert.verified
        # the quadratic factor is irreducible: its discriminant 4^2 - 4 = 12
        # reduces to 2, a non-residue mod 5
        assert pow(12 % 5, (5 - 1) // 2, 5) == 5 - 1

    def test_even_minus_roots_satisfy_quadratic_in_extension(self):
        _, cert = assemble_holonomy_element(EVEN_MINUS, 1, 5)
        c0, c1, c2 = cert.quad_factor
        for root in cert.quad_roots:
            value = root * root
            acc_a = (c2 * value.a + c1 * root.a + c0) % 5
            acc_b = (c2 * value.b + c1 * root.b) % 5
            assert (acc_a, acc_b) == (0, 0)
        lam, lam_inv = cert.quad_roots
        assert (lam * lam_inv).is_one

    @pytest.mark.parametrize("q", TESTED_PRIMES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("variant", [ODD_DIM, EVEN_PLUS, EVEN_MINUS])
    def test_assembly_certified_and_form_preserving(self, variant, n, q):
        mat, cert = assemble_holonomy_element(variant, n, q)
        assert cert.verified
        builder = {ODD_DIM: form_odd_dim, EVEN_PLUS: form_even_plus,
                   EVEN_MINUS: form_even_minus}[variant]
        form = builder(n, q)
        assert (mat.transpose @ form.gram @ mat) == form.gram
        assert mat.det() == 1
        expected_size = 2 * n + 1 if variant == ODD_DIM else 2 * n
        assert mat.size == expected_size
        assert len(cert.charpoly) == expected_size + 1
        factors = [[(-root) % q, 1]
                   for root, mult in cert.linear_roots for _ in range(mult)]
        if cert.quad_factor is not None:
            factors.append(list(cert.quad_factor))
        assert poly_product_mod(factors, q) == list(cert.charpoly)

    @pytest.mark.parametrize("q", TESTED_PRIMES)
    def test_assembled_orders_divide_group_exponents(self, q):
        odd, _ = assemble_holonomy_element(ODD_DIM, 1, q)
        assert element_order(odd) == q - 1
        minus, _ = assemble_holonomy_element(EVEN_MINUS, 1, q)
        assert element_order(minus) == q + 1

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            assemble_holonomy_element(ODD_DIM, 0, 5)
        with pytest.raises(ValueError):
            assemble_holonomy_element("Spherical", 1, 5)
        with pytest.raises(ValueError):
            assemble_holonomy_element(ODD_DIM, 1, 4)


class TestCharpolyRoutes:
    def test_integer_charpoly_of_known_matrix(self):
        assert charpoly_int([[2, 1], [1, 1]]) == [1, -3, 1]

    def test_identity_reduction_for_any_prime(self):
        for p in (2, 3, 5, 11):
            equal, ints, modp = charpoly_reduction_check(np.eye(3,
                                                                dtype=int), p)
            assert equal
            assert ints == [-1, 3, -3, 1]
            assert modp == [c % p for c in ints]

    def test_known_reduction_mod_five(self):
        equal, ints, modp = charpoly_reduction_check([[2, 1], [1, 1]], 5)
        assert equal
        assert ints == [1, -3, 1]
        assert modp == [1, 2, 1]

    def test_seeded_four_by_four_mod_eleven(self):
        rng = np.random.default_rng(3)
        matrix = rng.integers(-9, 10, size=(4, 4))
        equal, ints, modp = charpoly_reduction_check(matrix, 11)
        assert equal
        assert [c % 11 for c in ints] == modp

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_random_reductions_agree_for_each_prime(self, p):
        rng = np.random.default_rng(100 + p)
        for _ in range(50):
            size = int(rng.integers(1, 6))
            matrix = rng.integers(-9, 10, size=(size, size))
            equal, ints, modp = charpoly_reduction_check(matrix, p)
            assert equal, f"disagreement mod {p} for {matrix.tolist()}"
            assert len(ints) == size + 1
            assert ints[-1] == 1

    def test_integer_charpoly_matches_numpy_roots_route(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            size = int(rng.integers(1, 5))
            matrix = rng.integers(-5, 6, size=(size, size))
            ints = charpoly_int(matrix)
            via_numpy = [int(round(c)) for c in np.poly(matrix)][::-1]
            assert ints == via_numpy

    def test_monic_and_degree(self):
        coeffs = charpoly_mod([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 7)
        assert len(coeffs) == 4
        assert coeffs[-1] == 1
        assert all(0 <= c < 7 for c in coeffs)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            charpoly_reduction_check([[1, 2], [3, 4]], 4)
        with pytest.raises(ValueError):
            charpoly_reduction_check([[1, 2], [3, 4]], 1)
        with pytest.raises(ValueError):
            charpoly_int([[1, 2, 3], [4, 5, 6]])
