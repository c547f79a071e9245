"""Property suite: the model's Eq. (4) kernel is bit-identical to the reference.

The acceptance contract of the hot core: the model's one Eq. (4)
kernel, through the scalar accessors, the batched accessors and the
``DecisionCache``'s per-decision profile pass, must reproduce the
reference substrate (:class:`repro.oracle.ReferenceModel`, whose rows
come from the oracle's own :func:`repro.oracle.stacked_raw_profiles`)
*bit for bit* — not approximately — across the edge cases that could
plausibly break exact equality: zero-alpha rows (forced-zero masking),
single-slot grids (degenerate envelope), and overflowing ``inf``
prefactors (hopeless-MTBF configurations where ``exp`` saturates).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core.kernels import DecisionCache
from repro.core.state import TaskArrays
from repro.oracle import ReferenceModel
from repro.resilience import ExpectedTimeModel, ensure_alpha_vector
from repro.tasks import uniform_pack

# Modest spaces so every example builds in microseconds; pairs == 1
# gives a single-slot grid.
n_tasks = st.integers(min_value=1, max_value=5)
grid_pairs = st.integers(min_value=1, max_value=24)
mtbf_years = st.floats(min_value=1e-4, max_value=100.0)
seeds = st.integers(min_value=0, max_value=2**16)
alphas = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0))

#: A platform MTBF (~3 s) far below every task's checkpoint cost:
#: ``exp(lam R)`` overflows, so every grid's prefactor is ``inf``.
HOPELESS_MTBF_YEARS = 1e-7


def same_bits(a, b) -> bool:
    """Bit equality that also holds for matching ``nan`` slots."""
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def build_models(n, pairs, mtbf, seed):
    """One reference model plus one fused model, same pack."""
    pack = uniform_pack(n, m_inf=8_000.0, m_sup=20_000.0, seed=seed)
    cluster = Cluster.with_mtbf_years(2 * pairs, mtbf)
    reference = ReferenceModel(pack, cluster)
    return reference, ExpectedTimeModel(pack, cluster)


class TestBackendBitIdentity:
    @given(
        n=n_tasks, pairs=grid_pairs, mtbf=mtbf_years, seed=seeds,
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_profile_rows_bit_identical(self, n, pairs, mtbf, seed, data):
        reference, fast = build_models(n, pairs, mtbf, seed)
        alpha_t = [data.draw(alphas) for _ in range(n)]
        want = reference.profile_matrix(range(n), alpha_t)
        assert np.array_equal(fast.profile_matrix(range(n), alpha_t), want)
        # The scalar accessor rides the same rows.
        for i in range(n):
            assert np.array_equal(
                fast.profile(i, alpha_t[i]), reference.profile(i, alpha_t[i])
            )

    @given(
        n=n_tasks, pairs=grid_pairs, mtbf=mtbf_years, seed=seeds,
        alpha=alphas,
    )
    @settings(max_examples=40, deadline=None)
    def test_profile_batch_bit_identical(self, n, pairs, mtbf, seed, alpha):
        reference, fast = build_models(n, pairs, mtbf, seed)
        want = reference.profile_batch(range(n), alpha)
        assert np.array_equal(fast.profile_batch(range(n), alpha), want)

    @given(
        n=n_tasks, pairs=grid_pairs, mtbf=mtbf_years, seed=seeds,
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_profile_rows_into_bit_identical(self, n, pairs, mtbf, seed, data):
        # The scratch-filling accessor; the two models hold separate
        # grids, so each evaluates through its own kernel.
        reference, fast = build_models(n, pairs, mtbf, seed)
        alpha_t = np.array([data.draw(alphas) for _ in range(n)])
        width = reference.j_grid.size
        want = reference.profile_rows_into(
            list(range(n)), alpha_t, np.empty((n, width))
        )
        got = fast.profile_rows_into(
            list(range(n)), alpha_t, np.empty((n, width))
        )
        assert np.array_equal(got, want)

    @given(pairs=grid_pairs, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_zero_alpha_rows_exactly_zero(self, pairs, seed):
        # Zero remaining work costs exactly 0.0 on both paths, even
        # when the inf prefactor would otherwise produce inf * 0 = nan.
        for model in build_models(3, pairs, HOPELESS_MTBF_YEARS, seed):
            assert np.isinf(model.grid(0).prefactor).all()
            assert np.all(model.profile_matrix(range(3), [0.0] * 3) == 0.0)

    @given(n=n_tasks, pairs=grid_pairs, seed=seeds, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_overflow_inf_prefactor_bit_identical(self, n, pairs, seed, data):
        # A hopeless MTBF saturates exp(): the raw Eq. (4) rows contain
        # inf, and both paths must place the same infs in the same slots.
        reference, fast = build_models(n, pairs, HOPELESS_MTBF_YEARS, seed)
        alpha_t = [data.draw(st.floats(min_value=0.5, max_value=1.0))
                   for _ in range(n)]
        want = reference.profile_matrix(range(n), alpha_t)
        assert np.isinf(want).any()
        assert same_bits(fast.profile_matrix(range(n), alpha_t), want)


class TestScalarPathBitIdentity:
    """``profile``, ``raw_profile`` and ``expected_time`` evaluate one
    grid's own block; the reference stacks per call."""

    @staticmethod
    def _assert_scalar_paths_agree(reference, fast, i, alpha):
        assert same_bits(fast.raw_profile(i, alpha),
                         reference.raw_profile(i, alpha))
        assert same_bits(fast.profile(i, alpha), reference.profile(i, alpha))
        for j in fast.j_grid.astype(int).tolist():
            assert same_bits(
                fast.expected_time(i, j, alpha),
                reference.expected_time(i, j, alpha),
            ), (i, j, alpha)

    @given(
        n=n_tasks, pairs=grid_pairs, mtbf=mtbf_years, seed=seeds,
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_accessors_bit_identical(self, n, pairs, mtbf, seed, data):
        reference, fast = build_models(n, pairs, mtbf, seed)
        for i in range(n):
            self._assert_scalar_paths_agree(reference, fast, i, data.draw(alphas))
        self._assert_scalar_paths_agree(reference, fast, 0, 0.0)
        assert np.all(fast.raw_profile(0, 0.0) == 0.0)

    @given(n=n_tasks, pairs=grid_pairs, seed=seeds, data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_overflow_inf_prefactor_scalar_bit_identical(
        self, n, pairs, seed, data
    ):
        # Every prefactor is inf; alpha 0 must still cost exactly 0.0
        # (not inf * 0 = nan) on both paths.
        reference, fast = build_models(n, pairs, HOPELESS_MTBF_YEARS, seed)
        for i in range(n):
            assert np.isinf(fast.grid(i).prefactor).all()
            alpha = data.draw(st.floats(min_value=0.5, max_value=1.0))
            self._assert_scalar_paths_agree(reference, fast, i, alpha)
            self._assert_scalar_paths_agree(reference, fast, i, 0.0)
        assert np.isinf(fast.raw_profile(0, 1.0)).all()
        assert np.all(fast.raw_profile(0, 0.0) == 0.0)


class TestDecisionCacheProfileDeltas:
    @given(
        n=st.integers(min_value=1, max_value=5), pairs=grid_pairs,
        mtbf=mtbf_years, seed=seeds, data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_successive_passes_bit_identical_to_reference(
        self, n, pairs, mtbf, seed, data
    ):
        # Two successive _profile_rows passes with slightly moved alphas
        # into the same workspace: the second must equal the reference
        # substrate evaluated from scratch at the same alphas, whatever
        # the first pass left behind.
        reference, fast = build_models(n, pairs, mtbf, seed)
        cache = DecisionCache(fast, TaskArrays(n))
        sub = np.arange(n)
        first = np.array([data.draw(alphas) for _ in range(n)])
        second = first * (1.0 - 1e-9)
        cache._alpha_t[:n] = first
        cache._profile_rows(sub, n)
        cache._alpha_t[:n] = second
        got = cache._profile_rows(sub, n)
        want = reference.profile_matrix(range(n), second)
        assert np.array_equal(got, want)


class TestReferenceModel:
    def test_sharing_keeps_the_values(self):
        # ReferenceSimulator reads a handed fast model through
        # ReferenceModel.sharing: both share the grids' envelope stores,
        # and both must keep serving the reference bits.
        reference, fast = build_models(3, 8, 0.02, 0)
        want = reference.profile_matrix(range(3), [0.9, 0.4, 0.1])
        fast.profile_matrix(range(3), [0.3, 0.2, 0.1])  # warm the backend
        shared = ReferenceModel.sharing(fast)
        assert type(fast) is ExpectedTimeModel
        assert np.array_equal(
            shared.profile_matrix(range(3), [0.9, 0.4, 0.1]), want
        )
        assert np.array_equal(
            fast.profile_batch(range(3), 0.55),
            reference.profile_batch(range(3), 0.55),
        )
        assert shared.grid(0) is fast.grid(0)
        assert np.array_equal(shared.j_grid, fast.j_grid)


class TestAlphaBoundaryValidation:
    @given(n=n_tasks, pairs=grid_pairs, mtbf=mtbf_years, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_nonconforming_alphas_converted_once(self, n, pairs, mtbf, seed):
        # The cache-boundary fix: float32 / non-contiguous alphas are
        # normalised by ensure_alpha_vector at the accessor boundary and
        # produce the same bits as a conforming float64 vector.
        reference, fast = build_models(n, pairs, mtbf, seed)
        base = np.linspace(0.0, 1.0, 2 * n)
        strided = base[::2]              # non-contiguous view
        f32 = strided.astype(np.float32)  # wrong dtype
        want = reference.profile_matrix(range(n), np.ascontiguousarray(strided))
        for model in (reference, fast):
            assert np.array_equal(model.profile_matrix(range(n), strided), want)
        # float32 loses bits, so compare against the float64 promotion
        # of the same values — conversion happens once, at the boundary.
        promoted = ensure_alpha_vector(f32, n)
        assert promoted.dtype == np.float64
        assert promoted.flags["C_CONTIGUOUS"]
        want32 = reference.profile_matrix(range(n), promoted)
        assert np.array_equal(fast.profile_matrix(range(n), f32), want32)
