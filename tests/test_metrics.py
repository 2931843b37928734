"""Tests for overlap metrics, adjusted Rand index, matching, and k-means."""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from slotwalks.errors import ConfigError, DegenerateInputError, ShapeError, UndefinedMetricError
from slotwalks.metrics import EvalReport, ari_fg, assign_classes, dice, kmeans, miou


def ari_pair_oracle(a, b):
    """Brute-force O(N^2) pair counting."""
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a, same_b = a[i] == a[j], b[i] == b[j]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return 2.0 * (n11 * n00 - n10 * n01) / den


class TestOverlapMetrics:
    def test_identical_masks(self):
        m = np.array([1, 0, 1, 1], bool)
        assert miou(m, m) == 1.0
        assert dice(m, m) == 1.0

    def test_disjoint_masks(self):
        a = np.array([1, 1, 0, 0], bool)
        b = np.array([0, 0, 1, 1], bool)
        assert miou(a, b) == 0.0
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        gt = np.array([1, 1, 1, 1, 0, 0], bool)
        pred = np.array([1, 1, 0, 0, 0, 0], bool)
        assert miou(pred, gt) == 0.5

    def test_both_empty_is_one(self):
        z = np.zeros(5, bool)
        assert miou(z, z) == 1.0
        assert dice(z, z) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            miou(np.ones(3, bool), np.ones(4, bool))
        with pytest.raises(ShapeError):
            dice(np.ones(3, bool), np.ones(4, bool))

    def test_dice_miou_identity_and_ordering(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            a = rng.random(n) < 0.5
            b = rng.random(n) < 0.5
            m, d = miou(a, b), dice(a, b)
            assert abs(d - 2.0 * m / (1.0 + m)) <= 1e-12
            assert 0.0 <= m <= d <= 1.0


class TestAriFg:
    def test_equal_partitions(self):
        labels = np.array([0, 0, 1, 1, 2])
        fg = np.ones(5, bool)
        assert ari_fg(labels, labels, fg) == 1.0

    def test_relabeled_partitions(self):
        gt = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([5, 5, 9, 9, 1, 1])
        assert ari_fg(pred, gt, np.ones(6, bool)) == 1.0

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pred = rng.integers(0, 4, size=20)
            gt = rng.integers(0, 3, size=20)
            fg = rng.random(20) < 0.7
            if not fg.any():
                fg[0] = True
            got = ari_fg(pred, gt, fg)
            assert abs(got - ari_pair_oracle(pred[fg], gt[fg])) <= 1e-12

    def test_restricted_to_foreground(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 0, 1])
        fg = np.array([True, False, False, True])
        # on the restricted cells both partitions are {0}, {1}: identical
        assert ari_fg(pred, gt, fg) == 1.0

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 5, size=30)
        gt = rng.integers(0, 4, size=30)
        fg = np.ones(30, bool)
        base = ari_fg(pred, gt, fg)
        relabel = {v: 10 - v for v in range(5)}
        pred2 = np.array([relabel[v] for v in pred])
        assert ari_fg(pred2, gt, fg) == base

    def test_empty_foreground(self):
        with pytest.raises(UndefinedMetricError):
            ari_fg(np.zeros(4), np.zeros(4), np.zeros(4, bool))


class TestAssignClasses:
    def test_identity_scores(self):
        assert assign_classes(np.eye(4)) == [(i, i) for i in range(4)]

    def test_permutation_scores(self):
        perm = np.zeros((3, 3))
        perm[0, 2] = perm[1, 0] = perm[2, 1] = 1.0
        assert assign_classes(perm) == [(0, 2), (1, 0), (2, 1)]

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            score = rng.random((5, 5))
            pairs = assign_classes(score)
            got = sum(score[r, c] for r, c in pairs)
            best = max(
                sum(score[i, p[i]] for i in range(5))
                for p in itertools.permutations(range(5))
            )
            assert abs(got - best) <= 1e-12

    def test_beats_greedy_row_wise(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            score = rng.random((4, 6))
            pairs = assign_classes(score)
            total = sum(score[r, c] for r, c in pairs)
            taken: set[int] = set()
            greedy = 0.0
            for r in range(4):
                free = [c for c in range(6) if c not in taken]
                c = max(free, key=lambda c: score[r, c])
                greedy += score[r, c]
                taken.add(c)
            assert total >= greedy - 1e-12

    def test_tie_break_low_row_then_low_col(self):
        score = np.ones((2, 2))
        assert assign_classes(score) == [(0, 0), (1, 1)]
        tall = np.ones((3, 1))
        assert assign_classes(tall) == [(0, 0)]
        wide = np.ones((1, 3))
        assert assign_classes(wide) == [(0, 0)]

    def test_rectangular_sizes(self):
        rng = np.random.default_rng(5)
        score = rng.random((2, 5))
        assert len(assign_classes(score)) == 2
        score = rng.random((6, 3))
        assert len(assign_classes(score)) == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_refused_naming_the_entry(self, bad):
        score = np.random.default_rng(6).random((3, 4))
        score[1, 2] = bad
        with pytest.raises(DegenerateInputError, match=r"score\[1, 2\] is .*not finite"):
            assign_classes(score)


def test_package_loads_no_scipy():
    # assign_classes imports scipy.optimize on use: it adds about 50 MB to a
    # process's peak RSS, and training never needs it
    code = "import sys, slotwalks.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


class TestKmeans:
    def test_k_equals_n(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(5, 3))
        centers, labels = kmeans(pts, 5, seed=0)
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert dists[np.arange(5), labels].sum() <= 1e-20

    def test_two_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 10.0], [10.2, 10.0]])
        centers, labels = kmeans(pts, 2, seed=1)
        got = {tuple(np.round(c, 6)) for c in centers}
        assert got == {(0.1, 0.0), (10.1, 10.0)}
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 4))
        c1, l1 = kmeans(pts, 4, seed=9)
        c2, l2 = kmeans(pts, 4, seed=9)
        assert np.array_equal(c1, c2) and np.array_equal(l1, l2)

    def test_distortion_non_increasing(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(60, 5))
        trace: list[float] = []
        kmeans(pts, 5, seed=2, distortion_trace=trace)
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_beats_random_assignment_baselines(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(30, 3))
        k = 3
        centers, labels = kmeans(pts, k, seed=3)
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        ours = dists[np.arange(30), labels].sum()
        for trial in range(100):
            rand_labels = np.random.default_rng(trial).integers(0, k, size=30)
            total = 0.0
            for j in range(k):
                members = pts[rand_labels == j]
                if len(members):
                    total += ((members - members.mean(axis=0)) ** 2).sum()
            assert ours <= total + 1e-9

    def test_k_larger_than_n(self):
        with pytest.raises(ConfigError):
            kmeans(np.ones((2, 2)), 3, seed=0)


class TestEvalReport:
    def test_text_table(self):
        report = EvalReport(task="fg", columns=["miou", "dice"])
        report.add("0000.ocwf", {"miou": 1.0, "dice": 1.0})
        report.add("0001.ocwf", {"miou": 0.5, "dice": 2 / 3})
        text = report.to_text()
        lines = text.strip().split("\n")
        assert lines[0] == "# task=fg"
        assert lines[1] == "item\tmiou\tdice"
        assert lines[-1].startswith("mean\t0.750000")
        assert abs(report.summary["miou"] - 0.75) <= 1e-12

    def test_summary_is_the_read_only_mean_of_the_rows(self):
        report = EvalReport(task="discovery", columns=["ari_fg"])
        report.add("a", {"ari_fg": 1.0})
        assert report.summary == {"ari_fg": 1.0}
        report.add("b", {"ari_fg": 0.0})
        assert report.summary == {"ari_fg": 0.5}
        with pytest.raises(AttributeError):
            report.summary = {"ari_fg": 1.0}
