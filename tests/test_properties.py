"""Property tests: autodiff ops and the blocked walk losses against finite differences, and the two binary formats.

Every op is checked on plain matrices and on stacks with a leading batch
axis of 1 to 3, including a 2-D parameter broadcast against a stack.

Examples are derandomized and the database is off, so every run checks
the same examples and the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotwalks import autodiff as ad
from slotwalks.data import Scene, read_feature_file, write_feature_file
from slotwalks.errors import DataFormatError
from slotwalks.train import OptimState, TrainConfig, _init_model, _named_parameters, load_checkpoint, save_checkpoint
from slotwalks.walks import adjacency, pwp_loss, wpw_loss

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

# the project's gradient-check gate
GRAD_TOL = 1e-3

sizes = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
# leading batch axes: none (a plain matrix) or one axis of 1 to 3 scenes
leads = st.sampled_from([(), (1,), (2,), (3,)])


def _weighted(out, rng):
    """A scalar loss that weights every entry of out differently."""
    return ad.sum_all(ad.mul(out, ad.constant(rng.normal(size=out.value.shape))))


def _fd_worst(make_loss, params) -> float:
    return max(ad.check_gradients(make_loss, params).values())


# op name -> its output, from the nodes
UNARY_OPS = {
    "transpose": lambda n: ad.transpose(n["a"]),
    "exp": lambda n: ad.exp(n["a"]),
    "sigmoid": lambda n: ad.sigmoid(n["a"]),
    "tanh": lambda n: ad.tanh(n["a"]),
    "sum_all": lambda n: ad.sum_all(n["a"]),
    "softmax_rows": lambda n: ad.softmax_rows(n["a"], 0.7),
    "l2_normalize_rows": lambda n: ad.l2_normalize_rows(n["a"]),
}


@PROPERTY
@given(op=st.sampled_from(sorted(UNARY_OPS)), lead=leads, rows=sizes, cols=sizes, seed=seeds)
def test_unary_ops_match_finite_differences(op, lead, rows, cols, seed):
    rng = np.random.default_rng(seed)
    shape = lead + (rows, cols)
    # entries in +-[0.5, 2] keep every row norm well away from zero
    a = rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.5, 2.0, size=shape)

    def make_loss(nodes):
        return _weighted(UNARY_OPS[op](nodes), np.random.default_rng(seed))

    assert _fd_worst(make_loss, {"a": a}) <= GRAD_TOL


@PROPERTY
@given(m=sizes, k=sizes, n=sizes, lead=leads, matrix=st.sampled_from(["neither", "a", "b"]), seed=seeds)
def test_matmul_matches_finite_differences(m, k, n, lead, matrix, seed):
    rng = np.random.default_rng(seed)
    # `matrix` names the factor that stays 2-D and is shared by the stack
    a_lead = () if matrix == "a" else lead
    b_lead = () if matrix == "b" else lead
    params = {"a": rng.normal(size=a_lead + (m, k)), "b": rng.normal(size=b_lead + (k, n))}

    def make_loss(nodes):
        return _weighted(ad.matmul(nodes["a"], nodes["b"]), np.random.default_rng(seed))

    assert _fd_worst(make_loss, params) <= GRAD_TOL


@PROPERTY
@given(
    op=st.sampled_from(["add", "mul", "div"]),
    other=st.sampled_from(["same", "matrix", "row", "1x1", "number"]),
    other_first=st.booleans(),
    lead=leads,
    rows=sizes,
    cols=sizes,
    seed=seeds,
)
def test_broadcast_ops_match_finite_differences(op, other, other_first, lead, rows, cols, seed):
    rng = np.random.default_rng(seed)
    fn = getattr(ad, op)
    # operands in [0.5, 2] keep div away from a zero denominator
    params = {"m": rng.uniform(0.5, 2.0, size=lead + (rows, cols))}
    # "matrix" is a 2-D operand, shared by every matrix of a stack
    shape = {"same": lead + (rows, cols), "matrix": (rows, cols), "row": (1, cols), "1x1": (1, 1)}.get(other)
    if shape is not None:
        params["s"] = rng.uniform(0.5, 2.0, size=shape)
    number = float(rng.uniform(0.5, 2.0))

    def make_loss(nodes):
        s = nodes["s"] if shape is not None else number
        out = fn(s, nodes["m"]) if other_first else fn(nodes["m"], s)
        return _weighted(out, np.random.default_rng(seed))

    assert _fd_worst(make_loss, params) <= GRAD_TOL


@PROPERTY
@given(lead=leads, rows=sizes, cols=st.integers(min_value=2, max_value=5), seed=seeds)
def test_layer_norm_matches_finite_differences(lead, rows, cols, seed):
    rng = np.random.default_rng(seed)
    # a spread of at least 1 within each row keeps the variance away from eps;
    # the 1 x cols gain and bias are shared by every matrix of a stack
    m = rng.normal(size=lead + (rows, cols)) + np.linspace(-1.0, 1.0, cols)
    params = {"m": m, "gain": rng.normal(size=(1, cols)), "bias": rng.normal(size=(1, cols))}

    def make_loss(nodes):
        out = ad.add(ad.layer_norm_rows(nodes["m"], nodes["gain"]), nodes["bias"])
        return _weighted(out, np.random.default_rng(seed))

    assert _fd_worst(make_loss, params) <= GRAD_TOL


@PROPERTY
@given(
    loss=st.sampled_from(["wpw", "pwp"]),
    lead=leads,
    n=st.integers(min_value=1, max_value=70),
    k=sizes,
    gamma=st.sampled_from([float("-inf"), 0.3, 0.95]),
    seed=seeds,
)
def test_blocked_pwp_loss_matches_finite_differences(loss, lead, n, k, gamma, seed):
    # the round trip has N rows, from 1 to 70, which puts the last row
    # block anywhere from full to one row: wpw's rows are the slots, pwp's
    # the features. pwp's target comes from features that are not
    # parameters, so the finite differences see it held fixed, as the
    # graph does; gamma runs from every cell kept to few beside the diagonal
    rng = np.random.default_rng(seed)
    slots, feats = (n, k) if loss == "wpw" else (k, n)
    params = {"s": rng.normal(size=lead + (slots, 2)), "x": rng.normal(size=lead + (feats, 2))}
    target_feats = rng.normal(size=lead + (feats, 2))

    def make_loss(nodes):
        m_sx, m_xs, _ = adjacency(nodes["s"], nodes["x"], 0.5)
        if loss == "wpw":
            return wpw_loss(m_sx, m_xs)
        return pwp_loss(m_sx, m_xs, target_feats, gamma)

    assert _fd_worst(make_loss, params) <= GRAD_TOL


def _feature_file_bytes(tmp) -> bytes:
    rng = np.random.default_rng(0)
    scene = Scene(features=rng.normal(size=(6, 3)), labels=rng.integers(0, 3, size=6))
    write_feature_file(tmp / "scene.ocwf", scene)
    return (tmp / "scene.ocwf").read_bytes()


def _checkpoint_bytes(tmp) -> bytes:
    cfg = TrainConfig(num_slots=1, input_dim=2, slot_dim=2, walk_dim=1, total_steps=1, warmup_steps=0)
    params, proj = _init_model(cfg)
    opt = OptimState.for_params(_named_parameters(params, proj))
    save_checkpoint(tmp / "model.ocwc", params, proj, opt, 1, cfg)
    return (tmp / "model.ocwc").read_bytes()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """kind -> (valid bytes, reader, directory for damaged copies)."""
    tmp = tmp_path_factory.mktemp("artifacts")
    return {
        "ocwf": (_feature_file_bytes(tmp), read_feature_file, tmp),
        "ocwc": (_checkpoint_bytes(tmp), load_checkpoint, tmp),
    }


def _read_damaged(artifacts, kind, data):
    _, reader, tmp = artifacts[kind]
    path = tmp / f"damaged.{kind}"
    path.write_bytes(data)
    return reader(path)


@pytest.mark.parametrize("kind", ["ocwf", "ocwc"])
@PROPERTY
@given(data=st.data())
def test_every_truncation_is_a_format_error(artifacts, kind, data):
    raw = artifacts[kind][0]
    cut = data.draw(st.integers(0, len(raw) - 1), label="kept bytes")
    with pytest.raises(DataFormatError):
        _read_damaged(artifacts, kind, raw[:cut])


@pytest.mark.parametrize("kind", ["ocwf", "ocwc"])
@settings(PROPERTY, max_examples=300)
@given(data=st.data(), byte=st.integers(0, 255))
def test_every_byte_overwrite_loads_or_is_a_format_error(artifacts, kind, data, byte):
    raw = bytearray(artifacts[kind][0])
    raw[data.draw(st.integers(0, len(raw) - 1), label="offset")] = byte
    try:
        _read_damaged(artifacts, kind, bytes(raw))
    except DataFormatError:
        pass


@settings(PROPERTY, max_examples=300)
@given(data=st.data())
def test_every_byte_change_to_a_checkpoint_is_a_format_error(artifacts, data):
    raw = bytearray(artifacts["ocwc"][0])
    offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
    raw[offset] = (raw[offset] + data.draw(st.integers(1, 255), label="change")) % 256
    with pytest.raises(DataFormatError):
        _read_damaged(artifacts, "ocwc", bytes(raw))
