import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcnet.config import RunConfig
from svcnet.corpus import SoundId, generate_corpus, load_corpus, save_corpus
from svcnet.errors import DataError, StructuralError
from svcnet.fileio import read_arrays, str_list, write_arrays
from svcnet.nets import LayerSpec, init_network, load_model, save_model
from svcnet.recognizer import init_recognizer, load_recognizer, save_recognizer
from svcnet.svc import SoundLayout, build_svcnet, load_svcnet, save_svcnet


def both(fields, arrays):
    return fields, arrays


class TestArrays:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        arrays = {"m": rng.normal(size=(3, 2)), "v": np.array([0.1, -1e-300, 7.0])}
        path = tmp_path / "a.txt"
        write_arrays(path, "thing", {"n": 4, "names": ("a", "b")}, arrays)
        fields, back = read_arrays(path, "thing", {"n": int, "names": str_list}, both)
        assert fields == {"n": 4, "names": ("a", "b")}
        assert list(back) == ["m", "v"]
        for name in arrays:
            assert back[name].shape == arrays[name].shape
            assert np.array_equal(back[name], arrays[name])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "not an svcnet-thing v2 file"),
            ("svcnet-thing v1 n=1\n", "not an svcnet-thing v2 file"),
            ("svcnet-other v2 n=1\n", "not an svcnet-thing v2 file"),
            ("svcnet-thing v2\n", "needs a valid n= field"),
            ("svcnet-thing v2 n=x\n", "needs a valid n= field"),
            ("svcnet-thing v2 n=1\nv\n1.0\n", "bad array header"),
            ("svcnet-thing v2 n=1\nv 0\n\n", "bad array header"),
            ("svcnet-thing v2 n=1\nv 1 1 1\n1.0\n", "bad array header"),
            ("svcnet-thing v2 n=1\nv x\n1.0\n", "bad array header"),
            ("svcnet-thing v2 n=1\nv 1\n1.0\nv 1\n2.0\n", "bad array header"),
            ("svcnet-thing v2 n=1\n\n", "bad array header"),
            ("svcnet-thing v2 n=1\nm 1000000000000 2\n1.0 2.0\n", "truncated"),
            ("svcnet-thing v2 n=1\nm 2 2\n1.0 2.0\n3.0\n", "not of shape"),
            ("svcnet-thing v2 n=1\nv 2\n1.0 x\n", "could not convert"),
            ("svcnet-thing v2 n=1\nm 2 2\n1.0 2.0\n3.0 y\n", "line 4: m: could not convert"),
            ("svcnet-thing v2 n=1\nv 2\n1.0 nan\n", "non-finite"),
            ("svcnet-thing v2 n=1\nv 2\n1.0 -inf\n", "non-finite"),
        ],
    )
    def test_malformed_file_names_path(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(StructuralError, match=f"bad.txt.*{message}"):
            read_arrays(path, "thing", {"n": int}, both)

    @pytest.mark.parametrize("value", ["a b", ("a b", "c"), ("c,d",), "x=y", "t\tab"])
    def test_header_value_that_would_split_is_refused(self, tmp_path, value):
        path = tmp_path / "a.txt"
        with pytest.raises(DataError, match="a.txt: n value .* has whitespace"):
            write_arrays(path, "thing", {"n": value}, {"v": np.ones(1)})
        assert not path.exists()

    def test_recognizer_word_with_space_is_refused_at_save(self, tmp_path):
        net = init_recognizer(("a b", "c,d"), 2, TINY_RECOGNIZER)
        with pytest.raises(DataError, match="'a b'"):
            save_recognizer(net, tmp_path / "recognizer.txt")
        assert not (tmp_path / "recognizer.txt").exists()

    def test_undecodable_byte_is_a_data_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"svcnet-thing v2 n=1\nv 1\n1.\xff\n")
        with pytest.raises(DataError, match="bad.txt"):
            read_arrays(path, "thing", {"n": int}, both)


def tiny_encoder():
    return init_network(LayerSpec((3, 2, 3), ("sigmoid", "linear")), seed=1)


def tiny_completion_net():
    sounds = (SoundId("a", 0), SoundId("b", 1))
    return build_svcnet(SoundLayout(sounds, 2), 1, 2, seed=2)


TINY_RECOGNIZER = RunConfig(svc_dim=1, rec_acoustic_units=2, rec_state_units=2, rec_window=1,
                            rec_seed=3)


def tiny_recognizer():
    return init_recognizer(("w0", "w1"), 2, TINY_RECOGNIZER)


def tiny_corpus():
    config = RunConfig(
        n_speakers=2, n_words=2, phones_per_word=1, states_per_phone=1,
        frames_per_state=1, feature_dim=2, corpus_seed=4,
    )
    return generate_corpus(config)[0]


KINDS = {  # kind: (make, save, load)
    "encoder": (tiny_encoder, save_model, load_model),
    "completion": (tiny_completion_net, save_svcnet, load_svcnet),
    "recognizer": (tiny_recognizer, save_recognizer, load_recognizer),
    "corpus": (tiny_corpus, save_corpus, load_corpus),
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The bytes of one tiny saved artifact per kind, and a scratch directory."""
    d = tmp_path_factory.mktemp("artifacts")
    for kind, (make, save, _) in KINDS.items():
        save(make(), d / kind)
    return {kind: (d / kind).read_bytes() for kind in KINDS}, d


@pytest.mark.parametrize("kind", KINDS)
def test_save_load_save_is_byte_identical(saved, kind, tmp_path):
    originals, d = saved
    _, save, load = KINDS[kind]
    save(load(d / kind), tmp_path / kind)
    assert (tmp_path / kind).read_bytes() == originals[kind]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncated_or_flipped_artifact_fails_cleanly(saved, kind, data):
    """A cut and a flipped byte anywhere either load or raise a StructuralError
    or DataError, never another exception."""
    originals, d = saved
    original = originals[kind]
    broken = bytearray(original[: data.draw(st.integers(0, len(original)), label="cut")])
    if broken:
        at = data.draw(st.integers(0, len(broken) - 1), label="at")
        broken[at] ^= data.draw(st.integers(1, 255), label="xor")
    path = d / f"broken-{kind}"
    path.write_bytes(bytes(broken))
    try:
        KINDS[kind][2](path)
    except (StructuralError, DataError):
        pass
