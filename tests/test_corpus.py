"""Unit tests for corpus generation, views and file IO."""

import hashlib
import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coteach import (Batch, GenConfig, MatcherSpec, TrainConfig, coteach_train, corpus,
                     generate_synthetic_corpus, load_corpus, matcher, save_corpus,
                     select_model, strategies, validation_p_at_1)
from coteach.corpus import (Corpus, CorpusFormatError, PairwiseTriple, Triples,
                            atomic_open, write_csv)
from coteach.corpus import TestGroup as CandidateGroup
from coteach.matcher import init_params


class TestGenConfigValidation:
    def test_rejects_noise_rate_outside_unit_interval(self):
        with pytest.raises(ValueError):
            GenConfig(false_negative_rate=1.5)
        with pytest.raises(ValueError):
            GenConfig(false_negative_rate=-0.1)

    def test_rejects_vocab_too_small_for_topics(self):
        with pytest.raises(ValueError):
            GenConfig(vocab_size=10, n_topics=10)

    @pytest.mark.parametrize("rate", [0.3, 1.0])
    @pytest.mark.parametrize("n_topics", [1, 0])
    def test_rejects_fewer_than_two_topics(self, n_topics, rate):
        # With one topic a negative has no other topic to come from, so
        # generation would crash (rate < 1) or never end (rate 1).
        with pytest.raises(ValueError, match="^n_topics must be at least 2"):
            GenConfig(vocab_size=60, n_topics=n_topics, false_negative_rate=rate)

    @pytest.mark.parametrize("n_candidates", [1, 0])
    def test_rejects_fewer_than_two_candidates(self, n_candidates):
        # One candidate can never hold both labels, so generation would
        # redraw the first test group forever.
        with pytest.raises(ValueError, match="^n_candidates must be at least 2"):
            GenConfig(vocab_size=60, n_topics=3, n_candidates=n_candidates)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            GenConfig(n_train=0)

    def test_rejects_sizes_past_int64(self):
        # numpy's own errors for such sizes name no key.
        for name in ("vocab_size", "n_topics", "n_train", "n_valid", "n_test_contexts",
                     "n_candidates", "turns_per_context", "tokens_per_utterance"):
            with pytest.raises(ValueError, match=rf"^{name} must be below 2\*\*63$"):
                GenConfig(**{name: 2**63})
        GenConfig(vocab_size=2**63 - 1, tokens_per_utterance=2**60 - 1)

    def test_rejects_an_utterance_past_2_63_bytes(self):
        # numpy refuses an int64 array of 2**60 ids without naming the key.
        for size in (2**60, 2**62):
            with pytest.raises(ValueError, match=r"^tokens_per_utterance must be below 2\*\*60$"):
                GenConfig(tokens_per_utterance=size)

    def test_rejects_negative_seed(self):
        # numpy's generators refuse it too, but without naming the key.
        with pytest.raises(ValueError, match="^seed must be non-negative$"):
            GenConfig(seed=-1)
        GenConfig(seed=0)


class TestGeneration:
    def test_sizes_match_config(self, tiny_gen_config, tiny_corpus):
        assert len(tiny_corpus.train) == tiny_gen_config.n_train
        assert len(tiny_corpus.valid) == tiny_gen_config.n_valid
        assert len(tiny_corpus.test) == tiny_gen_config.n_test_contexts
        for group in tiny_corpus.test:
            assert len(group.candidates) == tiny_gen_config.n_candidates

    def test_same_seed_reproduces_corpus(self, tiny_gen_config):
        a = generate_synthetic_corpus(tiny_gen_config)
        b = generate_synthetic_corpus(tiny_gen_config)
        assert a == b

    @pytest.mark.parametrize("changes, expected", [
        ({}, "d577d7161dccce1d6751b848edc0016ac6b6b5fb86fabd3d9d0d9fd1279ff1dc"),
        # odd utterances, two topics (the other topic takes no draw) and
        # two candidates (most groups are drawn again)
        (dict(vocab_size=41, n_topics=2, n_candidates=2, tokens_per_utterance=3),
         "5832c56667e19d2daadb3ab8246f2a91727c8cdb2ae119e9c941d42342517056"),
        # a width of 2**31 + 1 rejects about half its draws
        (dict(vocab_size=3 * (2**31 + 1)),
         "8361dcd71835a8471c74fb56ef243c578b385757497887e8fb524d6518f59a52"),
        # a width of 2**40 draws whole words
        (dict(vocab_size=3 * 2**40),
         "065db8ab548847ecf984848341c0a5e238dc981fea628131aa2386e6168e2b72"),
        # 19-digit ids, one a field
        (dict(vocab_size=2**63 - 1, tokens_per_utterance=1),
         "a1e731df88386585d2271fd797a7db5bcb9fcb3307d23eccbb417d7ab95257b5"),
    ], ids=["tiny", "odd-k-2-topics-2-candidates", "width-2**31+1", "width-2**40",
            "vocab-2**63-1-one-token"])
    def test_saved_bytes_are_pinned(self, tiny_gen_config, tmp_path, changes, expected):
        # Generation draws one fixed RNG stream and saving formats it one
        # fixed way; a change to either changes every corpus on disk.
        save_corpus(generate_synthetic_corpus(replace(tiny_gen_config, **changes)), tmp_path)
        digest = hashlib.sha256()
        for name in ("train.txt", "valid.txt", "test.txt", "meta.json"):
            digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == expected

    def test_19_digit_ids_take_the_array_pass(self, tiny_gen_config, tmp_path, monkeypatch):
        # The pinned 2**63 - 1 corpus: its ids are up to 19 digits long.
        generated = generate_synthetic_corpus(
            replace(tiny_gen_config, vocab_size=2**63 - 1, tokens_per_utterance=1))
        save_corpus(generated, tmp_path)
        assert len(str(generated.test.pack.ids.max())) == 19

        def no_line_parser(*args):
            raise AssertionError("a canonical chunk went to the line parser")

        monkeypatch.setattr(corpus, "_parse_fields", no_line_parser)
        assert load_corpus(tmp_path) == generated

    def test_different_seed_changes_corpus(self, tiny_gen_config):
        other = generate_synthetic_corpus(replace(tiny_gen_config, seed=8))
        assert other != generate_synthetic_corpus(tiny_gen_config)

    def test_zero_noise_rate_marks_nothing(self, tiny_gen_config):
        corpus = generate_synthetic_corpus(
            replace(tiny_gen_config, false_negative_rate=0.0))
        assert all(t.noise_flag is False for t in corpus.train)
        assert all(t.noise_flag is False for t in corpus.valid)

    def test_full_noise_rate_marks_everything(self, tiny_gen_config):
        corpus = generate_synthetic_corpus(
            replace(tiny_gen_config, false_negative_rate=1.0))
        assert all(t.noise_flag is True for t in corpus.train)

    def test_noise_fraction_within_binomial_bound(self):
        rho, n = 0.3, 4000
        corpus = generate_synthetic_corpus(
            GenConfig(vocab_size=100, n_topics=5, n_train=n, n_valid=10,
                      n_test_contexts=5, false_negative_rate=rho, seed=3))
        fraction = sum(t.noise_flag for t in corpus.train) / n
        assert abs(fraction - rho) < 4 * math.sqrt(rho * (1 - rho) / n)

    def test_positive_differs_from_negative(self, tiny_corpus):
        for t in tiny_corpus.train:
            assert t.pos_response != t.neg_response

    def test_every_test_group_is_mixed(self, tiny_corpus):
        for group in tiny_corpus.test:
            labels = {label for _, label in group.candidates}
            assert labels == {0, 1}

    def test_token_ids_stay_inside_vocab(self, tiny_gen_config, tiny_corpus):
        vocab = tiny_gen_config.vocab_size
        for t in tiny_corpus.train[:20]:
            for utt in t.context:
                assert all(0 <= tok < vocab for tok in utt)
            assert all(0 <= tok < vocab for tok in t.pos_response)
            assert all(0 <= tok < vocab for tok in t.neg_response)


class TestPointwiseView:
    def test_empty(self):
        pack = Triples([]).pack
        assert pack.ids.size == pack.lengths.size == pack.n_ctx == 0

    def test_single_triple_yields_labels_one_zero(self):
        t = PairwiseTriple(((1, 2),), (3,), (4,))
        protocol = strategies.none_protocol(Triples([t]))
        packed, labels, _ = matcher._protocol_arrays(protocol, 5)
        assert labels.tolist() == [1, 0]
        assert packed.ids.tolist() == [1, 2, 1, 2, 3, 4]
        assert packed.lengths.tolist() == [2, 2, 1, 1]

    def test_labels_alternate(self):
        triples = [PairwiseTriple(((i,),), (i, 1), (i, 2)) for i in range(3)]
        protocol = strategies.none_protocol(Triples(triples))
        assert [e for e, _ in protocol.pointwise] == list(range(6))
        assert matcher._protocol_arrays(protocol, 5)[1].tolist() == [1, 0, 1, 0, 1, 0]

    def test_balanced_labels(self, tiny_corpus):
        labels = matcher._protocol_arrays(strategies.none_protocol(tiny_corpus.train), 60)[1]
        ones = int(labels.sum())
        assert ones == len(labels) - ones == len(tiny_corpus.train)


def _corpus_with(triple, vocab_size=10):
    good = PairwiseTriple(((1, 2),), (3,), (4,))
    return Corpus(train=(good, triple), valid=(good,), test=(), vocab_size=vocab_size)


class TestSplitPack:
    @pytest.mark.parametrize("triple,message", [
        (PairwiseTriple(((1, 10),), (3,), (4,)), "token ID out of range for vocab"),
        (PairwiseTriple(((1,),), (3,), (-1,)), "token ID out of range for vocab"),
        (PairwiseTriple(((1,), ()), (3,), (4,)), "empty utterance"),
        (PairwiseTriple(((1,),), (), (4,)), "empty response"),
        (PairwiseTriple(((1,),), (3,), ()), "empty response"),
        (PairwiseTriple((), (3,), (4,)), "dialogue has no context utterances"),
    ], ids=["past-vocab", "negative", "empty-utterance", "empty-positive",
            "empty-negative", "no-utterances"])
    def test_bad_triple_rejected_when_its_split_is_built(self, triple, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Triples([triple], vocab_size=10)
        with pytest.raises(ValueError, match=f"^{message}$"):
            _corpus_with(triple)
        _corpus_with(PairwiseTriple(((1,),), (3,), (4,)))  # a good triple is fine

    def test_each_split_is_packed_once(self, tiny_gen_config, monkeypatch):
        # Splits of given items pack when they are built; generated ones are
        # born packed, and no split packs again.
        generated = generate_synthetic_corpus(tiny_gen_config)
        calls = []
        real = corpus.pack_groups
        monkeypatch.setattr(corpus, "pack_groups", lambda *args: (
            calls.append(len(args[0])) or real(*args)))
        data = replace(generated, train=tuple(generated.train), valid=tuple(generated.valid))
        assert calls == [len(data.train), len(data.valid)]
        spec = MatcherSpec("mean-embedding-bilinear", vocab_size=60, embedding_dim=4)
        config = TrainConfig(strategy="margin", lam=0.5, batch_size=10, eval_every=4)
        model = init_params(spec, 0)
        for _ in range(2):
            for split_source in (data, generated):
                coteach_train(model, model, split_source, config)
                validation_p_at_1(model, split_source.valid)
        assert calls == [len(data.train), len(data.valid)]
        assert replace(data, seed=None).train.pack is data.train.pack

    def test_caller_built_groups_are_checked_on_every_call(self):
        model = init_params(MatcherSpec("interaction-mlp", vocab_size=10,
                                        embedding_dim=2, hidden_dim=2), 0)
        for _ in range(2):
            with pytest.raises(ValueError, match="token ID out of range"):
                matcher.scores(model, corpus.pack_groups([(((1,),), ((10,),))], 10))
            with pytest.raises(ValueError, match="empty response"):
                matcher.scores(model, corpus.pack_groups([(((1,),), ((),))], 10))


class TestModelVocab:
    SPLIT = Triples([PairwiseTriple(((1,),), (2,), (7,))] * 2, vocab_size=10)
    MODEL = init_params(MatcherSpec("mean-embedding-bilinear", vocab_size=5,
                                    embedding_dim=2), 0)

    @pytest.mark.parametrize("call", [
        lambda m, b: strategies.margin_protocol(m, b, 0.5),
        lambda m, b: strategies.weighting_protocol(m, b),
        lambda m, b: strategies.curriculum_protocol(m, b, 0.5),
        lambda m, b: matcher.loss_and_grad(m, strategies.none_protocol(b)),
        lambda m, b: validation_p_at_1(m, b.split),
        lambda m, b: select_model(m, m, b.split),
    ], ids=["margin", "weighting", "curriculum", "none", "validation", "select"])
    def test_token_past_a_smaller_model_vocab_rejected(self, call):
        # The split packs against its own vocab of 10; the model's is 5.
        with pytest.raises(ValueError, match="^token ID out of range for vocab$"):
            call(self.MODEL, Batch(self.SPLIT, np.array([1, 0])))

    def test_split_within_the_model_vocab_is_scored(self):
        split = Triples([PairwiseTriple(((1,),), (2,), (4,))], vocab_size=10)
        assert validation_p_at_1(self.MODEL, split) in (0.0, 1.0)


class TestBatch:
    @pytest.mark.parametrize("index", [[-1], [0, 3], [1, -2]])
    def test_positions_outside_the_split_rejected(self, index):
        split = Triples([PairwiseTriple(((1,),), (2,), (3,))] * 3)
        with pytest.raises(ValueError, match="batch position outside the split"):
            Batch(split, np.array(index))

    def test_positions_must_be_a_1d_integer_array(self):
        split = Triples([PairwiseTriple(((1,),), (2,), (3,))] * 3)
        assert Batch(split, [2, 0]).examples().tolist() == [[4, 5], [0, 1]]
        # A boolean mask would read as positions 0 and 1.
        for index in (np.array([True, False, True]), np.array([0.0, 1.0]),
                      np.array([[0, 1]])):
            with pytest.raises(TypeError, match="1-d integer index array"):
                Batch(split, index)
        with pytest.raises(TypeError, match="Triples split"):
            Batch(list(split), np.array([0]))

    def test_indexing_a_batch_keeps_its_split(self):
        split = Triples([PairwiseTriple(((i,),), (2,), (3,)) for i in range(4)])
        batch = Batch(split, np.array([3, 1, 2]))[np.array([2, 0])]
        assert batch.split is split and batch.index.tolist() == [2, 3]
        assert batch.examples().tolist() == [[4, 5], [6, 7]]


class TestAtomicWrites:
    def _failing_rows(self):
        yield ["1", "2"]
        raise RuntimeError("disk on fire")

    def test_write_that_raises_keeps_the_old_bytes(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_csv(path, ["a", "b"], [["0", "0"]])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="disk on fire"):
            write_csv(path, ["a", "b"], self._failing_rows())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv"]

    def test_bytes_reach_the_disk_before_the_rename(self, tmp_path, monkeypatch):
        calls, fsync, replace = [], os.fsync, os.replace
        monkeypatch.setattr(corpus.os, "fsync", lambda fd: (
            calls.append("fsync") or fsync(fd)))
        monkeypatch.setattr(corpus.os, "replace", lambda *args: (
            calls.append("replace") or replace(*args)))
        write_csv(tmp_path / "x.csv", ["a"], [["1"]])
        assert calls == ["fsync", "replace"]
        assert (tmp_path / "x.csv").read_bytes() == b"a\r\n1\r\n"

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            write_csv(tmp_path / "new.csv", ["a"], self._failing_rows())
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_write_that_raises_keeps_the_old_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        model = init_params(MatcherSpec("mean-embedding-bilinear", vocab_size=5,
                                        embedding_dim=2), 0)
        matcher.save_checkpoint(model, path)
        before = path.read_bytes()

        class Params:  # fails after the header is written
            size = model.params.size

            def astype(self, dtype):
                raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            matcher.save_checkpoint(
                matcher.ModelState._unchecked(model.spec, Params()), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_unopenable_temp_file_names_the_target(self, tmp_path):
        with pytest.raises(FileNotFoundError) as exc:
            with atomic_open(tmp_path / "missing" / "x.csv"):
                pass
        assert exc.value.filename == str(tmp_path / "missing" / "x.csv")

    def test_failed_corpus_save_keeps_the_old_files(self, tiny_corpus, tmp_path,
                                                    monkeypatch):
        save_corpus(tiny_corpus, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def disk_full(src, dst):
            raise OSError(28, "No space left on device", src, None, dst)

        monkeypatch.setattr(corpus.os, "replace", disk_full)
        other = generate_synthetic_corpus(GenConfig(vocab_size=60, n_topics=3, seed=1,
                                                    n_train=4, n_valid=2,
                                                    n_test_contexts=2))
        with pytest.raises(OSError, match="No space left") as exc:
            save_corpus(other, tmp_path)
        assert exc.value.filename == str(tmp_path / "train.txt")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestFileIO:
    @pytest.mark.parametrize("changes, message", [
        (dict(train=(PairwiseTriple(((1,), ()), (2,), (3,)),)), "empty utterance"),
        (dict(train=(PairwiseTriple(((1,),), (10,), (3,)),)), "token ID out of range for vocab"),
        (dict(train=(PairwiseTriple(((-1,),), (2,), (3,)),)), "token ID out of range for vocab"),
        (dict(test=(CandidateGroup(((1,),), (((2,), 1), ((3,), 0))),)),
         "a test group must hold 3 candidates labelled 0 or 1"),
        (dict(test=(CandidateGroup(((1,),), (((2,), 1), ((3,), 2), ((4,), 0))),)),
         "a test group must hold 3 candidates labelled 0 or 1"),
        (dict(n_candidates=0), "vocab_size and n_candidates must be positive"),
    ], ids=["empty-utterance", "id-at-vocab", "id-minus-1", "short-group", "label-2",
            "no-candidates"])
    def test_refuses_a_corpus_it_could_not_read_back(self, tiny_corpus, tmp_path,
                                                     changes, message):
        # Each of these saved once, and then failed to load; the old files
        # stay. A bad triple is refused when its split is built, the rest on save.
        save_corpus(tiny_corpus, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        good = PairwiseTriple(((1, 2),), (3,), (4,))
        with pytest.raises(ValueError, match=f"^{message}$"):
            corpus = Corpus(**{"train": (good,), "valid": (good,), "test": (),
                               "vocab_size": 10, "n_candidates": 3, **changes})
            save_corpus(corpus, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("n_test_contexts", [2000, 8000])
    def test_save_memory_is_one_chunk_whatever_the_corpus_size(self, n_test_contexts,
                                                               tmp_path):
        # The cli-pipeline corpus, and one with 4x its test split: the writer
        # holds one chunk of groups at a time, not a file's text.
        big = generate_synthetic_corpus(_cli_pipeline_config(n_test_contexts))
        peak, _ = _traced_peak(lambda: save_corpus(big, tmp_path))
        assert peak < 2.5e6

    @pytest.mark.parametrize("n_test_contexts", [2000, 8000])
    def test_load_memory_is_the_pack_and_one_chunk(self, n_test_contexts, tmp_path):
        # The reader holds one chunk of lines and the chunks' arrays, which
        # it joins into the pack: never a file's bytes or text.
        save_corpus(generate_synthetic_corpus(_cli_pipeline_config(n_test_contexts)),
                    tmp_path)
        peak, loaded = _traced_peak(lambda: load_corpus(tmp_path, ("test",)))
        assert peak <= 2 * _pack_bytes(loaded.test) + 2.5e6

    @pytest.mark.parametrize("n_test_contexts", [2000, 8000])
    def test_generate_memory_is_the_pack_and_one_chunk(self, n_test_contexts):
        # Each chunk's token rows are written straight into the split's ids.
        config = replace(_cli_pipeline_config(n_test_contexts), n_train=1, n_valid=1)
        peak, generated = _traced_peak(lambda: generate_synthetic_corpus(config))
        assert peak <= _pack_bytes(generated.test) + 2e6

    def test_round_trip_identity(self, tiny_corpus, tmp_path):
        save_corpus(tiny_corpus, tmp_path / "c")
        assert load_corpus(tmp_path / "c") == tiny_corpus

    def test_round_trip_without_noise_flags(self, tmp_path):
        corpus = Corpus(
            train=(PairwiseTriple(((1, 2), (3,)), (4,), (5,)),),
            valid=(), test=(), vocab_size=10)
        save_corpus(corpus, tmp_path / "c")
        loaded = load_corpus(tmp_path / "c")
        assert loaded.train == corpus.train
        assert loaded.train[0].noise_flag is None

    def test_empty_train_file_loads_empty(self, tiny_corpus, tmp_path):
        save_corpus(tiny_corpus, tmp_path / "c")
        (tmp_path / "c" / "train.txt").write_text("#vocab=60 candidates=6\n")
        (tmp_path / "c" / "meta.json").write_text("{}")
        assert load_corpus(tmp_path / "c").train == ()

    def test_malformed_line_names_location(self, tiny_corpus, tmp_path):
        save_corpus(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / "train.txt"
        lines = path.read_text().splitlines()
        lines[1] = "POS"  # a line with one field
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as exc:
            load_corpus(tmp_path / "c")
        assert "train.txt:2" in str(exc.value)

    def test_token_beyond_vocab_rejected(self, tiny_corpus, tmp_path):
        save_corpus(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / "test.txt"
        lines = path.read_text().splitlines()
        fields = lines[1].split("\t")
        fields[-1] = "9999"
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match="9999"):
            load_corpus(tmp_path / "c")

    def test_missing_header_rejected(self, tiny_corpus, tmp_path):
        save_corpus(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / "valid.txt"
        body = path.read_text().splitlines()[1:]
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(CorpusFormatError):
            load_corpus(tmp_path / "c")

    def test_dangling_pos_line_rejected(self, tiny_corpus, tmp_path):
        save_corpus(tiny_corpus, tmp_path / "c")
        path = tmp_path / "c" / "train.txt"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop final NEG line
        with pytest.raises(CorpusFormatError, match="dangling"):
            load_corpus(tmp_path / "c")

    def test_save_is_deterministic(self, tiny_corpus, tmp_path):
        save_corpus(tiny_corpus, tmp_path / "a")
        save_corpus(tiny_corpus, tmp_path / "b")
        for name in ("train.txt", "valid.txt", "test.txt", "meta.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


def _cli_pipeline_config(n_test_contexts):
    return GenConfig(vocab_size=1000, n_topics=10, n_train=2000, n_valid=500,
                     n_test_contexts=n_test_contexts, n_candidates=10, turns_per_context=3,
                     tokens_per_utterance=10, false_negative_rate=0.3, seed=5)


def _traced_peak(call):
    """The tracemalloc peak while ``call()`` runs, and what it returns."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _pack_bytes(groups) -> int:
    """The bytes of a TestGroups split's pack and labels."""
    return sum(np.asarray(field).nbytes for field in groups.pack) + groups.labels.nbytes


def _saved(corpus, tmp_path):
    save_corpus(corpus, tmp_path / "c")
    return tmp_path / "c"


def _replace_line(path, index, edit):
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


class TestFieldCache:
    """Each field's text is parsed once per file; these pin down that the
    cache changes neither what loads nor where an error is reported."""

    def test_bad_token_after_cached_context_reported_at_its_line(
            self, tiny_corpus, tmp_path):
        path = _saved(tiny_corpus, tmp_path) / "test.txt"
        # Line 4 is the third candidate of the first group: its context
        # fields were parsed on lines 2 and 3.
        _replace_line(path, 3, lambda line: line + " 60")
        with pytest.raises(CorpusFormatError, match=r"test\.txt:4: token ID 60"):
            load_corpus(path.parent)

    def test_bad_neg_response_reported_at_neg_line(self, tiny_corpus, tmp_path):
        path = _saved(tiny_corpus, tmp_path) / "train.txt"
        _replace_line(path, 4, lambda line: line + " -1")
        with pytest.raises(CorpusFormatError, match=r"train\.txt:5: token ID -1"):
            load_corpus(path.parent)

    def test_repeated_bad_field_reported_at_first_line(self, tiny_corpus, tmp_path):
        path = _saved(tiny_corpus, tmp_path) / "train.txt"
        for index in (3, 4):  # both lines of the second triple
            _replace_line(path, index, lambda line: line.replace("\t", "\t99 ", 1))
        with pytest.raises(CorpusFormatError, match=r"train\.txt:4: token ID 99"):
            load_corpus(path.parent)

    def test_cache_does_not_outlive_a_load(self, tiny_corpus, tmp_path):
        narrow = _saved(tiny_corpus, tmp_path)
        _replace_line(narrow / "train.txt", 1, lambda line: line + " 80")
        wide = tmp_path / "wide"
        wide.mkdir()
        for name in ("train.txt", "valid.txt", "test.txt", "meta.json"):
            text = (narrow / name).read_text()
            (wide / name).write_text(text.replace("#vocab=60 ", "#vocab=100 "))
        assert load_corpus(wide).vocab_size == 100
        with pytest.raises(CorpusFormatError, match=r"train\.txt:2: token ID 80"):
            load_corpus(narrow)

    def test_contexts_differing_only_in_whitespace_load(self, tiny_corpus, tmp_path):
        root = _saved(tiny_corpus, tmp_path)

        def respace(line):
            fields = line.split("\t")
            fields[1] = " " + fields[1].replace(" ", "  ") + " "
            return "\t".join(fields)

        _replace_line(root / "train.txt", 2, respace)  # a NEG line
        _replace_line(root / "test.txt", 2, respace)   # a second candidate
        assert load_corpus(root) == tiny_corpus


class TestMalformedFiles:
    def test_invalid_utf8_names_its_line(self, tiny_corpus, tmp_path):
        path = _saved(tiny_corpus, tmp_path) / "valid.txt"
        lines = path.read_bytes().split(b"\n")
        lines[3] = b"\xc3(" + lines[3]  # a truncated 2-byte sequence opens line 4
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorpusFormatError, match=r"valid\.txt:4: invalid UTF-8"):
            load_corpus(path.parent)

    @pytest.mark.parametrize("text, message", [
        ('{"seed": ', r"meta\.json:1: malformed JSON"),
        ('{\n"seed": 1,\n}', r"meta\.json:3: malformed JSON"),
        ("[1, 2]", r"meta\.json:1: expected a JSON object"),
    ], ids=["truncated", "trailing-comma", "list"])
    def test_malformed_meta_rejected(self, tiny_corpus, tmp_path, text, message):
        root = _saved(tiny_corpus, tmp_path)
        (root / "meta.json").write_text(text)
        with pytest.raises(CorpusFormatError, match=message):
            load_corpus(root)

    @pytest.mark.parametrize("edit", [
        lambda flags: flags[:-1],
        lambda flags: flags + [0],
        lambda flags: [2] + flags[1:],
        lambda flags: 1,
    ], ids=["short", "long", "not-0/1", "not-a-list"])
    def test_noise_flags_must_match_triples(self, tiny_corpus, tmp_path, edit):
        root = _saved(tiny_corpus, tmp_path)
        meta = json.loads((root / "meta.json").read_text())
        meta["valid_noise_flags"] = edit(meta["valid_noise_flags"])
        (root / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(CorpusFormatError,
                           match="valid_noise_flags must list one 0/1 flag per triple"):
            load_corpus(root)

    @pytest.mark.parametrize("blank", ["", "  "], ids=["empty", "spaces"])
    @pytest.mark.parametrize("field, message", [
        (1, "empty utterance 1"), (2, "empty utterance 2"), (-1, "empty response"),
    ], ids=["first-utterance", "last-utterance", "response"])
    def test_empty_field_rejected_at_its_line(self, tiny_corpus, tmp_path,
                                             field, message, blank):
        path = _saved(tiny_corpus, tmp_path) / "test.txt"

        def blank_field(line):
            fields = line.split("\t")
            fields[field] = blank
            return "\t".join(fields)

        _replace_line(path, 3, blank_field)
        with pytest.raises(CorpusFormatError, match=rf"test\.txt:4: {message}$"):
            load_corpus(path.parent)

    @pytest.mark.parametrize("name, index, edit, message", [
        ("valid.txt", 1, lambda line: line.replace("POS", "NEG", 1),
         r"valid\.txt:2: expected label POS, got 'NEG'"),
        ("valid.txt", 2, lambda line: line.replace("NEG", "POS", 1),
         r"valid\.txt:3: expected label NEG, got 'POS'"),
        ("test.txt", 3, lambda line: "2" + line[1:],
         r"test\.txt:4: expected label 0/1, got '2'"),
        ("valid.txt", 2, lambda line: line.replace("\t", "\t0 ", 1),
         r"valid\.txt:3: context differs from the first line of its block"),
        ("test.txt", 4, lambda line: line.replace("\t", "\t0 ", 1),
         r"test\.txt:5: context differs from the first line of its block"),
    ], ids=["neg-on-pos-line", "pos-on-neg-line", "test-label-2",
            "neg-context", "later-candidate-context"])
    def test_block_rule_broken_at_its_line(self, tiny_corpus, tmp_path,
                                           name, index, edit, message):
        path = _saved(tiny_corpus, tmp_path) / name
        _replace_line(path, index, edit)
        with pytest.raises(CorpusFormatError, match=message):
            load_corpus(path.parent)

    @pytest.mark.parametrize("count", [10**9, 10**19], ids=["1e9", "1e19"])
    @pytest.mark.parametrize("keep_groups, message", [
        (True, r"test\.txt:121: dangling line"),
        (False, "inconsistent headers"),
    ], ids=["with-groups", "header-only"])
    def test_huge_candidate_count_rejected(self, tiny_corpus, tmp_path,
                                           count, keep_groups, message):
        # The count comes from the file, so nothing may be sized by it.
        path = _saved(tiny_corpus, tmp_path) / "test.txt"
        lines = path.read_text().splitlines()
        lines = [f"#vocab=60 candidates={count}"] + lines[1:] * keep_groups
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=message):
            load_corpus(path.parent)

    @pytest.mark.parametrize("token", ["2_2", "1_000", "_7", "7_"])
    def test_underscore_in_an_id_rejected(self, tiny_corpus, tmp_path, token):
        # int() reads "2_2" as 22, but an id is digits alone.
        path = _saved(tiny_corpus, tmp_path) / "train.txt"
        _replace_line(path, 3, lambda line: line + " " + token)
        with pytest.raises(CorpusFormatError,
                           match=rf"^.*train\.txt:4: non-integer token in '[0-9 ]*{token}'$"):
            load_corpus(path.parent)

    @pytest.mark.parametrize("token", [2**63 - 1, 2**63, 10**19 - 1])
    def test_id_past_the_vocab_of_2_63_minus_1_rejected(self, tmp_path, token):
        corpus = Corpus(train=(PairwiseTriple(((2**63 - 2,),), (0,), (1,)),), valid=(),
                        test=(), vocab_size=2**63 - 1)
        path = _saved(corpus, tmp_path) / "train.txt"
        _replace_line(path, 2, lambda line: line[:-1] + str(token))
        with pytest.raises(CorpusFormatError, match=rf"train\.txt:3: token ID {token} outside "
                                                    rf"vocab of size {2**63 - 1}$"):
            load_corpus(path.parent)

    def test_id_past_int64_under_a_larger_vocab_rejected(self, tmp_path):
        # The header allows the id, but a pack holds int64 ids.
        (tmp_path / "train.txt").write_text(f"#vocab={10**20} candidates=1\n"
                                            f"POS\t1\t{2**63}\nNEG\t1\t2\n")
        with pytest.raises(CorpusFormatError,
                           match=rf"train\.txt:2: token ID {2**63} past int64$"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("data, outcome", [
        (None, None), (b"", None), (b"#vocab=60 candidates=6\r\n", (60, 6)),
        (b"\n#vocab=60 candidates=6\n", ":1: expected header line, got ''"),
        (b"#vocab=6\xff0 candidates=6\n", ":1: invalid UTF-8 at byte 8"),
    ], ids=["missing", "empty", "crlf", "blank-first-line", "invalid-utf8"])
    def test_unparsed_split_reads_the_header_as_a_parsed_one(self, tmp_path, data, outcome):
        path = tmp_path / "train.txt"
        if data is not None:
            path.write_bytes(data)
        for parse in (False, True):
            if isinstance(outcome, str):
                with pytest.raises(CorpusFormatError, match=f"^{path}{outcome}$"):
                    corpus._read_split(path, corpus._TRIPLE_BLOCK, parse)
            else:
                assert corpus._read_split(path, corpus._TRIPLE_BLOCK, parse)[0] == outcome

    @pytest.mark.parametrize("header", ["#vocab=60 candidates=0",
                                        "#vocab=0 candidates=6"])
    def test_nonpositive_header_counts_rejected(self, tiny_corpus, tmp_path, header):
        path = _saved(tiny_corpus, tmp_path) / "test.txt"
        _replace_line(path, 0, lambda line: header)
        with pytest.raises(CorpusFormatError, match=r"test\.txt:1: header needs"):
            load_corpus(path.parent)
