"""Tests for the simulated ASR, synthetic corpus and text classification."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr import SimulatedTranscriber, SyntheticNewsCorpus, word_error_rate
from repro.content import AudioClip, ContentKind, ContentRepository
from repro.errors import ClassificationError, NotFoundError, ValidationError
from repro.textclass import (
    NaiveBayesClassifier,
    TfIdfVectorizer,
    Tokenizer,
    Vocabulary,
    evaluate_classifier,
)
from repro.recommender import ContentBasedScorer
from repro.textclass.tfidf import cosine_normed, cosine_similarity, normed
from repro.users import FeedbackKind, UserManager, UserProfile


class TestWordErrorRate:
    def test_identical_is_zero(self):
        assert word_error_rate("la rai trasmette radio", "la rai trasmette radio") == 0.0

    def test_single_substitution(self):
        assert word_error_rate("a b c d", "a x c d") == pytest.approx(0.25)

    def test_deletion_and_insertion(self):
        assert word_error_rate("a b c d", "a b c") == pytest.approx(0.25)
        assert word_error_rate("a b c d", "a b x c d") == pytest.approx(0.25)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValidationError):
            word_error_rate("", "x")

    def test_totally_wrong(self):
        assert word_error_rate("a b", "x y") == 1.0


class TestSimulatedTranscriber:
    def test_zero_wer_is_identity(self):
        transcriber = SimulatedTranscriber(target_wer=0.0)
        result = transcriber.transcribe("uno due tre quattro cinque")
        assert result.text == result.reference
        assert result.error_count == 0
        assert result.confidence == 1.0

    def test_errors_injected_at_positive_wer(self):
        transcriber = SimulatedTranscriber(target_wer=0.3, seed=3)
        reference = " ".join(["parola"] * 200)
        result = transcriber.transcribe(reference, clip_id="c1")
        assert result.error_count > 0
        assert 0.0 <= result.confidence < 1.0

    def test_measured_wer_tracks_target(self):
        transcriber = SimulatedTranscriber(target_wer=0.25, seed=5)
        reference = " ".join(f"parola{i % 37}" for i in range(400))
        result = transcriber.transcribe(reference, clip_id="c2")
        measured = word_error_rate(reference, result.text)
        assert 0.1 < measured < 0.45

    def test_deterministic_per_clip_id(self):
        transcriber_a = SimulatedTranscriber(target_wer=0.2, seed=7)
        transcriber_b = SimulatedTranscriber(target_wer=0.2, seed=7)
        text = " ".join(["alfa beta gamma delta"] * 10)
        assert transcriber_a.transcribe(text, clip_id="x").text == transcriber_b.transcribe(text, clip_id="x").text

    def test_never_empty_output(self):
        transcriber = SimulatedTranscriber(target_wer=0.9, seed=11)
        result = transcriber.transcribe("solo", clip_id="tiny")
        assert result.text.strip()

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            SimulatedTranscriber(target_wer=1.0)
        with pytest.raises(ValidationError):
            SimulatedTranscriber().transcribe("")


class TestSyntheticCorpus:
    def test_thirty_categories(self):
        corpus = SyntheticNewsCorpus(seed=1)
        assert len(corpus.categories()) == 30

    def test_documents_have_requested_length(self):
        corpus = SyntheticNewsCorpus(seed=1)
        document = corpus.generate_document("economics", word_count=50)
        assert document.word_count == 50
        assert len(document.text.split()) == 50
        assert document.category == "economics"

    def test_unknown_category_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticNewsCorpus(seed=1).generate_document("astrology")

    def test_dataset_balanced(self):
        corpus = SyntheticNewsCorpus(seed=2)
        dataset = corpus.generate_dataset(documents_per_category=3, word_count=40)
        assert len(dataset) == 90
        categories = {doc.category for doc in dataset}
        assert len(categories) == 30

    def test_train_test_split_disjoint_sizes(self):
        corpus = SyntheticNewsCorpus(seed=3)
        train, test = corpus.train_test_split(documents_per_category=8, test_fraction=0.25)
        assert len(test) == 30 * 2
        assert len(train) == 30 * 6

    def test_topic_words_distinct_across_categories(self):
        corpus = SyntheticNewsCorpus(seed=4)
        economics = set(corpus.model("economics").topic_words)
        art = set(corpus.model("art").topic_words)
        assert not economics & art

    def test_vocabulary_size_reasonable(self):
        corpus = SyntheticNewsCorpus(seed=5, topic_words_per_category=20)
        assert corpus.vocabulary_size() >= 30 * 20


class TestTokenizer:
    def test_lowercase_and_punctuation(self):
        tokens = Tokenizer(stopwords=[]).tokenize("Ciao, Mondo! 123 ok?")
        assert tokens == ["ciao", "mondo", "ok"]

    def test_stopwords_removed(self):
        tokens = Tokenizer().tokenize("il gatto di casa")
        assert "il" not in tokens and "di" not in tokens
        assert "gatto" in tokens

    def test_min_length(self):
        tokens = Tokenizer(stopwords=[], min_token_length=4).tokenize("a bb ccc dddd")
        assert tokens == ["dddd"]

    def test_none_rejected(self):
        with pytest.raises(ValidationError):
            Tokenizer().tokenize(None)  # type: ignore[arg-type]


class TestVocabulary:
    def test_build_and_lookup(self):
        vocabulary = Vocabulary.build([["a", "b", "a"], ["b", "c"]])
        assert len(vocabulary) == 3
        assert "a" in vocabulary
        assert vocabulary.count_of("a") == 2
        assert vocabulary.token_at(vocabulary.index_of("b")) == "b"

    def test_min_count_prunes(self):
        vocabulary = Vocabulary.build([["a", "a", "b"]], min_count=2)
        assert "a" in vocabulary and "b" not in vocabulary

    def test_max_size_keeps_most_frequent(self):
        vocabulary = Vocabulary.build([["a"] * 5 + ["b"] * 3 + ["c"]], max_size=2)
        assert set(vocabulary.tokens()) == {"a", "b"}

    def test_encode(self):
        vocabulary = Vocabulary.build([["a", "b"]])
        assert len(vocabulary.encode(["a", "zzz", "b"])) == 2
        with pytest.raises(NotFoundError):
            vocabulary.encode(["zzz"], skip_unknown=False)

    def test_unknown_lookups(self):
        vocabulary = Vocabulary.build([["a"]])
        with pytest.raises(NotFoundError):
            vocabulary.index_of("zzz")
        with pytest.raises(NotFoundError):
            vocabulary.token_at(99)


class TestNaiveBayes:
    def small_training_set(self):
        texts = [
            "borsa mercati economia inflazione banca",
            "economia banca tassi mercati finanza",
            "partita goal calcio campionato squadra",
            "calcio squadra allenatore goal torneo",
            "ricetta cucina vino piatto chef",
            "vino chef cucina degustazione piatto",
        ]
        labels = ["economics", "economics", "sport-football", "sport-football", "food-and-wine", "food-and-wine"]
        return texts, labels

    def test_untrained_raises(self):
        with pytest.raises(ClassificationError):
            NaiveBayesClassifier().predict("qualcosa")

    def test_fit_validation(self):
        with pytest.raises(ClassificationError):
            NaiveBayesClassifier().fit(["a"], ["x", "y"])
        with pytest.raises(ClassificationError):
            NaiveBayesClassifier().fit([], [])
        with pytest.raises(ClassificationError):
            NaiveBayesClassifier(alpha=0.0)

    def test_classifies_matching_vocabulary(self):
        texts, labels = self.small_training_set()
        classifier = NaiveBayesClassifier(tokenizer=Tokenizer(stopwords=[])).fit(texts, labels)
        assert classifier.predict("inflazione banca mercati") == "economics"
        assert classifier.predict("goal squadra calcio") == "sport-football"
        assert classifier.predict("chef piatto vino") == "food-and-wine"

    def test_predict_proba_normalized(self):
        texts, labels = self.small_training_set()
        classifier = NaiveBayesClassifier(tokenizer=Tokenizer(stopwords=[])).fit(texts, labels)
        probabilities = classifier.predict_proba("banca mercati")
        assert sum(probabilities.values()) == pytest.approx(1.0)
        assert max(probabilities, key=probabilities.get) == "economics"

    def test_top_k(self):
        texts, labels = self.small_training_set()
        classifier = NaiveBayesClassifier(tokenizer=Tokenizer(stopwords=[])).fit(texts, labels)
        top2 = classifier.top_k("banca mercati goal", k=2)
        assert len(top2) == 2
        assert top2[0][1] >= top2[1][1]
        with pytest.raises(ClassificationError):
            classifier.top_k("x", k=0)

    def test_informative_tokens(self):
        texts, labels = self.small_training_set()
        classifier = NaiveBayesClassifier(tokenizer=Tokenizer(stopwords=[])).fit(texts, labels)
        assert "calcio" in classifier.informative_tokens("sport-football", top=5)
        with pytest.raises(ClassificationError):
            classifier.informative_tokens("astrology")

    def test_high_accuracy_on_synthetic_corpus(self):
        corpus = SyntheticNewsCorpus(seed=9)
        train, test = corpus.train_test_split(documents_per_category=6, word_count=80)
        classifier = NaiveBayesClassifier().fit([d.text for d in train], [d.category for d in train])
        report = evaluate_classifier(classifier, [d.text for d in test], [d.category for d in test])
        assert report.accuracy > 0.9
        assert report.macro_f1 > 0.9
        assert report.total == len(test)

    def test_accuracy_degrades_gracefully_with_wer(self):
        corpus = SyntheticNewsCorpus(seed=10)
        train, test = corpus.train_test_split(documents_per_category=6, word_count=80)
        classifier = NaiveBayesClassifier().fit([d.text for d in train], [d.category for d in train])
        clean = evaluate_classifier(classifier, [d.text for d in test], [d.category for d in test])
        noisy_transcriber = SimulatedTranscriber(target_wer=0.6, seed=13)
        noisy_texts = [noisy_transcriber.transcribe(d.text, clip_id=str(i)).text for i, d in enumerate(test)]
        noisy = evaluate_classifier(classifier, noisy_texts, [d.category for d in test])
        assert noisy.accuracy <= clean.accuracy
        assert noisy.accuracy > 0.3  # still far better than the 1/30 chance level


class TestEvaluation:
    def test_validation(self):
        classifier = NaiveBayesClassifier().fit(["a b", "c d"], ["x", "y"])
        with pytest.raises(ClassificationError):
            evaluate_classifier(classifier, ["a"], ["x", "y"])
        with pytest.raises(ClassificationError):
            evaluate_classifier(classifier, [], [])

    def test_perfect_and_confused(self):
        classifier = NaiveBayesClassifier(tokenizer=Tokenizer(stopwords=[])).fit(
            ["alfa beta", "gamma delta"], ["one", "two"]
        )
        report = evaluate_classifier(classifier, ["alfa beta", "gamma delta"], ["one", "two"])
        assert report.accuracy == 1.0
        assert report.per_class["one"].f1 == 1.0
        assert report.most_confused_pairs() == []


class TestTfIdf:
    def test_requires_fit(self):
        with pytest.raises(ClassificationError):
            TfIdfVectorizer().transform("ciao")
        with pytest.raises(ClassificationError):
            TfIdfVectorizer().fit([])

    def test_vectors_are_normalized(self):
        vectorizer = TfIdfVectorizer(tokenizer=Tokenizer(stopwords=[]))
        vectors = vectorizer.fit_transform(["alfa beta gamma", "beta gamma delta", "alfa delta"])
        for vector in vectors:
            norm = sum(value * value for value in vector.values()) ** 0.5
            assert norm == pytest.approx(1.0)

    def test_similarity_ordering(self):
        vectorizer = TfIdfVectorizer(tokenizer=Tokenizer(stopwords=[]))
        vectorizer.fit(["borsa economia banca", "calcio goal squadra", "cucina vino chef"])
        economics = vectorizer.transform("economia banca tassi")
        football = vectorizer.transform("goal squadra partita")
        economics2 = vectorizer.transform("borsa banca economia")
        assert cosine_similarity(economics, economics2) > cosine_similarity(economics, football)

    def test_empty_vectors_similarity_zero(self):
        assert cosine_similarity({}, {0: 1.0}) == 0.0

    def test_unknown_words_give_empty_vector(self):
        vectorizer = TfIdfVectorizer(tokenizer=Tokenizer(stopwords=[]))
        vectorizer.fit(["alfa beta"])
        assert vectorizer.transform("zzz qqq") == {}

    @given(st.text(alphabet="abcdef ", min_size=0, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_transform_never_crashes(self, text):
        vectorizer = TfIdfVectorizer(tokenizer=Tokenizer(stopwords=[]))
        vectorizer.fit(["abc def fed cab", "fed abc"])
        vector = vectorizer.transform(text)
        assert all(value >= 0 for value in vector.values())


class _CountingTokenizer(Tokenizer):
    """Tokenizer that counts how often a document is actually tokenized."""

    def __init__(self):
        super().__init__(stopwords=[])
        self.calls = 0

    def tokenize(self, text):
        self.calls += 1
        return super().tokenize(text)


class TestTfIdfMemoization:
    def test_repeated_transforms_tokenize_once(self):
        tokenizer = _CountingTokenizer()
        vectorizer = TfIdfVectorizer(tokenizer=tokenizer)
        vectorizer.fit(["borsa economia banca", "calcio goal squadra"])
        tokenizer.calls = 0
        first = vectorizer.transform("borsa banca banca")
        repeats = vectorizer.transform_many(["borsa banca banca"] * 50)
        assert tokenizer.calls == 1
        assert all(vector == first for vector in repeats)
        info = vectorizer.cache_info()
        assert info["hits"] == 50
        assert info["misses"] == 1

    def test_refit_invalidates_cached_vectors(self):
        vectorizer = TfIdfVectorizer(tokenizer=Tokenizer(stopwords=[]))
        vectorizer.fit(["borsa economia banca", "calcio goal squadra"])
        before = vectorizer.transform("borsa banca")
        # A refit over a different corpus shifts the IDF weights: the cached
        # vector must not be served back.
        vectorizer.fit(["borsa calcio", "banca borsa calcio", "tennis vela"])
        after = vectorizer.transform("borsa banca")
        assert before != after
        assert vectorizer.cache_info()["hits"] == 0

    def test_mutating_a_result_does_not_poison_the_cache(self):
        vectorizer = TfIdfVectorizer(tokenizer=Tokenizer(stopwords=[]))
        vectorizer.fit(["borsa economia banca"])
        vector = vectorizer.transform("borsa banca")
        vector[0] = 999.0
        assert vectorizer.transform("borsa banca") != vector

    def test_cache_capacity_is_bounded(self):
        vectorizer = TfIdfVectorizer(tokenizer=Tokenizer(stopwords=[]), cache_size=3)
        vectorizer.fit(["alfa beta gamma delta epsilon zeta"])
        for word in ["alfa", "beta", "gamma", "delta", "epsilon"]:
            vectorizer.transform(word)
        assert vectorizer.cache_info()["size"] == 3

    def test_cache_can_be_disabled(self):
        tokenizer = _CountingTokenizer()
        vectorizer = TfIdfVectorizer(tokenizer=tokenizer, cache_size=0)
        vectorizer.fit(["alfa beta"])
        tokenizer.calls = 0
        vectorizer.transform("alfa")
        vectorizer.transform("alfa")
        assert tokenizer.calls == 2


def _oracle_cosine(a, b):
    """The cosine as it was before vectors carried their norm (the oracle)."""
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(value * b.get(index, 0.0) for index, value in a.items())
    norm_a = math.sqrt(sum(value * value for value in a.values()))
    norm_b = math.sqrt(sum(value * value for value in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def _random_sparse(rng, length, *, dims=30, unit=False):
    vector = {index: rng.uniform(0.0, 3.0) for index in rng.sample(range(dims), length)}
    if unit and vector:
        norm = math.sqrt(sum(value * value for value in vector.values()))
        vector = {index: value / norm for index, value in vector.items()}
    return vector


def _kernel(a, b):
    return cosine_normed(normed(a), normed(b))


class TestCosineKernel:
    """The normed kernel is bit-identical (``==``, not approx) to the oracle."""

    @pytest.mark.parametrize("unit", [False, True])
    def test_random_pairs_match_oracle(self, seeded_rng, unit):
        rng = seeded_rng.fork("cosine", unit)
        for _ in range(500):
            a = _random_sparse(rng, rng.randint(1, 12), unit=unit)
            b = _random_sparse(rng, rng.randint(1, 12), unit=unit)
            expected = _oracle_cosine(a, b)
            assert _kernel(a, b) == expected
            assert cosine_similarity(a, b) == expected

    def test_equal_lengths_keep_the_argument_order(self, seeded_rng):
        rng = seeded_rng.fork("equal")
        for _ in range(300):
            length = rng.randint(1, 12)
            a, b = _random_sparse(rng, length), _random_sparse(rng, length)
            assert _kernel(a, b) == _oracle_cosine(a, b)
            assert _kernel(b, a) == _oracle_cosine(b, a)

    def test_empty_vectors(self, seeded_rng):
        other = _random_sparse(seeded_rng.fork("empty"), 5)
        for a, b in [({}, other), (other, {}), ({}, {})]:
            assert _kernel(a, b) == _oracle_cosine(a, b) == 0.0

    def test_all_zero_vectors(self, seeded_rng):
        other = _random_sparse(seeded_rng.fork("zero"), 5)
        zero = {1: 0.0, 4: 0.0, 7: 0.0}
        for a, b in [(zero, other), (other, zero), (zero, dict(zero))]:
            assert _kernel(a, b) == _oracle_cosine(a, b) == 0.0

    def test_normed_pairs_the_vector_with_its_norm(self):
        vector = {0: 3.0, 5: 4.0}
        assert normed(vector) == (vector, 5.0)
        assert normed({}) == ({}, 0.0)


class _OracleCosineScorer(ContentBasedScorer):
    """The content scorer as it was: raw vectors, every liked id, the oracle cosine."""

    def fit_text_model(self):
        super().fit_text_model()
        clips = [clip for clip in self._content.clips() if clip.transcript]
        self._oracle_vectorizer = TfIdfVectorizer()
        vectors = self._oracle_vectorizer.fit_transform([clip.transcript for clip in clips])
        self._raw_vectors = {clip.clip_id: vector for clip, vector in zip(clips, vectors)}

    def _liked_vectors(self, user_id):
        liked_ids = self._users.feedback.positive_content_ids(user_id)
        return [self._raw_vectors[cid] for cid in liked_ids[-20:] if cid in self._raw_vectors]

    def _similarity_to_liked(self, clip, liked_vectors):
        vector = self._raw_vectors.get(clip.clip_id)
        if vector is None and clip.transcript:
            vector = self._oracle_vectorizer.transform(clip.transcript)
        if not vector or not liked_vectors:
            return 0.5
        return max(_oracle_cosine(vector, other) for other in liked_vectors)


class TestContentScorerBitIdentity:
    WORDS = [f"parola{index}" for index in range(24)]
    NOW = 10 * 86400.0

    def _clip(self, rng, clip_id, published_s):
        return AudioClip(
            clip_id=clip_id,
            title=clip_id,
            kind=ContentKind.PODCAST,
            duration_s=300.0,
            category_scores={rng.choice(["economics", "sport-football", "music-pop"]): 1.0},
            transcript=" ".join(rng.choice(self.WORDS) for _ in range(rng.randint(3, 10))),
            published_s=published_s,
        )

    def test_score_many_matches_oracle_scorer(self, seeded_rng):
        rng = seeded_rng.fork("catalogue")
        content = ContentRepository()
        content.add_clips(
            [self._clip(rng, f"clip-{index}", self.NOW - 3600.0 * index) for index in range(30)]
        )
        users = UserManager(content=content)
        users.register(UserProfile(user_id="u1", display_name="x"))
        liked = [f"clip-{rng.randint(0, 29)}" for _ in range(25)]
        liked += liked[-6:]  # repeats inside the last-20 window
        for offset, clip_id in enumerate(liked):
            users.record_feedback(
                "u1", clip_id, FeedbackKind.LIKE, timestamp_s=self.NOW - 5000.0 + offset
            )
        window = users.feedback.positive_content_ids("u1")[-20:]
        assert len(set(window)) < len(window)

        scorer = ContentBasedScorer(content, users)
        oracle = _OracleCosineScorer(content, users)
        scorer.fit_text_model()
        oracle.fit_text_model()
        late = self._clip(rng, "published-after-fit", self.NOW - 60.0)
        content.add_clip(late)

        clips = content.clips()
        assert late in clips
        scores = scorer.score_many("u1", clips, now_s=self.NOW)
        assert scores == oracle.score_many("u1", clips, now_s=self.NOW)
        # The similarity term is really exercised: an unfitted scorer (neutral
        # 0.5 similarity) disagrees, the post-fit clip included.
        neutral = ContentBasedScorer(content, users).score_many("u1", clips, now_s=self.NOW)
        differing = [clip_id for clip_id in scores if scores[clip_id] != neutral[clip_id]]
        assert late.clip_id in differing
        assert len(differing) > len(clips) // 2
