"""Candidate filtering and content-based relevance.

"For each user the recommender filters a candidate set of media items using
content-based relevance based on past listener's feedbacks."  The filter
removes content the listener has already heard or explicitly rejected and
keeps recent items; the scorer combines the category-profile affinity with a
TF-IDF similarity to positively rated clips and a recency prior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.content.model import AudioClip
from repro.content.repository import ContentRepository
from repro.errors import ValidationError
from repro.textclass.tfidf import NormedVector, TfIdfVectorizer, cosine_normed, normed
from repro.users.management import UserManager


@dataclass(frozen=True)
class CandidateFilterConfig:
    """Controls which clips survive candidate filtering."""

    max_candidates: int = 200
    exclude_heard: bool = True
    exclude_disliked_categories: bool = True
    max_age_s: Optional[float] = 7 * 86400.0  # only recent podcasts by default
    min_duration_s: float = 30.0
    max_duration_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.max_candidates < 1:
            raise ValidationError("max_candidates must be >= 1")
        if self.min_duration_s < 0 or self.max_duration_s <= self.min_duration_s:
            raise ValidationError("duration bounds must satisfy 0 <= min < max")


class CandidateFilter:
    """Builds the per-user candidate set from the content repository."""

    def __init__(
        self,
        content: ContentRepository,
        users: UserManager,
        config: CandidateFilterConfig = CandidateFilterConfig(),
    ) -> None:
        self._content = content
        self._users = users
        self._config = config

    @property
    def content(self) -> ContentRepository:
        """The backing content repository (exposed for index reuse)."""
        return self._content

    def lookup_clip(self, clip_id: str) -> Optional[AudioClip]:
        """Fetch a clip from the repository regardless of filtering (or ``None``).

        Used by the proactive engine to make editorially injected clips
        eligible even when the normal candidate filter would exclude them.
        """
        try:
            return self._content.clip(clip_id)
        except Exception:  # noqa: BLE001 - absence is a legitimate outcome
            return None

    def candidates(self, user_id: str, *, now_s: float) -> List[AudioClip]:
        """The candidate clips for a user at a given time.

        The recency cut runs against the repository's publish-time index,
        which already yields newest-first order, so the scan stops as soon
        as the candidate cap is reached instead of visiting every clip.
        """
        config = self._config
        heard = set(self._users.feedback.positive_content_ids(user_id)) | set(
            self._users.feedback.negative_content_ids(user_id)
        )
        disliked = set(self._users.preference_profile(user_id).disliked_categories())
        cutoff = now_s - config.max_age_s if config.max_age_s is not None else None

        pool = (
            self._content.clips_published_after(cutoff)
            if cutoff is not None
            else self._content.clips_newest_first()
        )
        selected: List[AudioClip] = []
        for clip in pool:
            if config.exclude_heard and clip.clip_id in heard:
                continue
            if not config.min_duration_s <= clip.duration_s <= config.max_duration_s:
                continue
            if config.exclude_disliked_categories and clip.primary_category in disliked:
                continue
            selected.append(clip)
            if len(selected) >= config.max_candidates:
                break
        return selected


class ContentBasedScorer:
    """Content-based relevance of a clip for a listener, in [0, 1]."""

    def __init__(
        self,
        content: ContentRepository,
        users: UserManager,
        *,
        profile_weight: float = 0.6,
        similarity_weight: float = 0.3,
        recency_weight: float = 0.1,
        recency_halflife_s: float = 2 * 86400.0,
    ) -> None:
        total = profile_weight + similarity_weight + recency_weight
        if total <= 0:
            raise ValidationError("scorer weights must sum to a positive value")
        self._content = content
        self._users = users
        self._profile_weight = profile_weight / total
        self._similarity_weight = similarity_weight / total
        self._recency_weight = recency_weight / total
        self._recency_halflife_s = recency_halflife_s
        self._vectorizer: Optional[TfIdfVectorizer] = None
        # Each clip's TF-IDF vector with its norm, computed once at fit time.
        self._clip_vectors: Dict[str, NormedVector] = {}

    @property
    def has_text_model(self) -> bool:
        """Whether a fitted TF-IDF model is in use (snapshot metadata)."""
        return self._vectorizer is not None

    def clear_text_model(self) -> None:
        """Drop the fitted TF-IDF model (similarity falls back to neutral).

        Used by snapshot restore when the captured server had never
        fitted one — keeping a stale model would score restored clips
        against vectors from the pre-restore catalogue.
        """
        self._vectorizer = None
        self._clip_vectors = {}

    def fit_text_model(self) -> None:
        """Fit the TF-IDF model over all clips that carry transcripts.

        Optional: when no transcripts exist the similarity term falls back to
        a neutral 0.5 and only the category profile and recency matter.
        """
        documents: List[str] = []
        clip_ids: List[str] = []
        for clip in self._content.clips():
            if clip.transcript:
                documents.append(clip.transcript)
                clip_ids.append(clip.clip_id)
        if not documents:
            self._vectorizer = None
            self._clip_vectors = {}
            return
        self._vectorizer = TfIdfVectorizer()
        vectors = self._vectorizer.fit_transform(documents)
        self._clip_vectors = {
            clip_id: normed(vector) for clip_id, vector in zip(clip_ids, vectors)
        }

    def score(self, user_id: str, clip: AudioClip, *, now_s: float) -> float:
        """Content-based relevance of one clip for one user."""
        profile = self._users.preference_profile(user_id)
        liked_vectors = self._liked_vectors(user_id)
        return self._score_with(profile, liked_vectors, clip, now_s)

    def score_many(
        self, user_id: str, clips: Sequence[AudioClip], *, now_s: float
    ) -> Dict[str, float]:
        """Scores for a batch of clips keyed by clip id.

        The preference profile and the liked-clip TF-IDF vectors are fetched
        once for the whole batch instead of once per clip.
        """
        profile = self._users.preference_profile(user_id)
        liked_vectors = self._liked_vectors(user_id)
        return {
            clip.clip_id: self._score_with(profile, liked_vectors, clip, now_s)
            for clip in clips
        }

    # Internal ----------------------------------------------------------------

    def _score_with(self, profile, liked_vectors, clip: AudioClip, now_s: float) -> float:
        profile_term = profile.affinity(clip.category_scores)
        similarity_term = self._similarity_to_liked(clip, liked_vectors)
        recency_term = self._recency(clip, now_s)
        return (
            self._profile_weight * profile_term
            + self._similarity_weight * similarity_term
            + self._recency_weight * recency_term
        )

    def _liked_vectors(self, user_id: str) -> List[NormedVector]:
        """Vectors of the last 20 liked clips, each clip once.

        A clip liked twice adds nothing to a ``max`` over similarities, so
        repeats are dropped before the lookup.
        """
        if self._vectorizer is None:
            return []
        liked_ids = self._users.feedback.positive_content_ids(user_id)
        clip_vectors = self._clip_vectors
        return [
            clip_vectors[content_id]
            for content_id in dict.fromkeys(liked_ids[-20:])
            if content_id in clip_vectors
        ]

    def _similarity_to_liked(self, clip: AudioClip, liked_vectors: List[NormedVector]) -> float:
        if self._vectorizer is None:
            return 0.5
        clip_vector = self._clip_vectors.get(clip.clip_id)
        if clip_vector is None and clip.transcript:
            # Published after the fit: vectorize and norm it on the fly.
            clip_vector = normed(self._vectorizer.transform(clip.transcript))
        if clip_vector is None or not clip_vector[0]:
            return 0.5
        if not liked_vectors:
            return 0.5
        return max(cosine_normed(clip_vector, other) for other in liked_vectors)

    def _recency(self, clip: AudioClip, now_s: float) -> float:
        age_s = max(0.0, now_s - clip.published_s)
        if self._recency_halflife_s <= 0:
            return 1.0
        return 0.5 ** (age_s / self._recency_halflife_s)
