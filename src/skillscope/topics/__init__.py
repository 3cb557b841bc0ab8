from .dtm import DocTermMatrix, build_dtm, cluster_terms, top_terms
from .lda import LdaConfig, LdaModel, lda_fit
from .kmeans import KMeansModel, kmeans_fit, wcss_of
from .density import (
    NOISE,
    DensityTopicModel,
    density_topics,
    k_distance_knee,
    random_projection,
    scaled_min_cluster_size,
)

__all__ = [
    "DocTermMatrix", "build_dtm", "cluster_terms", "top_terms",
    "LdaConfig", "LdaModel", "lda_fit",
    "KMeansModel", "kmeans_fit", "wcss_of",
    "NOISE", "DensityTopicModel", "density_topics", "k_distance_knee",
    "random_projection", "scaled_min_cluster_size",
]
