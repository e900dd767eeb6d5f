//! Similarity functions offered by the system (paper §2.1).
//!
//! The paper lists Euclidean distance, inner product, cosine similarity,
//! Hamming distance and Jaccard distance; §6.2 additionally uses the Tanimoto
//! distance for chemical-structure search. Float metrics operate on `f32`
//! slices, binary metrics on bit-packed `u8` slices (see [`crate::binary`]).
//!
//! Internally every metric is normalised to a *distance* where **smaller is
//! better**: inner product and cosine are negated. This lets every index and
//! heap in the crate order candidates the same way.


/// A similarity function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Squared Euclidean distance (L2²). Monotonic in L2, cheaper to compute.
    L2,
    /// Inner product, negated so that smaller is better.
    InnerProduct,
    /// Cosine similarity, negated so that smaller is better.
    Cosine,
    /// Hamming distance over bit-packed binary vectors.
    Hamming,
    /// Jaccard distance over bit-packed binary vectors.
    Jaccard,
    /// Tanimoto distance over bit-packed binary vectors (chemical search, §6.2).
    Tanimoto,
}

impl Metric {
    /// True when the raw metric is a similarity (higher = better) that the
    /// crate internally negates into a distance.
    #[inline]
    pub fn is_similarity(self) -> bool {
        matches!(self, Metric::InnerProduct | Metric::Cosine)
    }

    /// True for metrics defined over bit-packed binary vectors.
    #[inline]
    pub fn is_binary(self) -> bool {
        matches!(self, Metric::Hamming | Metric::Jaccard | Metric::Tanimoto)
    }

    /// Convert an internal distance back to the user-facing score
    /// (e.g. re-negate inner product).
    #[inline]
    pub fn display_score(self, internal: f32) -> f32 {
        if self.is_similarity() {
            -internal
        } else {
            internal
        }
    }

    /// Stable identifier used in configs and the index registry.
    pub fn name(self) -> &'static str {
        match self {
            Metric::L2 => "L2",
            Metric::InnerProduct => "IP",
            Metric::Cosine => "COSINE",
            Metric::Hamming => "HAMMING",
            Metric::Jaccard => "JACCARD",
            Metric::Tanimoto => "TANIMOTO",
        }
    }

    /// Parse a metric from its [`name`](Metric::name).
    pub fn parse(s: &str) -> Option<Metric> {
        match s.to_ascii_uppercase().as_str() {
            "L2" | "EUCLIDEAN" => Some(Metric::L2),
            "IP" | "INNER_PRODUCT" => Some(Metric::InnerProduct),
            "COSINE" => Some(Metric::Cosine),
            "HAMMING" => Some(Metric::Hamming),
            "JACCARD" => Some(Metric::Jaccard),
            "TANIMOTO" => Some(Metric::Tanimoto),
            _ => None,
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_names() {
        for m in [
            Metric::L2,
            Metric::InnerProduct,
            Metric::Cosine,
            Metric::Hamming,
            Metric::Jaccard,
            Metric::Tanimoto,
        ] {
            assert_eq!(Metric::parse(m.name()), Some(m));
        }
        assert_eq!(Metric::parse("bogus"), None);
    }

    #[test]
    fn similarity_classification() {
        assert!(Metric::InnerProduct.is_similarity());
        assert!(Metric::Cosine.is_similarity());
        assert!(!Metric::L2.is_similarity());
        assert!(Metric::Jaccard.is_binary());
        assert!(!Metric::L2.is_binary());
    }

    #[test]
    fn display_score_negates_similarities() {
        assert_eq!(Metric::InnerProduct.display_score(-3.0), 3.0);
        assert_eq!(Metric::L2.display_score(3.0), 3.0);
    }
}
