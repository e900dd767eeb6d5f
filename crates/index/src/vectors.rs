//! [`VectorSet`]: a dense, contiguous collection of equal-dimension `f32`
//! vectors — the in-memory vector-column layout of §2.4 ("Milvus stores all
//! the vectors continuously without explicitly storing the row IDs", sorted
//! by row ID so row `i`'s vector is at offset `i * dim`).


/// A row-major matrix of `f32` vectors, all of dimension `dim`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VectorSet {
    dim: usize,
    data: Vec<f32>,
}

serde::impl_serde_struct!(VectorSet { dim, data });

impl VectorSet {
    /// Create an empty set of `dim`-dimensional vectors.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self { dim, data: Vec::new() }
    }

    /// Create with room for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self { dim, data: Vec::with_capacity(dim * n) }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(data.len() % dim, 0, "flat buffer not a multiple of dim");
        Self { dim, data }
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when no vectors are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow vector `i` (row-ID addressing, §2.4).
    #[inline]
    pub fn get(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutably borrow vector `i`.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Append one vector.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`.
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "pushed vector has wrong dimension");
        self.data.extend_from_slice(v);
    }

    /// Append every vector of `other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn extend_from(&mut self, other: &VectorSet) {
        assert_eq!(other.dim, self.dim, "dimension mismatch");
        self.data.extend_from_slice(&other.data);
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Iterate over vectors in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Copy the rows at `indices` into a new set (used by IVF bucket builds
    /// and segment merges).
    pub fn gather(&self, indices: &[usize]) -> VectorSet {
        let mut out = VectorSet::with_capacity(self.dim, indices.len());
        for &i in indices {
            out.push(self.get(i));
        }
        out
    }

    /// Approximate heap footprint in bytes (used by the bufferpool and the
    /// GPU memory model).
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Bytes of the backing allocation — what [`Self::memory_bytes`] must not
    /// undercount; equal to it for a set built at its exact capacity.
    pub fn allocated_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }
}

impl<'a> IntoIterator for &'a VectorSet {
    type Item = &'a [f32];
    type IntoIter = std::slice::ChunksExact<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut vs = VectorSet::new(3);
        vs.push(&[1.0, 2.0, 3.0]);
        vs.push(&[4.0, 5.0, 6.0]);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs.get(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn push_wrong_dim_panics() {
        let mut vs = VectorSet::new(3);
        vs.push(&[1.0]);
    }

    #[test]
    fn from_flat_and_iter() {
        let vs = VectorSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let rows: Vec<_> = vs.iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn gather_selects_rows() {
        let vs = VectorSet::from_flat(1, vec![10.0, 20.0, 30.0]);
        let g = vs.gather(&[2, 0]);
        assert_eq!(g.as_flat(), &[30.0, 10.0]);
    }

    #[test]
    fn memory_accounting() {
        let vs = VectorSet::from_flat(4, vec![0.0; 40]);
        assert_eq!(vs.memory_bytes(), 160);
    }
}
