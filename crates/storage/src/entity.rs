//! Entities and schemas (§2.1, §2.4).
//!
//! "Each entity in Milvus is described as one or more vectors and optionally
//! some numerical attributes." A [`Schema`] declares the vector fields (name,
//! dimension, metric) and the numeric attribute fields; an [`InsertBatch`] is
//! the column-oriented unit of ingestion.

use milvus_index::{Metric, VectorSet};

use crate::error::{Result, StorageError};

/// One vector field of an entity (multi-vector entities have several, §4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorField {
    /// Field name, e.g. `"image_embedding"`.
    pub name: String,
    /// Dimensionality.
    pub dim: usize,
    /// Similarity function used when searching this field.
    pub metric: Metric,
}

/// Collection schema: one or more vector fields plus numeric attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Vector fields, at least one.
    pub vector_fields: Vec<VectorField>,
    /// Names of numeric attribute columns (the paper supports numerical
    /// attributes only; categorical ones are future work, §2.1).
    pub attribute_fields: Vec<String>,
}

impl Schema {
    /// Single-vector schema with no attributes — the common case.
    pub fn single(name: impl Into<String>, dim: usize, metric: Metric) -> Self {
        Self {
            vector_fields: vec![VectorField { name: name.into(), dim, metric }],
            attribute_fields: Vec::new(),
        }
    }

    /// Builder-style attribute addition.
    pub fn with_attribute(mut self, name: impl Into<String>) -> Self {
        self.attribute_fields.push(name.into());
        self
    }

    /// Builder-style extra vector field.
    pub fn with_vector_field(mut self, name: impl Into<String>, dim: usize, metric: Metric) -> Self {
        self.vector_fields.push(VectorField { name: name.into(), dim, metric });
        self
    }

    /// Position of a vector field by name.
    pub fn vector_field_index(&self, name: &str) -> Option<usize> {
        self.vector_fields.iter().position(|f| f.name == name)
    }

    /// Position of an attribute field by name.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attribute_fields.iter().position(|f| f == name)
    }

    /// Validate basic well-formedness.
    pub fn validate(&self) -> Result<()> {
        if self.vector_fields.is_empty() {
            return Err(StorageError::SchemaViolation(
                "schema needs at least one vector field".into(),
            ));
        }
        for f in &self.vector_fields {
            if f.dim == 0 {
                return Err(StorageError::SchemaViolation(format!(
                    "vector field {} has dim 0",
                    f.name
                )));
            }
        }
        let mut names: Vec<&str> = self
            .vector_fields
            .iter()
            .map(|f| f.name.as_str())
            .chain(self.attribute_fields.iter().map(String::as_str))
            .collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(StorageError::SchemaViolation("duplicate field name".into()));
        }
        Ok(())
    }
}

/// A column-oriented batch of entities to insert.
#[derive(Debug, Clone)]
pub struct InsertBatch {
    /// Entity primary keys.
    pub ids: Vec<i64>,
    /// One [`VectorSet`] per schema vector field, each with `ids.len()` rows.
    pub vectors: Vec<VectorSet>,
    /// One column per schema attribute field, each with `ids.len()` values.
    pub attributes: Vec<Vec<f64>>,
}

impl InsertBatch {
    /// Convenience constructor for single-vector schemas without attributes.
    pub fn single(ids: Vec<i64>, vectors: VectorSet) -> Self {
        Self { ids, vectors: vec![vectors], attributes: Vec::new() }
    }

    /// Number of entities in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the batch holds no entities.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Copy the entities at `rows` into a new batch (shard partitioning,
    /// replay of a partly applied record).
    pub fn gather(&self, rows: &[usize]) -> InsertBatch {
        InsertBatch {
            ids: rows.iter().map(|&r| self.ids[r]).collect(),
            vectors: self.vectors.iter().map(|col| col.gather(rows)).collect(),
            attributes: self
                .attributes
                .iter()
                .map(|col| rows.iter().map(|&r| col[r]).collect())
                .collect(),
        }
    }

    /// Approximate payload size in bytes (drives the flush threshold).
    pub fn memory_bytes(&self) -> usize {
        self.ids.len() * 8
            + self.vectors.iter().map(VectorSet::memory_bytes).sum::<usize>()
            + self.attributes.iter().map(|c| c.len() * 8).sum::<usize>()
    }

    /// Check the batch against `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if self.vectors.len() != schema.vector_fields.len() {
            return Err(StorageError::SchemaViolation(format!(
                "batch has {} vector columns, schema expects {}",
                self.vectors.len(),
                schema.vector_fields.len()
            )));
        }
        if self.attributes.len() != schema.attribute_fields.len() {
            return Err(StorageError::SchemaViolation(format!(
                "batch has {} attribute columns, schema expects {}",
                self.attributes.len(),
                schema.attribute_fields.len()
            )));
        }
        for (col, field) in self.vectors.iter().zip(&schema.vector_fields) {
            if col.dim() != field.dim {
                return Err(StorageError::SchemaViolation(format!(
                    "vector field {} expects dim {}, got {}",
                    field.name,
                    field.dim,
                    col.dim()
                )));
            }
            if col.len() != self.ids.len() {
                return Err(StorageError::SchemaViolation(format!(
                    "vector field {} has {} rows for {} ids",
                    field.name,
                    col.len(),
                    self.ids.len()
                )));
            }
        }
        for (col, name) in self.attributes.iter().zip(&schema.attribute_fields) {
            if col.len() != self.ids.len() {
                return Err(StorageError::SchemaViolation(format!(
                    "attribute {} has {} values for {} ids",
                    name,
                    col.len(),
                    self.ids.len()
                )));
            }
        }
        let mut sorted = self.ids.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(StorageError::DuplicateId(w[0]));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2() -> Schema {
        Schema::single("v", 2, Metric::L2).with_attribute("price")
    }

    #[test]
    fn schema_validation() {
        assert!(schema2().validate().is_ok());
        let empty = Schema { vector_fields: vec![], attribute_fields: vec![] };
        assert!(empty.validate().is_err());
        let dup = Schema::single("x", 2, Metric::L2).with_attribute("x");
        assert!(dup.validate().is_err());
        let zero = Schema::single("v", 0, Metric::L2);
        assert!(zero.validate().is_err());
    }

    #[test]
    fn field_lookup() {
        let s = schema2();
        assert_eq!(s.vector_field_index("v"), Some(0));
        assert_eq!(s.vector_field_index("nope"), None);
        assert_eq!(s.attribute_index("price"), Some(0));
    }

    #[test]
    fn batch_validation_catches_mismatches() {
        let s = schema2();
        let good = InsertBatch {
            ids: vec![1, 2],
            vectors: vec![VectorSet::from_flat(2, vec![0.0; 4])],
            attributes: vec![vec![9.5, 10.5]],
        };
        assert!(good.validate(&s).is_ok());

        let wrong_dim = InsertBatch {
            ids: vec![1],
            vectors: vec![VectorSet::from_flat(3, vec![0.0; 3])],
            attributes: vec![vec![1.0]],
        };
        assert!(wrong_dim.validate(&s).is_err());

        let missing_attr = InsertBatch {
            ids: vec![1],
            vectors: vec![VectorSet::from_flat(2, vec![0.0; 2])],
            attributes: vec![],
        };
        assert!(missing_attr.validate(&s).is_err());

        let dup_ids = InsertBatch {
            ids: vec![1, 1],
            vectors: vec![VectorSet::from_flat(2, vec![0.0; 4])],
            attributes: vec![vec![1.0, 2.0]],
        };
        assert!(matches!(dup_ids.validate(&s), Err(StorageError::DuplicateId(1))));
    }

    #[test]
    fn batch_size_accounting() {
        let b = InsertBatch::single(vec![1, 2], VectorSet::from_flat(4, vec![0.0; 8]));
        assert_eq!(b.memory_bytes(), 2 * 8 + 8 * 4);
        assert_eq!(b.len(), 2);
    }
}
