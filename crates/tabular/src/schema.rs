//! Schemas: named columns of categorical or continuous type.
//!
//! Matches the paper's Definition 1: a table has a key (entity) attribute and
//! `M` value columns, each categorical (finite unordered label set `L_j`) or
//! continuous (a real interval used for generation and priors).

use crate::value::Value;

/// Most cells a new table may hold, a categorical cell counted once per
/// label: an empty table already allocates an index slot per cell and a
/// posterior entry per label, so this bounds what creating one costs.
pub const MAX_TABLE_CELLS: u64 = 1 << 24;
/// Most labels a new table's categorical columns may declare together.
pub const MAX_TABLE_LABELS: u64 = 1 << 16;

/// The datatype and domain of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnType {
    /// A categorical attribute with a finite unordered label set `L_j`.
    Categorical {
        /// Human-readable labels; `labels.len()` is the domain size `|L_j|`.
        labels: Vec<String>,
    },
    /// A continuous attribute with a domain interval (used by generators and
    /// as a weak prior; answers outside the interval are not rejected).
    Continuous {
        /// Lower end of the domain.
        min: f64,
        /// Upper end of the domain.
        max: f64,
    },
}

impl ColumnType {
    /// Convenience constructor for a categorical domain `L0..L{k-1}`.
    pub fn categorical_with_cardinality(k: u32) -> Self {
        ColumnType::Categorical { labels: (0..k).map(|i| format!("L{i}")).collect() }
    }

    /// Number of labels for categorical columns; `None` for continuous.
    pub fn cardinality(&self) -> Option<u32> {
        match self {
            ColumnType::Categorical { labels } => Some(labels.len() as u32),
            ColumnType::Continuous { .. } => None,
        }
    }

    /// True if the column is categorical.
    #[inline]
    pub fn is_categorical(&self) -> bool {
        matches!(self, ColumnType::Categorical { .. })
    }

    /// True if `value`'s datatype matches this column type.
    pub fn accepts(&self, value: &Value) -> bool {
        match (self, value) {
            (ColumnType::Categorical { labels }, Value::Categorical(l)) => {
                (*l as usize) < labels.len()
            }
            (ColumnType::Continuous { .. }, Value::Continuous(x)) => x.is_finite(),
            _ => false,
        }
    }
}

/// A named column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Attribute name (e.g. "Nationality").
    pub name: String,
    /// Datatype and domain.
    pub ty: ColumnType,
}

impl Column {
    /// Create a column.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column { name: name.into(), ty }
    }
}

/// A table schema: key attribute plus `M` value columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Table name (e.g. "Celebrity").
    pub name: String,
    /// Name of the entity/key attribute (e.g. "Picture").
    pub key: String,
    /// The value columns, in order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Create a schema; at least one column is required.
    pub fn new(name: impl Into<String>, key: impl Into<String>, columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "a schema needs at least one column");
        Schema { name: name.into(), key: key.into(), columns }
    }

    /// Number of value columns `M`.
    #[inline]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The type of column `j`; panics if out of range.
    #[inline]
    pub fn column_type(&self, j: usize) -> &ColumnType {
        &self.columns[j].ty
    }

    /// Indices of the categorical columns.
    pub fn categorical_columns(&self) -> Vec<usize> {
        (0..self.columns.len()).filter(|&j| self.columns[j].ty.is_categorical()).collect()
    }

    /// Indices of the continuous columns.
    pub fn continuous_columns(&self) -> Vec<usize> {
        (0..self.columns.len()).filter(|&j| !self.columns[j].ty.is_categorical()).collect()
    }

    /// Largest categorical cardinality `l = max_j |L_j|`, or 0 if none.
    pub fn max_cardinality(&self) -> u32 {
        self.columns.iter().filter_map(|c| c.ty.cardinality()).max().unwrap_or(0)
    }

    /// Check that a new `rows`-row table of this schema stays within
    /// [`MAX_TABLE_LABELS`] and [`MAX_TABLE_CELLS`], before anything is
    /// allocated for it. Applied at creation only: a table that an earlier
    /// version created past these caps still recovers.
    pub fn check_table_shape(&self, rows: usize) -> Result<(), String> {
        let labels = |c: &Column| match &c.ty {
            ColumnType::Categorical { labels } => labels.len() as u64,
            ColumnType::Continuous { .. } => 0,
        };
        let total: u64 = self.columns.iter().map(labels).sum();
        if total > MAX_TABLE_LABELS {
            return Err(format!(
                "the schema declares {total} labels; a table may have at most {MAX_TABLE_LABELS}"
            ));
        }
        let per_row: u64 = self.columns.iter().map(|c| labels(c).max(1)).sum();
        let cells = (rows as u64).saturating_mul(per_row);
        if cells > MAX_TABLE_CELLS {
            return Err(format!(
                "{rows} rows of {per_row} cell slots (one per label of a categorical column) \
                 exceed the {MAX_TABLE_CELLS} a table may hold"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_schema() -> Schema {
        Schema::new(
            "Celebrity",
            "Picture",
            vec![
                Column::new("Name", ColumnType::categorical_with_cardinality(4)),
                Column::new("Age", ColumnType::Continuous { min: 0.0, max: 100.0 }),
                Column::new("Nationality", ColumnType::categorical_with_cardinality(10)),
            ],
        )
    }

    #[test]
    fn table_shape_bounds_cells_and_labels() {
        let s = mixed_schema(); // 4 + 1 + 10 = 15 cell slots per row
        assert!(s.check_table_shape(1000).is_ok());
        assert!(s.check_table_shape((MAX_TABLE_CELLS / 15) as usize).is_ok());
        assert!(s.check_table_shape((MAX_TABLE_CELLS / 15) as usize + 1).is_err());
        let wide = Schema::new(
            "w",
            "k",
            vec![Column::new("c", ColumnType::categorical_with_cardinality(1 << 16 | 1))],
        );
        assert!(wide.check_table_shape(1).unwrap_err().contains("labels"));
    }

    #[test]
    fn column_partitioning() {
        let s = mixed_schema();
        assert_eq!(s.num_columns(), 3);
        assert_eq!(s.categorical_columns(), vec![0, 2]);
        assert_eq!(s.continuous_columns(), vec![1]);
        assert_eq!(s.max_cardinality(), 10);
    }

    #[test]
    fn accepts_checks_type_and_domain() {
        let s = mixed_schema();
        assert!(s.column_type(0).accepts(&Value::Categorical(3)));
        assert!(!s.column_type(0).accepts(&Value::Categorical(4)), "out of domain");
        assert!(!s.column_type(0).accepts(&Value::Continuous(1.0)));
        assert!(s.column_type(1).accepts(&Value::Continuous(55.0)));
        assert!(!s.column_type(1).accepts(&Value::Continuous(f64::NAN)));
        assert!(!s.column_type(1).accepts(&Value::Categorical(0)));
    }

    #[test]
    fn cardinality_labels() {
        let ty = ColumnType::categorical_with_cardinality(3);
        assert_eq!(ty.cardinality(), Some(3));
        if let ColumnType::Categorical { labels } = &ty {
            assert_eq!(labels, &["L0", "L1", "L2"]);
        }
        let cont = ColumnType::Continuous { min: 0.0, max: 1.0 };
        assert_eq!(cont.cardinality(), None);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_schema_rejected() {
        Schema::new("x", "k", vec![]);
    }
}
