//! Rows and row identifiers.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// Physical row identifier: the position of the row in its table's insertion order.
///
/// The continuous scan returns rows in `RowId` order and wraps around, which is the
/// property CJOIN's query start/end bookkeeping relies on (§3.3.3: "the continuous
/// scan returns fact tuples in the same order once resumed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl RowId {
    /// Returns the row position as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An immutable tuple of values.
///
/// Rows are cheap to clone (`Arc<[Value]>`), which matters because dimension rows are
/// copied into CJOIN's dimension hash tables and attached to in-flight fact tuples.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Creates a row from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Returns the value at column `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Returns the value at column `idx`, or `None` if out of range.
    #[inline]
    pub fn try_get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Returns the integer at column `idx`; panics if the column is not an integer.
    ///
    /// Used on hot paths (foreign-key extraction) where the schema guarantees the type.
    #[inline]
    pub fn int(&self, idx: usize) -> i64 {
        self.values[idx].expect_int()
    }

    /// All values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values.iter()).finish()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl From<Arc<[Value]>> for Row {
    fn from(values: Arc<[Value]>) -> Self {
        Self { values }
    }
}

/// Collects into the row's shared storage directly; an iterator that knows its
/// exact length (a range, a slice, a `map` over either) costs one allocation.
impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_accessors() {
        let r = Row::new(vec![Value::int(7), Value::str("EUROPE")]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.get(0), &Value::int(7));
        assert_eq!(r.int(0), 7);
        assert_eq!(r.try_get(1).unwrap().as_str().unwrap(), "EUROPE");
        assert!(r.try_get(2).is_none());
        assert_eq!(r.values().len(), 2);
    }

    #[test]
    #[should_panic]
    fn get_out_of_range_panics() {
        let r = Row::new(vec![Value::int(1)]);
        let _ = r.get(3);
    }

    #[test]
    fn clone_shares_storage() {
        let r = Row::new(vec![Value::int(1), Value::int(2)]);
        let r2 = r.clone();
        assert!(Arc::ptr_eq(&r.values, &r2.values));
        assert_eq!(r, r2);
    }

    #[test]
    fn row_id_ordering_and_display() {
        assert!(RowId(1) < RowId(2));
        assert_eq!(RowId(5).index(), 5);
        assert_eq!(RowId(5).to_string(), "#5");
    }

    #[test]
    fn from_vec() {
        let r: Row = vec![Value::int(1)].into();
        assert_eq!(r.arity(), 1);
    }
}
