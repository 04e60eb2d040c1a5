//! What a column's stored bounds prove about an integer predicate leaf.
//!
//! Two scans skip data by its bounds: the columnar replica's row groups
//! (`cjoin_core::colscan`) and the row store's pages ([`Table::select_where`],
//! through [`BoundPredicate::may_match_page`]). Both ask the same question of an
//! [`IntZone`] — can rows whose non-NULL values lie in `[min, max]`, with or
//! without NULLs, satisfy this leaf? — and [`IntLeaf::verdict`] is the one
//! answer. It follows [`BoundPredicate`]'s two-valued NULL semantics: a
//! comparison with a NULL operand is `false`, so a zone with no non-NULL value
//! (`min > max`) matches no integer leaf, and `Always` needs `!has_null`.
//!
//! [`Table::select_where`]: cjoin_storage::Table::select_where
//! [`BoundPredicate`]: crate::BoundPredicate
//! [`BoundPredicate::may_match_page`]: crate::BoundPredicate::may_match_page

use cjoin_storage::IntZone;

use crate::expr::CompareOp;

/// What a zone proves about a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneVerdict {
    /// No row in the zone can match: its bytes need not be touched for this
    /// predicate.
    Never,
    /// Some rows may match: evaluate per row (or per run).
    Maybe,
    /// Every row in the zone matches: per-row evaluation can be skipped.
    Always,
}

/// An integer predicate leaf over one column, with an integer literal.
#[derive(Debug, Clone, Copy)]
pub enum IntLeaf<'a> {
    /// `column <op> value`.
    Cmp(CompareOp, i64),
    /// `column BETWEEN lo AND hi`, inclusive.
    Between(i64, i64),
    /// `column IN (values)`; `values` sorted and distinct.
    In(&'a [i64]),
}

impl IntLeaf<'_> {
    /// What `zone` proves about the leaf over the rows it bounds.
    pub fn verdict(&self, zone: &IntZone) -> ZoneVerdict {
        let IntZone { min, max, has_null } = *zone;
        if min > max {
            return ZoneVerdict::Never; // no non-NULL value: no row matches a comparison
        }
        let (never, always) = match *self {
            IntLeaf::Cmp(op, v) => match op {
                CompareOp::Eq => (!zone.may_contain(v), min == max && min == v),
                CompareOp::Ne => (min == max && min == v, !zone.may_contain(v)),
                CompareOp::Lt => (min >= v, max < v),
                CompareOp::Le => (min > v, max <= v),
                CompareOp::Gt => (max <= v, min > v),
                CompareOp::Ge => (max < v, min >= v),
            },
            IntLeaf::Between(lo, hi) => (max < lo || min > hi, min >= lo && max <= hi),
            IntLeaf::In(values) => {
                // First candidate value >= min; the zone may match only if it is <= max.
                let at = values.partition_point(|&v| v < min);
                let overlaps = values.get(at).is_some_and(|&v| v <= max);
                (!overlaps, min == max && values.binary_search(&min).is_ok())
            }
        };
        if never {
            ZoneVerdict::Never
        } else if always && !has_null {
            ZoneVerdict::Always
        } else {
            ZoneVerdict::Maybe
        }
    }
}
