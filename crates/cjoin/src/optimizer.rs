//! Run-time filter ordering (§3.4).
//!
//! The order of Filters determines the expected number of probes per fact tuple:
//! applying the most selective Filters first drops irrelevant tuples early. Because
//! Filter selectivities depend on the *current query mix*, the order is optimised
//! continuously from run-time statistics rather than once at plan time — the same
//! formulation as adaptive ordering of pipelined stream filters (Babu et al.), which
//! the paper adopts.
//!
//! Every Filter has identical cost (one hash probe + one bitwise AND), so the
//! rank-ordering rule reduces to sorting Filters by decreasing observed drop rate.
//! The decision runs every 50 ms on the engine's supervisor thread, which is
//! awake on that timer anyway and is off the scan's hot path; applying it is a
//! single swap of the shared [`FilterChain`] order, picked up by workers at their
//! next batch.

use std::sync::Arc;

use crate::filter::FilterChain;
use crate::stats::SharedCounters;

/// Minimum number of tuples a Filter must have observed before its drop rate is
/// trusted; below this the current order is kept.
pub const MIN_OBSERVATIONS: u64 = 256;

/// Decides and applies a new filter order from the observed drop rates.
///
/// Returns the new order (dimension names) if a reordering was applied, `None` if
/// the order was already optimal or there is not yet enough evidence.
pub fn reorder_filters(chain: &FilterChain, counters: &Arc<SharedCounters>) -> Option<Vec<String>> {
    let filters = chain.snapshot();
    if filters.len() < 2 {
        return None;
    }
    // Require a minimum amount of evidence on every filter.
    if filters
        .iter()
        .any(|f| f.stats.tuples_in.load(std::sync::atomic::Ordering::Relaxed) < MIN_OBSERVATIONS)
    {
        return None;
    }
    let mut ranked: Vec<(String, f64)> = filters
        .iter()
        .map(|f| (f.name.clone(), f.stats.drop_rate()))
        .collect();
    // Highest drop rate first; ties keep the current relative order (stable sort).
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let new_order: Vec<String> = ranked.into_iter().map(|(name, _)| name).collect();
    let changed = chain.reorder(&new_order);
    // Reset statistics so the next decision reflects the (possibly changed) query mix
    // and the new position of each filter in the chain.
    for f in chain.snapshot() {
        f.stats.reset();
    }
    if changed {
        SharedCounters::add(&counters.filter_reorders, 1);
        Some(new_order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::DimensionTable;
    use cjoin_common::QuerySet;
    use std::sync::atomic::Ordering;

    fn filter(name: &str, slot: usize, tuples_in: u64, dropped: u64) -> Arc<DimensionTable> {
        let f = DimensionTable::new(name, slot, 0, 0, 8, &QuerySet::new(8));
        f.stats.tuples_in.store(tuples_in, Ordering::Relaxed);
        f.stats.tuples_dropped.store(dropped, Ordering::Relaxed);
        Arc::new(f)
    }

    #[test]
    fn orders_by_decreasing_drop_rate() {
        let chain = FilterChain::new();
        chain.push(filter("weak", 0, 1000, 10)); // 1 % drop
        chain.push(filter("strong", 1, 1000, 900)); // 90 % drop
        chain.push(filter("medium", 2, 1000, 400)); // 40 % drop
        let counters = SharedCounters::new();
        let order = reorder_filters(&chain, &counters).expect("reordering applied");
        assert_eq!(order, vec!["strong", "medium", "weak"]);
        assert_eq!(chain.order(), vec!["strong", "medium", "weak"]);
        assert_eq!(counters.filter_reorders.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stats_are_reset_after_a_decision() {
        let chain = FilterChain::new();
        chain.push(filter("a", 0, 1000, 500));
        chain.push(filter("b", 1, 1000, 100));
        let counters = SharedCounters::new();
        reorder_filters(&chain, &counters);
        for f in chain.snapshot() {
            assert_eq!(f.stats.snapshot(), (0, 0, 0, 0));
        }
    }

    #[test]
    fn no_change_when_order_is_already_optimal() {
        let chain = FilterChain::new();
        chain.push(filter("best", 0, 1000, 900));
        chain.push(filter("worst", 1, 1000, 100));
        let counters = SharedCounters::new();
        assert!(reorder_filters(&chain, &counters).is_none());
        assert_eq!(counters.filter_reorders.load(Ordering::Relaxed), 0);
        assert_eq!(chain.order(), vec!["best", "worst"]);
    }

    #[test]
    fn waits_for_enough_evidence() {
        let chain = FilterChain::new();
        chain.push(filter("a", 0, 10, 9)); // below MIN_OBSERVATIONS
        chain.push(filter("b", 1, 1000, 100));
        let counters = SharedCounters::new();
        assert!(reorder_filters(&chain, &counters).is_none());
        // Evidence preserved (not reset) while waiting.
        assert_eq!(chain.snapshot()[0].stats.snapshot().0, 10);
    }

    #[test]
    fn single_filter_chain_is_never_reordered() {
        let chain = FilterChain::new();
        chain.push(filter("only", 0, 10_000, 5_000));
        let counters = SharedCounters::new();
        assert!(reorder_filters(&chain, &counters).is_none());
    }
}
