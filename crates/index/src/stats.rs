//! Access accounting.
//!
//! The paper reports "# of candidates" and "# of page accesses" as
//! implementation-bias-free proxies for CPU and IO cost (§5.3). One index
//! node corresponds to one disk page, so `node_accesses` is the page-access
//! count.

/// Counters collected during a single index operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Index nodes (= disk pages) read during the search.
    pub node_accesses: u64,
    /// Leaf-level nodes among those accesses.
    pub leaf_accesses: u64,
    /// Stored points whose exact feature distance was evaluated.
    pub points_examined: u64,
    /// Points that satisfied the index-level predicate (the candidate set
    /// handed to the exact-DTW refinement step).
    pub candidates: u64,
}

impl QueryStats {
    /// Page accesses for the operation — the paper's IO-cost proxy (one
    /// index node = one disk page).
    pub fn pages(&self) -> u64 {
        self.node_accesses
    }

    /// Merges counters from another operation (for averaging over query
    /// batches).
    pub fn absorb(&mut self, other: &QueryStats) {
        self.node_accesses += other.node_accesses;
        self.leaf_accesses += other.leaf_accesses;
        self.points_examined += other.points_examined;
        self.candidates += other.candidates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_all_fields() {
        let mut a = QueryStats { node_accesses: 1, leaf_accesses: 1, points_examined: 5, candidates: 2 };
        let b = QueryStats { node_accesses: 3, leaf_accesses: 2, points_examined: 7, candidates: 1 };
        a.absorb(&b);
        assert_eq!(
            a,
            QueryStats { node_accesses: 4, leaf_accesses: 3, points_examined: 12, candidates: 3 }
        );
    }

    #[test]
    fn pages_derive_from_counters() {
        let s = QueryStats { node_accesses: 6, leaf_accesses: 4, points_examined: 50, candidates: 5 };
        assert_eq!(s.pages(), 6);
    }
}
