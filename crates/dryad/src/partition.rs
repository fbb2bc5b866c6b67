//! Static data partitioning.
//!
//! DryadLINQ required "data for the computations ... be partitioned manually
//! and stored beforehand in the local disks of the computational nodes",
//! with the paper's framework implementing "the data partition and the
//! distribution programs" (§2.3, §2.4). These are those programs.

/// Deal items round-robin across `n` partitions (even counts, arbitrary
/// content mix — the paper's default distribution).
pub fn partition_round_robin<T>(items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    assert!(n > 0, "need at least one partition");
    let mut parts: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        parts[i % n].push(item);
    }
    parts
}

/// Split items into `n` contiguous runs (preserves order; uneven tails).
pub fn partition_contiguous<T>(items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    assert!(n > 0, "need at least one partition");
    let len = items.len();
    let base = len / n;
    let extra = len % n;
    let mut parts = Vec::with_capacity(n);
    let mut iter = items.into_iter();
    for i in 0..n {
        let take = base + usize::from(i < extra);
        parts.push(iter.by_ref().take(take).collect());
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_evenly() {
        let parts = partition_round_robin((0..10).collect(), 3);
        assert_eq!(parts[0], vec![0, 3, 6, 9]);
        assert_eq!(parts[1], vec![1, 4, 7]);
        assert_eq!(parts[2], vec![2, 5, 8]);
    }

    #[test]
    fn contiguous_preserves_order() {
        let parts = partition_contiguous((0..10).collect(), 3);
        assert_eq!(parts[0], vec![0, 1, 2, 3]);
        assert_eq!(parts[1], vec![4, 5, 6]);
        assert_eq!(parts[2], vec![7, 8, 9]);
        let flat: Vec<i32> = parts.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn more_partitions_than_items() {
        let parts = partition_round_robin(vec![1, 2], 5);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 2);
        let parts = partition_contiguous(vec![1, 2], 5);
        assert_eq!(parts.iter().filter(|p| !p.is_empty()).count(), 2);
    }
}
