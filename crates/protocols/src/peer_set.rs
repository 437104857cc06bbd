//! A set of peer indices with an O(1) size, for the "heard from `x`
//! peers" progress checks every protocol waits on.

/// Peers `0..k` that have done something (sent a share, answered, made a
/// claim). Membership and size are both O(1), so a progress check after
/// every message costs nothing in `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PeerSet {
    flags: Vec<bool>,
    len: usize,
}

impl PeerSet {
    /// The empty set over peers `0..k`.
    pub(crate) fn new(k: usize) -> Self {
        PeerSet {
            flags: vec![false; k],
            len: 0,
        }
    }

    /// Adds peer `i`; returns whether it was new. An index `≥ k` is
    /// ignored and returns `false`.
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        match self.flags.get_mut(i) {
            Some(flag) if !*flag => {
                *flag = true;
                self.len += 1;
                true
            }
            _ => false,
        }
    }

    /// Number of peers in the set.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Peers not in the set, ascending.
    pub(crate) fn missing(&self) -> impl Iterator<Item = usize> + '_ {
        self.flags
            .iter()
            .enumerate()
            .filter(|(_, &f)| !f)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_counts_distinct_in_range_inserts() {
        let mut s = PeerSet::new(4);
        assert!(s.insert(2));
        assert!(!s.insert(2));
        assert!(!s.insert(4), "out of range is ignored");
        assert!(s.insert(0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.missing().collect::<Vec<_>>(), vec![1, 3]);
    }
}
