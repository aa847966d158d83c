//! Identifiers for the simulated hardware and software entities.
//!
//! A [`Pid`] identifies a process for the lifetime of the simulation; it
//! records which node and CPU the process runs on (mirroring GUARDIAN's
//! `<cpu,pin>` addressing, extended with the node number as EXPAND did).

use std::fmt;

/// A network node (a complete Tandem "system" of up to 16 processors).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u8);

/// A processor module within a node (0-based, at most 16 per node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u8);

/// A point-to-point communications link between two nodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// A process identifier: the node and CPU it lives on plus a
/// simulation-unique index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid {
    pub node: NodeId,
    pub cpu: CpuId,
    /// Simulation-global process index; unique across all nodes and never
    /// reused, so a `Pid` held after the process dies can never alias a
    /// different process.
    pub index: u32,
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\\N{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\\N{}.{}.p{}", self.node.0, self.cpu.0, self.index)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_formatting() {
        let pid = Pid {
            node: NodeId(2),
            cpu: CpuId(5),
            index: 17,
        };
        assert_eq!(format!("{pid}"), "\\N2.5.p17");
        assert_eq!(format!("{}", NodeId(3)), "\\N3");
        assert_eq!(format!("{}", CpuId(7)), "cpu7");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use crate::DetHashSet;
        let mut set = DetHashSet::default();
        set.insert(NodeId(1));
        set.insert(NodeId(1));
        assert_eq!(set.len(), 1);
        assert!(CpuId(0) < CpuId(1));
    }
}
