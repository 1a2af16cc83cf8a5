//! The flattened stream graph.

use std::collections::VecDeque;

use crate::ir::{ElemTy, Scalar, WorkFunction};
use crate::{Error, Result};

/// Index of a node in a [`FlatGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a channel (edge) in a [`FlatGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// What kind of node this is; splitters and joiners are the data-movement
/// nodes generated during flattening (the paper calls them "bandwidth
/// hungry by nature, since they only move data around").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A user filter.
    Filter,
    /// A generated splitter (duplicate or round-robin).
    Splitter,
    /// A generated round-robin joiner.
    Joiner,
}

/// A node of the flat graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Diagnostic name (unique within the graph, suffix-disambiguated).
    pub name: String,
    /// The node's work function.
    pub work: WorkFunction,
    /// Filter / splitter / joiner.
    pub role: Role,
}

/// A FIFO channel between two node ports.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Producer node.
    pub src: NodeId,
    /// Producer output port.
    pub src_port: u8,
    /// Consumer node.
    pub dst: NodeId,
    /// Consumer input port.
    pub dst_port: u8,
    /// Token type carried.
    pub elem: ElemTy,
    /// Tokens pre-queued before the first firing (`m_uv` in the paper's
    /// admissibility condition; non-empty only on feedback edges).
    pub initial: Vec<Scalar>,
}

/// A flattened stream graph: filters plus generated splitters/joiners,
/// connected by typed channels, with at most one external input port and
/// one external output port.
///
/// Construct via [`crate::graph::StreamSpec::flatten`]; a `FlatGraph` value
/// satisfies the structural invariants (all internal ports connected exactly
/// once, matching element types).
///
/// Equality is structural and covers every table value and state
/// initializer; float tokens compare as IEEE values.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatGraph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) input: Option<NodeId>,
    pub(crate) output: Option<NodeId>,
}

impl FlatGraph {
    /// All nodes, indexable by [`NodeId`].
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// All channels, indexable by [`EdgeId`].
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    /// The node whose input port 0 is fed externally, if any.
    #[must_use]
    pub fn input(&self) -> Option<NodeId> {
        self.input
    }

    /// The node whose output port 0 is collected externally, if any.
    #[must_use]
    pub fn output(&self) -> Option<NodeId> {
        self.output
    }

    /// Ids of channels entering `node`, ordered by destination port.
    pub fn in_edges(&self, node: NodeId) -> Vec<EdgeId> {
        let mut v: Vec<EdgeId> = (0..self.edges.len() as u32)
            .map(EdgeId)
            .filter(|&e| self.edges[e.0 as usize].dst == node)
            .collect();
        v.sort_by_key(|&e| self.edges[e.0 as usize].dst_port);
        v
    }

    /// Ids of channels leaving `node`, ordered by source port.
    pub fn out_edges(&self, node: NodeId) -> Vec<EdgeId> {
        let mut v: Vec<EdgeId> = (0..self.edges.len() as u32)
            .map(EdgeId)
            .filter(|&e| self.edges[e.0 as usize].src == node)
            .collect();
        v.sort_by_key(|&e| self.edges[e.0 as usize].src_port);
        v
    }

    /// Tokens the producer pushes on this channel per firing.
    #[must_use]
    pub fn push_rate(&self, e: EdgeId) -> u32 {
        let edge = self.edge(e);
        self.node(edge.src).work.push_rate(edge.src_port)
    }

    /// Tokens the consumer pops from this channel per firing.
    #[must_use]
    pub fn pop_rate(&self, e: EdgeId) -> u32 {
        let edge = self.edge(e);
        self.node(edge.dst).work.pop_rate(edge.dst_port)
    }

    /// Tokens that must be queued for the consumer's firing rule (peek
    /// depth, at least the pop rate).
    #[must_use]
    pub fn peek_rate(&self, e: EdgeId) -> u32 {
        let edge = self.edge(e);
        self.node(edge.dst).work.peek_rate(edge.dst_port)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a graph with no nodes (never produced by flattening).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Count of user filters whose work function peeks beyond what it pops
    /// (the "Peeking Filters" column of Table I).
    #[must_use]
    pub fn peeking_filter_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.role == Role::Filter && n.work.is_peeking())
            .count()
    }

    /// A topological order of the nodes, treating channels that carry
    /// initial tokens as back edges (they are what breaks feedback cycles).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGraph`] if a cycle exists with no initial
    /// tokens anywhere on it — such a graph can never fire.
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if e.initial.is_empty() {
                indeg[e.dst.0 as usize] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(NodeId(i as u32));
            for e in &self.edges {
                if e.src.0 as usize == i && e.initial.is_empty() {
                    let d = e.dst.0 as usize;
                    indeg[d] -= 1;
                    if indeg[d] == 0 {
                        queue.push_back(d);
                    }
                }
            }
        }
        if order.len() != n {
            return Err(Error::InvalidGraph(
                "cycle without initial tokens; the graph can never fire".into(),
            ));
        }
        Ok(order)
    }
}
