//! Topology specs: the one parser behind every text-named topology
//! (the CLI's `--topology` and `graph build`, and `precipice serve`'s
//! `open`).
//!
//! [`TopologySpec::parse`] checks every precondition the generators
//! assert, and [`TopologySpec::build`] bounds what is built in memory,
//! so a bad spec comes back as an error message, never as a generator
//! panic or an allocation failure.

use std::fmt;

use crate::generators::{try_erdos_renyi_connected, try_random_geometric_connected};
use crate::{grid, path, random_tree, ring, star, torus, Graph, GridDims};

/// The most nodes [`TopologySpec::build`] builds in memory; larger
/// graphs are streamed to a `.pcsr` file and mapped (`pcsr:PATH`).
pub const MAX_BUILT_NODES: usize = 1 << 20;

/// The most nodes of a random geometric or Erdős–Rényi spec: their
/// generators test every node pair, so time (and, at high density,
/// edges) grows with n².
pub const MAX_PAIRWISE_NODES: usize = 1 << 12;

/// A parsed, validated topology spec.
///
/// | spec | topology |
/// |---|---|
/// | `torus:N` | N×N torus, N ≥ 3 |
/// | `grid:WxH` | W×H mesh, W, H ≥ 1 |
/// | `ring:N` | cycle, N ≥ 3 |
/// | `path:N` | path, N ≥ 1 |
/// | `star:N` | star, N ≥ 2 |
/// | `tree:N` | random labelled tree, N ≥ 1 |
/// | `geometric:N:R` | connected random geometric graph, R > 0 |
/// | `er:N:P` | connected Erdős–Rényi graph, 0 ≤ P ≤ 1 |
/// | `pcsr:PATH` | a mapped graph store file |
///
/// `geometric` and `er` take at most [`MAX_PAIRWISE_NODES`] nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// `torus:N`.
    Torus(GridDims),
    /// `grid:WxH`.
    Grid(GridDims),
    /// `ring:N`.
    Ring(usize),
    /// `path:N`.
    Path(usize),
    /// `star:N`.
    Star(usize),
    /// `tree:N` (random; the seed picks the tree).
    Tree(usize),
    /// `geometric:N:R` (random; the seed picks the points).
    Geometric {
        /// Node count.
        n: usize,
        /// Connection radius in the unit square.
        radius: f64,
    },
    /// `er:N:P` (random; the seed picks the edges).
    ErdosRenyi {
        /// Node count.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// `pcsr:PATH`.
    Pcsr(String),
}

impl TopologySpec {
    /// Parses and validates `spec` (see the [type docs](Self)).
    pub fn parse(spec: &str) -> Result<TopologySpec, String> {
        // Match `pcsr:` before the colon split: paths may hold colons.
        if let Some(file) = spec.strip_prefix("pcsr:") {
            return Ok(TopologySpec::Pcsr(file.to_owned()));
        }
        let parts: Vec<&str> = spec.split(':').collect();
        let num = |s: &str| {
            s.parse::<usize>()
                .map_err(|e| format!("bad number {s:?} in topology {spec:?}: {e}"))
        };
        let real = |s: &str| {
            s.parse::<f64>()
                .map_err(|e| format!("bad number {s:?} in topology {spec:?}: {e}"))
        };
        let parsed = match parts.as_slice() {
            ["torus", side] => TopologySpec::Torus(GridDims::square(num(side)?)),
            ["grid", dims] => {
                let (w, h) = dims
                    .split_once('x')
                    .ok_or_else(|| format!("grid wants <w>x<h>, got {dims:?}"))?;
                TopologySpec::Grid(GridDims {
                    width: num(w)?,
                    height: num(h)?,
                })
            }
            ["ring", n] => TopologySpec::Ring(num(n)?),
            ["path", n] => TopologySpec::Path(num(n)?),
            ["star", n] => TopologySpec::Star(num(n)?),
            ["tree", n] => TopologySpec::Tree(num(n)?),
            ["geometric", n, r] => TopologySpec::Geometric {
                n: num(n)?,
                radius: real(r)?,
            },
            ["er", n, p] => TopologySpec::ErdosRenyi {
                n: num(n)?,
                p: real(p)?,
            },
            [kind, ..] if parts.len() > 1 && !KINDS.contains(kind) => {
                return Err(format!("unknown topology kind {kind:?}"))
            }
            _ => return Err(format!("malformed topology {spec:?}")),
        };
        parsed
            .check()
            .map_err(|why| format!("topology {spec:?}: {why}"))?;
        Ok(parsed)
    }

    /// The generator preconditions, plus a node count that fits `usize`.
    fn check(&self) -> Result<(), String> {
        let least = |n: usize, least: usize| {
            if n >= least {
                Ok(())
            } else {
                Err(format!("needs at least {least} nodes, got {n}"))
            }
        };
        let pairwise = |n: usize| {
            least(n, 1)?;
            if n <= MAX_PAIRWISE_NODES {
                Ok(())
            } else {
                Err(format!("takes at most {MAX_PAIRWISE_NODES} nodes, got {n}"))
            }
        };
        match *self {
            TopologySpec::Torus(d) if d.width < 3 => Err(format!(
                "needs a side of at least 3 (9 nodes), got {}",
                d.width
            )),
            TopologySpec::Grid(d) if d.width == 0 || d.height == 0 => {
                Err("needs at least 1 node per row and column".to_owned())
            }
            TopologySpec::Torus(d) | TopologySpec::Grid(d) => d
                .width
                .checked_mul(d.height)
                .map(|_| ())
                .ok_or_else(|| "has too many nodes".to_owned()),
            TopologySpec::Ring(n) => least(n, 3),
            TopologySpec::Path(n) | TopologySpec::Tree(n) => least(n, 1),
            TopologySpec::Star(n) => least(n, 2),
            TopologySpec::Geometric { n, radius } => {
                pairwise(n)?;
                if radius > 0.0 {
                    Ok(())
                } else {
                    Err(format!("radius must be positive, got {radius}"))
                }
            }
            TopologySpec::ErdosRenyi { n, p } => {
                pairwise(n)?;
                if (0.0..=1.0).contains(&p) {
                    Ok(())
                } else {
                    Err(format!("edge probability must be in [0, 1], got {p}"))
                }
            }
            TopologySpec::Pcsr(_) => Ok(()),
        }
    }

    /// Node count; `None` for a `pcsr:` file (known once it is opened).
    fn nodes(&self) -> Option<usize> {
        match *self {
            TopologySpec::Torus(d) | TopologySpec::Grid(d) => Some(d.width * d.height),
            TopologySpec::Ring(n)
            | TopologySpec::Path(n)
            | TopologySpec::Star(n)
            | TopologySpec::Tree(n)
            | TopologySpec::Geometric { n, .. }
            | TopologySpec::ErdosRenyi { n, .. } => Some(n),
            TopologySpec::Pcsr(_) => None,
        }
    }

    /// Builds the graph (random kinds from `seed`), or maps the `pcsr:`
    /// file. Refuses more than [`MAX_BUILT_NODES`] nodes, and a random
    /// kind whose samples never come out connected.
    pub fn build(&self, seed: u64) -> Result<Graph, String> {
        if let TopologySpec::Pcsr(file) = self {
            return Graph::open_pcsr(file).map_err(|e| format!("cannot open {file:?}: {e}"));
        }
        let n = self.nodes().unwrap_or(0);
        if n > MAX_BUILT_NODES {
            return Err(format!(
                "topology {self} has {n} nodes; at most {MAX_BUILT_NODES} are built in \
                 memory (larger graphs open as pcsr:PATH)"
            ));
        }
        let unconnected = || format!("topology {self}: no connected sample after 64 attempts");
        Ok(match *self {
            TopologySpec::Torus(d) => torus(d),
            TopologySpec::Grid(d) => grid(d),
            TopologySpec::Ring(n) => ring(n),
            TopologySpec::Path(n) => path(n),
            TopologySpec::Star(n) => star(n),
            TopologySpec::Tree(n) => random_tree(n, seed),
            TopologySpec::Geometric { n, radius } => {
                try_random_geometric_connected(n, radius, seed).ok_or_else(unconnected)?
            }
            TopologySpec::ErdosRenyi { n, p } => {
                try_erdos_renyi_connected(n, p, seed).ok_or_else(unconnected)?
            }
            TopologySpec::Pcsr(_) => unreachable!("opened above"),
        })
    }
}

const KINDS: [&str; 8] = [
    "torus",
    "grid",
    "ring",
    "path",
    "star",
    "tree",
    "geometric",
    "er",
];

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Torus(d) => write!(f, "torus:{}", d.width),
            TopologySpec::Grid(d) => write!(f, "grid:{}x{}", d.width, d.height),
            TopologySpec::Ring(n) => write!(f, "ring:{n}"),
            TopologySpec::Path(n) => write!(f, "path:{n}"),
            TopologySpec::Star(n) => write!(f, "star:{n}"),
            TopologySpec::Tree(n) => write!(f, "tree:{n}"),
            TopologySpec::Geometric { n, radius } => write!(f, "geometric:{n}:{radius}"),
            TopologySpec::ErdosRenyi { n, p } => write!(f, "er:{n}:{p}"),
            TopologySpec::Pcsr(file) => write!(f, "pcsr:{file}"),
        }
    }
}

/// Parses `spec` and builds it: [`TopologySpec::parse`] then
/// [`TopologySpec::build`].
pub fn parse_topology(spec: &str, seed: u64) -> Result<Graph, String> {
    TopologySpec::parse(spec)?.build(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds() {
        assert_eq!(parse_topology("torus:4", 0).unwrap().len(), 16);
        assert_eq!(parse_topology("grid:3x5", 0).unwrap().len(), 15);
        assert_eq!(parse_topology("ring:7", 0).unwrap().len(), 7);
        assert_eq!(parse_topology("path:1", 0).unwrap().len(), 1);
        assert_eq!(parse_topology("star:2", 0).unwrap().len(), 2);
        assert_eq!(parse_topology("tree:9", 1).unwrap().len(), 9);
        assert!(parse_topology("geometric:30:0.4", 1)
            .unwrap()
            .is_connected());
        assert!(parse_topology("er:30:0.3", 1).unwrap().is_connected());
        let spec = TopologySpec::parse("grid:2x3").unwrap();
        assert_eq!(spec.to_string(), "grid:2x3");
        assert_eq!(spec.nodes(), Some(6));
    }

    /// Every generator precondition, and the bounds, come back as
    /// errors instead of panics.
    #[test]
    fn bad_specs_are_errors() {
        for spec in [
            "torus:0",
            "torus:2",
            "ring:0",
            "ring:2",
            "grid:0x3",
            "grid:3",
            "grid:18446744073709551615x2",
            "path:0",
            "star:1",
            "tree:0",
            "geometric:0:0.5",
            "geometric:10:0",
            "geometric:10:nan",
            "geometric:5000:0.5",
            "er:10:0",
            "er:10:2",
            "er:0:0.5",
            "torus:1025",
            "ring:2000000",
            "torus",
            "torus:4:4",
            "moebius:3",
            "ring:-1",
            "pcsr:/nonexistent/graph.pcsr",
        ] {
            assert!(parse_topology(spec, 0).is_err(), "{spec}");
        }
        assert!(parse_topology("moebius:3", 0)
            .unwrap_err()
            .contains("unknown topology"));
        assert!(parse_topology("torus", 0)
            .unwrap_err()
            .contains("malformed"));
        // Too big to build is still a valid spec (it can be streamed).
        assert_eq!(
            TopologySpec::parse("torus:10000").unwrap().nodes(),
            Some(100_000_000)
        );
    }
}
