//! Articulation-point analysis: which single node failures disconnect
//! the network?
//!
//! The paper's connectivity constraint guarantees one component, but a
//! deployment can still hinge on critical nodes. Robustness reporting
//! for both FRA plans (relay chains are chains of articulation points)
//! and CMA swarms uses this module.

use crate::UnitDiskGraph;

/// Articulation points (cut vertices) of the graph, by Tarjan's
/// DFS low-link algorithm, ascending order. A node is an articulation
/// point iff removing it increases the number of connected components.
///
/// # Example
///
/// ```
/// use cps_geometry::Point2;
/// use cps_network::{articulation_points, UnitDiskGraph};
///
/// // A chain a—b—c: the middle node is critical.
/// let g = UnitDiskGraph::new(
///     vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), Point2::new(2.0, 0.0)],
///     1.0,
/// ).unwrap();
/// assert_eq!(articulation_points(&g), vec![1]);
/// ```
pub fn articulation_points(graph: &UnitDiskGraph) -> Vec<usize> {
    let n = graph.node_count();
    let mut disc = vec![usize::MAX; n]; // discovery times
    let mut low = vec![0usize; n];
    let mut is_cut = vec![false; n];
    let mut timer = 0usize;

    // Iterative DFS to avoid recursion-depth limits on long chains.
    for root in 0..n {
        if disc[root] != usize::MAX {
            continue;
        }
        // Stack frames: (node, parent, neighbor cursor).
        let mut stack: Vec<(usize, usize, usize)> = vec![(root, usize::MAX, 0)];
        let mut root_children = 0usize;
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        while let Some(&mut (u, parent, ref mut cursor)) = stack.last_mut() {
            if *cursor < graph.neighbors(u).len() {
                let v = graph.neighbors(u)[*cursor];
                *cursor += 1;
                if disc[v] == usize::MAX {
                    if u == root {
                        root_children += 1;
                    }
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, u, 0));
                } else if v != parent {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&mut (p, _, _)) = stack.last_mut() {
                    low[p] = low[p].min(low[u]);
                    if p != root && low[u] >= disc[p] {
                        is_cut[p] = true;
                    }
                }
            }
        }
        if root_children > 1 {
            is_cut[root] = true;
        }
    }
    (0..n).filter(|&i| is_cut[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_geometry::Point2;

    fn chain(n: usize) -> UnitDiskGraph {
        let pts = (0..n).map(|i| Point2::new(i as f64, 0.0)).collect();
        UnitDiskGraph::new(pts, 1.0).unwrap()
    }

    #[test]
    fn chain_interior_is_critical() {
        let g = chain(5);
        assert_eq!(articulation_points(&g), vec![1, 2, 3]);
    }

    #[test]
    fn cycle_has_no_articulation_points() {
        // A 6-ring: every node has two disjoint paths to every other.
        let pts: Vec<Point2> = (0..6)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / 6.0;
                Point2::new(a.cos(), a.sin())
            })
            .collect();
        let g = UnitDiskGraph::new(pts, 1.1).unwrap();
        assert!(g.is_connected());
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn star_center_is_the_only_cut() {
        let mut pts = vec![Point2::new(0.0, 0.0)];
        for i in 0..4 {
            let a = std::f64::consts::TAU * i as f64 / 4.0;
            pts.push(Point2::new(a.cos(), a.sin()));
        }
        let g = UnitDiskGraph::new(pts, 1.0).unwrap();
        assert_eq!(articulation_points(&g), vec![0]);
    }

    #[test]
    fn disconnected_components_are_handled() {
        // Two separate chains of 3.
        let mut pts: Vec<Point2> = (0..3).map(|i| Point2::new(i as f64, 0.0)).collect();
        pts.extend((0..3).map(|i| Point2::new(i as f64, 100.0)));
        let g = UnitDiskGraph::new(pts, 1.0).unwrap();
        assert_eq!(articulation_points(&g), vec![1, 4]);
    }

    #[test]
    fn trivial_graphs() {
        assert!(articulation_points(&chain(1)).is_empty());
        assert!(articulation_points(&chain(2)).is_empty());
        assert!(articulation_points(&UnitDiskGraph::new(vec![], 1.0).unwrap()).is_empty());
    }

    /// Ground-truth check: removing each reported articulation point
    /// must increase the component count, and removing any other node
    /// must not.
    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let pts: Vec<Point2> = (0..14)
                .map(|_| Point2::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
                .collect();
            let g = UnitDiskGraph::new(pts.clone(), 3.0).unwrap();
            let base = g.component_count();
            let cuts = articulation_points(&g);
            for i in 0..pts.len() {
                let rest: Vec<Point2> = pts
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &p)| p)
                    .collect();
                let sub = UnitDiskGraph::new(rest, 3.0).unwrap();
                // Removing an isolated node reduces count by one; a cut
                // vertex increases the count net of its own removal.
                let isolated = g.degree(i) == 0;
                let expect_cut = if isolated {
                    false
                } else {
                    sub.component_count() > base
                };
                assert_eq!(
                    cuts.contains(&i),
                    expect_cut,
                    "node {i}: brute force disagrees"
                );
            }
        }
    }
}
