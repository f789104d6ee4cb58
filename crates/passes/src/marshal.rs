//! Elision of interior marshalling (`pack` → `unpack`) node pairs.
//!
//! Scalar expansion wraps each expanded region with `Pack`/`Unpack` nodes
//! so its boundary stays tensor-typed for splicing. When two expanded
//! regions become adjacent after lowering (e.g. the element-wise multiply
//! fabric feeding a sum's adder tree), the intermediate tensor is packed
//! only to be immediately unpacked. On the real fabrics (TABLA PEs, DECO
//! DSP cascades) those values flow wire-to-wire, so this pass rewires the
//! scalar edges directly and deletes the marshalling pair. Boundary
//! `unpack`/`pack` nodes (actual data streaming) are untouched.

use crate::manager::{Invalidations, Pass, PassStats};
use srdfg::{NodeKind, SrDfg};

/// Removes interior `pack`→`unpack` pairs, wiring producers to consumers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElideMarshalling;

impl Pass for ElideMarshalling {
    fn name(&self) -> &'static str {
        "elide-marshalling"
    }

    fn run_on_graph(&self, graph: &mut SrDfg) -> PassStats {
        let mut stats = PassStats::default();
        // Elision only rewires consumers — producers are never reassigned —
        // so no new Pack→Unpack adjacency can appear while processing. One
        // scan therefore finds every pair; processing them in collection
        // order is safe because a Pack shared by several Unpacks is only
        // removed once its tensor has lost its last consumer.
        let candidates: Vec<_> = graph
            .iter_nodes()
            .filter_map(|(id, node)| {
                if !matches!(node.kind, NodeKind::Unpack) {
                    return None;
                }
                let e = node.inputs[0];
                let (producer, _) = graph.edge(e).producer?;
                let pnode = graph.node(producer);
                // Only elide within one accelerator: across a domain (or
                // per-component target-override) boundary the tensor
                // really is packed, DMA-transferred, and unpacked on the
                // other fabric.
                if matches!(pnode.kind, NodeKind::Pack)
                    && pnode.domain == node.domain
                    && pnode.target == node.target
                {
                    Some((id, producer, e))
                } else {
                    None
                }
            })
            .collect();
        for (unpack_id, pack_id, tensor_edge) in candidates {
            // Read the wiring at process time: an earlier pair may have
            // retargeted this pack's input slots.
            let unpack_outputs = graph.node(unpack_id).outputs.clone();
            let pack_inputs = graph.node(pack_id).inputs.clone();
            debug_assert_eq!(unpack_outputs.len(), pack_inputs.len());
            graph.remove_node(unpack_id);
            for (dst, src) in unpack_outputs.iter().zip(&pack_inputs) {
                // Retarget every consumer of the unpacked element to the
                // packed element's source edge.
                let consumers = std::mem::take(&mut graph.edge_mut(*dst).consumers);
                for (cnode, cslot) in consumers {
                    graph.node_mut(cnode).inputs[cslot] = *src;
                    graph.edge_mut(*src).consumers.push((cnode, cslot));
                }
                for bo in &mut graph.boundary_outputs {
                    if *bo == *dst {
                        *bo = *src;
                    }
                }
            }
            // Drop the pack too when its tensor is now unused.
            let edge = graph.edge(tensor_edge);
            if edge.consumers.is_empty() && !graph.boundary_outputs.contains(&tensor_edge) {
                graph.remove_node(pack_id);
            }
            stats.changed = true;
            stats.rewrites += 1;
        }
        if stats.changed {
            stats.invalidates = Invalidations::TOPOLOGY;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_lower::{lower, AcceleratorSpec, TargetMap};
    use pmlang::Domain;
    use srdfg::Budget;
    use std::collections::HashMap;

    fn scalar_lowered(src: &str) -> SrDfg {
        let prog = pmlang::parse(src).unwrap();
        let mut g = srdfg::build(&prog, &srdfg::Bindings::default()).unwrap();
        g.domain = Some(Domain::Dsp);
        let host = AcceleratorSpec::general_purpose("CPU", Domain::Dsp);
        let mut targets = TargetMap::host_only(host);
        targets.set(AcceleratorSpec::new(
            "SC",
            Domain::Dsp,
            ["add", "sub", "mul", "const", "unpack", "pack", "sigmoid"],
        ));
        lower(&mut g, &targets, None, &Budget::unlimited()).unwrap();
        g
    }

    #[test]
    fn interior_pairs_removed_boundary_kept() {
        let mut g = scalar_lowered(
            "main(input float a[8], input float b[8], output float y) {
                 index i[0:7];
                 y = sum[i](a[i]*b[i]);
             }",
        );
        let pairs_before = g
            .iter_nodes()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Unpack | NodeKind::Pack))
            .count();
        assert!(pairs_before >= 4, "muls pack, adders unpack: {pairs_before}");
        let stats = ElideMarshalling.run(&mut g);
        assert!(stats.changed);
        // Boundary marshalling survives: unpack for a and b, pack for y.
        let unpacks = g.iter_nodes().filter(|(_, n)| matches!(n.kind, NodeKind::Unpack)).count();
        let packs = g.iter_nodes().filter(|(_, n)| matches!(n.kind, NodeKind::Pack)).count();
        assert_eq!(unpacks, 2, "boundary unpacks for a and b");
        assert_eq!(packs, 1, "boundary pack for y");
        srdfg::validate::validate(&g).unwrap();

        // The multiply now feeds the adder tree directly.
        let mul_feeds_add = g.iter_nodes().any(|(_, n)| {
            if n.name != "mul" {
                return false;
            }
            g.edge(n.outputs[0]).consumers.iter().any(|&(c, _)| g.node(c).name == "add")
        });
        assert!(mul_feeds_add);
    }

    #[test]
    fn elision_preserves_semantics() {
        let src = "main(input float a[8], input float b[8], output float y) {
             index i[0:7];
             y = sum[i](a[i]*b[i]) * 2.0;
         }";
        let mut g = scalar_lowered(src);
        let t =
            |v: Vec<f64>| srdfg::Tensor::from_vec(pmlang::DType::Float, vec![v.len()], v).unwrap();
        let feeds = HashMap::from([
            ("a".to_string(), t((1..=8).map(f64::from).collect())),
            ("b".to_string(), t(vec![1.0; 8])),
        ]);
        let before = srdfg::Machine::new(g.clone()).invoke(&feeds).unwrap();
        ElideMarshalling.run(&mut g);
        let after = srdfg::Machine::new(g).invoke(&feeds).unwrap();
        assert_eq!(before["y"], after["y"]);
        assert_eq!(after["y"].scalar_value().unwrap(), 72.0);
    }
}
