//! Differential property tests for the persistent fair-share flow table.
//!
//! A long-lived [`FairShare`] sees random insert/remove sequences whose
//! keys come from a [`Slab`], so freed keys are reused LIFO exactly as
//! the engine's flow slab reuses them.  After each step its rates (as bit
//! patterns) and fill-iteration count must equal those of a fresh table
//! loaded with the same live flows in key order, and those of a
//! from-scratch progressive filling written out below, which visits
//! flows and resources in the order the solver must keep.  Paths may
//! repeat a resource and capacities may be zero; both bands (exact and
//! 0.02) are covered.

use proptest::prelude::*;
use simkit::fairshare::FairShare;
use simkit::slab::Slab;
use simkit::units::Rate;
use simkit::ResourceId;

/// One table operation: insert a flow with `path`, or remove the live
/// flow at `pick` (modulo the live count; an insert when none is live).
#[derive(Debug, Clone)]
struct Op {
    insert: bool,
    path: Vec<u32>,
    pick: usize,
    /// Solve and compare after this op (the batched property only).
    check: bool,
}

fn case() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    (2usize..10).prop_flat_map(|nres| {
        // One capacity in five is zero: a failed resource.
        let cap = (0u32..5, 0.5f64..200.0).prop_map(|(z, c)| if z == 0 { 0.0 } else { c });
        let caps = proptest::collection::vec(cap, nres);
        // Paths draw with replacement, so resources repeat.
        let op = (
            0u32..5,
            proptest::collection::vec(0u32..nres as u32, 1..6),
            0usize..64,
            0u32..3,
        )
            .prop_map(|(kind, path, pick, check)| Op {
                insert: kind < 3,
                path,
                pick,
                check: check == 0,
            });
        (caps, proptest::collection::vec(op, 1..80))
    })
}

/// From-scratch progressive filling over `live` (ascending by key):
/// resources in first-appearance order over the paths, each resource's
/// flows in key order.  Returns the fill-iteration count and
/// `(key, rate bits)` per flow.
fn reference(caps: &[Rate], live: &[(u32, Vec<ResourceId>)], tol: f64) -> (usize, Vec<(u32, u64)>) {
    let n_res = caps.len();
    let mut touched: Vec<usize> = Vec::new();
    let mut res_flows: Vec<Vec<usize>> = vec![Vec::new(); n_res];
    for (fi, (_, path)) in live.iter().enumerate() {
        for &ResourceId(r) in path {
            let r = r as usize;
            if res_flows[r].is_empty() {
                touched.push(r);
            }
            res_flows[r].push(fi);
        }
    }
    let mut rem: Vec<Rate> = caps.iter().map(|c| c.max(Rate::ZERO)).collect();
    let mut nflows: Vec<u32> = res_flows.iter().map(|l| l.len() as u32).collect();
    let mut rates = vec![Rate::ZERO; live.len()];
    let mut frozen = vec![false; live.len()];
    let band = 1.0 + tol + 1e-12;
    let mut iters = 0;
    let mut unfrozen = live.len();
    while unfrozen > 0 {
        iters += 1;
        let mut best = Rate(f64::INFINITY);
        for &r in &touched {
            if nflows[r] > 0 {
                let fair = rem[r] / nflows[r] as f64;
                if fair < best {
                    best = fair;
                }
            }
        }
        let cutoff = best.max(Rate::ZERO) * band;
        for &r in &touched {
            if nflows[r] == 0 {
                continue;
            }
            let fair = (rem[r] / nflows[r] as f64).max(Rate::ZERO);
            if fair > cutoff {
                continue;
            }
            for &f in &res_flows[r] {
                if frozen[f] {
                    continue;
                }
                frozen[f] = true;
                rates[f] = fair;
                unfrozen -= 1;
                for &ResourceId(p) in &live[f].1 {
                    rem[p as usize] -= fair;
                    nflows[p as usize] -= 1;
                }
            }
        }
    }
    let out = live
        .iter()
        .zip(&rates)
        .map(|((k, _), r)| (*k, r.get().to_bits()))
        .collect();
    (iters, out)
}

fn bits(fs: &FairShare) -> Vec<(u32, u64)> {
    fs.results().map(|(k, r)| (k, r.get().to_bits())).collect()
}

/// Replay `ops` on one long-lived table, comparing it with a fresh table
/// and with [`reference`] whenever `check_all` or the op asks for it.
fn run_differential(
    caps: &[f64],
    ops: &[Op],
    tol: f64,
    check_all: bool,
) -> Result<(), proptest::TestCaseError> {
    let caps: Vec<Rate> = caps.iter().map(|&c| Rate(c)).collect();
    let mut slab: Slab<Vec<ResourceId>> = Slab::new();
    let mut long = FairShare::new();
    long.set_tolerance(tol);
    for (step, op) in ops.iter().enumerate() {
        let live_keys: Vec<u32> = slab.iter().map(|(k, _)| k).collect();
        if op.insert || live_keys.is_empty() {
            let path: Vec<ResourceId> = op.path.iter().map(|&r| ResourceId(r)).collect();
            long.insert(slab.insert(path.clone()), &path);
        } else {
            let key = live_keys[op.pick % live_keys.len()];
            slab.remove(key);
            long.remove(key);
        }
        if !(check_all || op.check || step + 1 == ops.len()) {
            continue;
        }
        let live: Vec<(u32, Vec<ResourceId>)> = slab.iter().map(|(k, p)| (k, p.clone())).collect();
        prop_assert_eq!(long.len(), live.len());
        let long_iters = long.solve(&caps);
        let mut fresh = FairShare::new();
        fresh.set_tolerance(tol);
        for (k, p) in &live {
            fresh.insert(*k, p);
            prop_assert_eq!(long.path(*k), p.as_slice());
        }
        let fresh_iters = fresh.solve(&caps);
        let (ref_iters, ref_bits) = reference(&caps, &live, tol);
        prop_assert_eq!(long_iters, fresh_iters, "step {}: fill iterations", step);
        prop_assert_eq!(
            bits(&long),
            bits(&fresh),
            "step {}: rates vs fresh table",
            step
        );
        prop_assert_eq!(
            long_iters,
            ref_iters,
            "step {}: fill iterations vs reference",
            step
        );
        prop_assert_eq!(bits(&long), ref_bits, "step {}: rates vs reference", step);
    }
    Ok(())
}

proptest! {
    /// Solve after every insert or remove.
    #[test]
    fn long_lived_table_matches_fresh_after_every_step((caps, ops) in case()) {
        for tol in [0.0, 0.02] {
            run_differential(&caps, &ops, tol, true)?;
        }
    }

    /// Several inserts and removes between solves, as the engine batches
    /// them between recomputes.
    #[test]
    fn long_lived_table_matches_fresh_after_batched_changes((caps, ops) in case()) {
        for tol in [0.0, 0.02] {
            run_differential(&caps, &ops, tol, false)?;
        }
    }
}
