//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of flows, each traversing a list of resources, and a
//! capacity per resource, progressive filling repeatedly finds the most
//! contended resource (minimum `remaining capacity / unfrozen flows`),
//! freezes every flow crossing it at that fair share, subtracts the
//! frozen rates everywhere, and repeats.  The result is the unique
//! max-min fair allocation: no flow's rate can be raised without lowering
//! the rate of a flow that is no better off.
//!
//! [`FairShare`] is a persistent flow table keyed by the caller's flow
//! keys (the engine uses its flow-slab keys).  Flows enter with
//! [`FairShare::insert`] and leave with [`FairShare::remove`]; each call
//! updates only the resources on that flow's path, so a re-solve no
//! longer starts by re-adding every live flow.
//!
//! **Bit-identity contract.**  Floating-point subtraction is not
//! associative, so the order in which [`FairShare::solve`] visits
//! resources and flows decides the last bits of every rate.  The table
//! keeps the order a fresh table loaded with the live flows in ascending
//! key order would have: each resource's flow list is sorted by key, and
//! the resource list (`touched`) is in first-appearance order over the
//! live flows' paths.  That order is maintained through one *anchor* per
//! resource — its lowest live key and that key's first path position
//! crossing it — which changes only when the resource's head key does.
//! A long-lived table therefore gives the same rates, bit for bit, and
//! the same fill-iteration count as a fresh one.

use crate::step::ResourceId;
use crate::units::Rate;

/// Persistent max-min fair-share flow table and solver.
#[derive(Debug, Default)]
pub struct FairShare {
    // Per key (indexed by flow key).
    /// Path length of each key; zero marks a vacant key.
    path_len: Vec<u32>,
    /// Flat path arena: key `k`'s path is
    /// `paths[k * stride..k * stride + path_len[k]]`.
    paths: Vec<ResourceId>,
    /// Arena slots per key: the longest path inserted so far.
    stride: usize,
    /// Rate of each key from the last solve; zero until a key's first
    /// solve and after its removal.
    rates: Vec<Rate>,
    /// Solve scratch: has the key's rate been fixed in this solve?
    frozen: Vec<bool>,
    /// Number of live keys.
    live: usize,
    // Per resource (indexed by resource id).
    /// Live keys crossing each resource, ascending; a path that crosses
    /// a resource twice contributes two adjacent entries.
    res_flows: Vec<Vec<u32>>,
    /// Sort key of each touched resource: its head (lowest) key in the
    /// high half, that key's first path position crossing it in the low.
    anchor: Vec<u64>,
    /// Solve scratch: remaining capacity and unfrozen crossing count.
    rem: Vec<Rate>,
    nflows: Vec<u32>,
    /// Resources crossed by at least one live flow, ascending by anchor:
    /// the first-appearance order over the live paths in key order.
    touched: Vec<u32>,
    tolerance: f64,
}

fn anchor(key: u32, pos: usize) -> u64 {
    (u64::from(key) << 32) | pos as u64
}

impl FairShare {
    /// Empty table.
    pub fn new() -> Self {
        FairShare::default()
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no flow is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Is `key` a live flow?
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        self.path_len.get(key as usize).is_some_and(|&l| l > 0)
    }

    /// Path of live flow `key` (empty for a vacant key).
    #[inline]
    pub fn path(&self, key: u32) -> &[ResourceId] {
        let k = key as usize;
        match self.path_len.get(k) {
            Some(&l) => &self.paths[k * self.stride..k * self.stride + l as usize],
            None => &[],
        }
    }

    /// Rates from the last solve, indexed by key; vacant keys and keys
    /// inserted since the last solve read zero.
    #[inline]
    pub fn rates(&self) -> &[Rate] {
        &self.rates
    }

    /// `(key, rate)` pairs of the live flows, ascending by key.
    pub fn results(&self) -> impl Iterator<Item = (u32, Rate)> + '_ {
        self.path_len
            .iter()
            .zip(&self.rates)
            .enumerate()
            .filter(|(_, (&l, _))| l > 0)
            .map(|(k, (_, &r))| (k as u32, r))
    }

    /// Add flow `key` (which must not be live) crossing `path`.  Its rate
    /// reads zero until the next [`FairShare::solve`].
    pub fn insert(&mut self, key: u32, path: &[ResourceId]) {
        assert!(
            !path.is_empty(),
            "flows must traverse at least one resource"
        );
        let k = key as usize;
        if k >= self.path_len.len() {
            self.grow_keys(k + 1);
        }
        debug_assert_eq!(self.path_len[k], 0, "insert of live key {key}");
        if path.len() > self.stride {
            self.restride(path.len());
        }
        let start = k * self.stride;
        self.paths[start..start + path.len()].copy_from_slice(path);
        self.path_len[k] = path.len() as u32;
        self.rates[k] = Rate::ZERO;
        self.live += 1;
        for (pos, &ResourceId(r)) in path.iter().enumerate() {
            let ri = r as usize;
            if ri >= self.res_flows.len() {
                self.grow_resources(ri + 1);
            }
            let list = &mut self.res_flows[ri];
            let at = list.partition_point(|&x| x < key);
            // A repeat of `key` in its own path leaves the anchor at the
            // first crossing.
            let new_head = at == 0 && list.first() != Some(&key);
            let was_touched = !list.is_empty();
            list.insert(at, key);
            if new_head {
                if was_touched {
                    self.untouch(ri);
                }
                self.anchor[ri] = anchor(key, pos);
                self.touch(ri);
            }
        }
    }

    /// Remove live flow `key`.
    pub fn remove(&mut self, key: u32) {
        let k = key as usize;
        let len = self.path_len[k] as usize;
        debug_assert!(len > 0, "remove of vacant key {key}");
        let start = k * self.stride;
        for pos in start..start + len {
            let ri = self.paths[pos].0 as usize;
            let list = &mut self.res_flows[ri];
            let at = list.partition_point(|&x| x < key);
            debug_assert_eq!(list.get(at), Some(&key));
            list.remove(at);
            if at != 0 || list.first() == Some(&key) {
                continue;
            }
            // `key` was this resource's head: re-anchor on the next key.
            self.untouch(ri);
            if let Some(&head) = self.res_flows[ri].first() {
                let hs = head as usize * self.stride;
                let hpath = &self.paths[hs..hs + self.path_len[head as usize] as usize];
                let hpos = hpath.iter().position(|p| p.0 as usize == ri).unwrap_or(0);
                self.anchor[ri] = anchor(head, hpos);
                self.touch(ri);
            }
        }
        self.path_len[k] = 0;
        self.rates[k] = Rate::ZERO;
        self.live -= 1;
    }

    /// Remove every flow.
    pub fn clear(&mut self) {
        for &r in &self.touched {
            self.res_flows[r as usize].clear();
        }
        self.touched.clear();
        self.path_len.fill(0);
        self.rates.fill(Rate::ZERO);
        self.live = 0;
    }

    /// Index in `touched` where `r`'s current anchor sorts.
    fn touched_slot(&self, r: usize) -> usize {
        let a = self.anchor[r];
        self.touched
            .partition_point(|&t| self.anchor[t as usize] < a)
    }

    /// Insert `r` into `touched` at its anchor's position.
    fn touch(&mut self, r: usize) {
        let at = self.touched_slot(r);
        self.touched.insert(at, r as u32);
    }

    /// Remove `r`, found by its current anchor, from `touched`.
    fn untouch(&mut self, r: usize) {
        let at = self.touched_slot(r);
        debug_assert_eq!(self.touched.get(at), Some(&(r as u32)));
        self.touched.remove(at);
    }

    // simlint::amortized — grows the per-key arrays to the highest key seen; keys are reused, so this stops once the flow count peaks
    fn grow_keys(&mut self, n: usize) {
        self.path_len.resize(n, 0);
        self.rates.resize(n, Rate::ZERO);
        self.frozen.resize(n, false);
        self.paths.resize(n * self.stride, ResourceId(0));
    }

    // simlint::amortized — re-lays the path arena when a longer path than any before arrives; bounded by the longest path
    fn restride(&mut self, stride: usize) {
        let mut paths = vec![ResourceId(0); self.path_len.len() * stride];
        for (k, &l) in self.path_len.iter().enumerate() {
            let (src, dst) = (k * self.stride, k * stride);
            paths[dst..dst + l as usize].copy_from_slice(&self.paths[src..src + l as usize]);
        }
        self.paths = paths;
        self.stride = stride;
    }

    // simlint::amortized — grows the per-resource arrays to the highest resource id seen, once per resource
    fn grow_resources(&mut self, n: usize) {
        self.res_flows.resize_with(n, Vec::new);
        self.anchor.resize(n, 0);
        self.rem.resize(n, Rate::ZERO);
        self.nflows.resize(n, 0);
    }

    /// Set the bottleneck tolerance band (relative).  With a non-zero
    /// tolerance, every resource whose fair share lies within
    /// `min × (1 + tol)` freezes its flows in the same pass — each at
    /// its *own* current fair share, so rates stay within `tol` of the
    /// exact max-min allocation while the number of filling iterations
    /// collapses from `O(resources)` to a handful.  Zero (the default)
    /// is the exact algorithm.
    pub fn set_tolerance(&mut self, tol: f64) {
        assert!((0.0..1.0).contains(&tol));
        self.tolerance = tol;
    }

    /// Solve for the live flows with the given per-resource capacities
    /// (units/second, indexed by resource id).
    ///
    /// Returns the number of progressive-filling iterations.  Rates are
    /// then available through [`FairShare::rates`] and
    /// [`FairShare::results`].
    // simlint::hot_root — max-min solver: runs on every rate recomputation
    pub fn solve(&mut self, caps: &[Rate]) -> usize {
        let FairShare {
            path_len,
            paths,
            stride,
            rates,
            frozen,
            live,
            res_flows,
            rem,
            nflows,
            touched,
            tolerance,
            ..
        } = self;
        for &r in touched.iter() {
            let ri = r as usize;
            rem[ri] = caps[ri].max(Rate::ZERO);
            nflows[ri] = res_flows[ri].len() as u32;
        }
        frozen.fill(false);
        let band = 1.0 + *tolerance + 1e-12;
        let mut iters = 0usize;
        let mut unfrozen = *live;
        while unfrozen > 0 {
            iters += 1;
            // Find the bottleneck fair share.
            let mut best_fair = Rate(f64::INFINITY);
            for &r in touched.iter() {
                let ri = r as usize;
                let n = nflows[ri];
                if n > 0 {
                    let fair = rem[ri] / n as f64;
                    if fair < best_fair {
                        best_fair = fair;
                    }
                }
            }
            debug_assert!(
                best_fair.get().is_finite(),
                "unfrozen flow with no live resource"
            );
            let cutoff = best_fair.max(Rate::ZERO) * band;
            // Freeze the flows of every resource inside the band, each at
            // the resource's own current share.  Freezing updates `rem`
            // and `nflows`, so re-check the share as we go; resources
            // pushed above the cutoff by earlier freezes wait for the
            // next iteration.
            for &r in touched.iter() {
                let ri = r as usize;
                let n = nflows[ri];
                if n == 0 {
                    continue;
                }
                let fair = (rem[ri] / n as f64).max(Rate::ZERO);
                if fair > cutoff {
                    continue;
                }
                for &key in &res_flows[ri] {
                    let f = key as usize;
                    if frozen[f] {
                        continue;
                    }
                    frozen[f] = true;
                    rates[f] = fair;
                    unfrozen -= 1;
                    let s = f * *stride;
                    for &ResourceId(p) in &paths[s..s + path_len[f] as usize] {
                        let pi = p as usize;
                        rem[pi] -= fair;
                        nflows[pi] -= 1;
                    }
                }
            }
        }
        iters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(caps: &[f64], flows: &[&[u32]]) -> Vec<f64> {
        let mut fs = FairShare::new();
        for (i, path) in flows.iter().enumerate() {
            let p: Vec<ResourceId> = path.iter().map(|&r| ResourceId(r)).collect();
            fs.insert(i as u32, &p);
        }
        let caps: Vec<Rate> = caps.iter().map(|&c| Rate(c)).collect();
        fs.solve(&caps);
        let mut rates = vec![0.0; flows.len()];
        for (k, r) in fs.results() {
            rates[k as usize] = r.get();
        }
        rates
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = solve(&[10.0], &[&[0]]);
        assert!((rates[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn equal_split_on_shared_resource() {
        let rates = solve(&[12.0], &[&[0], &[0], &[0]]);
        for r in rates {
            assert!((r - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn classic_maxmin_example() {
        // Two resources: r0 cap 10 shared by f0,f1; r1 cap 3 crossed by f1.
        // f1 is bottlenecked at 3 by r1, f0 takes the slack: 7.
        let rates = solve(&[10.0, 3.0], &[&[0], &[0, 1]]);
        assert!((rates[1] - 3.0).abs() < 1e-12, "f1 pinned at narrow link");
        assert!(
            (rates[0] - 7.0).abs() < 1e-12,
            "f0 takes remaining capacity"
        );
    }

    #[test]
    fn three_link_chain() {
        // Kleinrock's example: links of cap 1; f0 spans both links,
        // f1 on link0 only, f2 on link1 only.  Max-min: all at 0.5.
        let rates = solve(&[1.0, 1.0], &[&[0, 1], &[0], &[1]]);
        for r in &rates {
            assert!((r - 0.5).abs() < 1e-12, "{rates:?}");
        }
    }

    #[test]
    fn zero_capacity_resource_stalls_flows() {
        let rates = solve(&[0.0, 10.0], &[&[0, 1], &[1]]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_paths() {
        // Flow through two tight resources is limited by the tighter one
        // after sharing.
        let rates = solve(&[6.0, 4.0], &[&[0], &[0, 1], &[1]]);
        // r1: two flows -> fair 2.0 each; r0 then has 6-2=4 for f0.
        assert!((rates[1] - 2.0).abs() < 1e-12);
        assert!((rates[2] - 2.0).abs() < 1e-12);
        assert!((rates[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solver_is_reusable() {
        let mut fs = FairShare::new();
        for _ in 0..3 {
            fs.clear();
            fs.insert(7, &[ResourceId(0)]);
            fs.insert(9, &[ResourceId(0), ResourceId(1)]);
            fs.solve(&[Rate(10.0), Rate(2.0)]);
            let mut m = std::collections::HashMap::new();
            for (k, r) in fs.results() {
                m.insert(k, r.get());
            }
            assert!((m[&9] - 2.0).abs() < 1e-12);
            assert!((m[&7] - 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn removal_rebalances_and_vacates_the_key() {
        let mut fs = FairShare::new();
        fs.insert(0, &[ResourceId(0), ResourceId(1)]);
        fs.insert(1, &[ResourceId(1)]);
        fs.solve(&[Rate(10.0), Rate(4.0)]);
        assert_eq!(fs.rates()[0], Rate(2.0));
        fs.remove(0);
        assert!(!fs.contains(0) && fs.contains(1));
        assert_eq!(fs.rates()[0], Rate::ZERO);
        assert!(fs.path(0).is_empty());
        fs.solve(&[Rate(10.0), Rate(4.0)]);
        assert_eq!(fs.results().collect::<Vec<_>>(), vec![(1, Rate(4.0))]);
        assert_eq!(fs.touched, vec![1]);
    }

    #[test]
    fn touched_follows_first_appearance_in_key_order() {
        let mut fs = FairShare::new();
        fs.insert(5, &[ResourceId(3), ResourceId(1)]);
        fs.insert(2, &[ResourceId(1), ResourceId(4), ResourceId(1)]);
        assert_eq!(fs.touched, vec![1, 4, 3]);
        // A longer path re-lays the arena without disturbing the others.
        fs.insert(
            0,
            &[ResourceId(4), ResourceId(0), ResourceId(2), ResourceId(3)],
        );
        assert_eq!(fs.touched, vec![4, 0, 2, 3, 1]);
        assert_eq!(fs.path(5), &[ResourceId(3), ResourceId(1)]);
        fs.remove(0);
        assert_eq!(fs.touched, vec![1, 4, 3]);
        fs.remove(2);
        assert_eq!(fs.touched, vec![3, 1]);
    }
}
