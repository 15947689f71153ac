//! Process-similarity clustering on SOS-time profiles.
//!
//! The paper's related work discusses two complementary ideas this
//! module provides as an extension: grouping structurally equal
//! processes to summarise large runs (Mohror et al.) and classifying
//! behaviour by clustering (González et al.). Here, each process is a
//! vector of per-segment SOS-times; agglomerative clustering with
//! centroid linkage (clusters merge by the Euclidean distance between
//! their member-weighted mean profiles) groups processes with similar
//! computational behaviour. For the COSMO-SPECS case study this cleanly
//! separates the six cloud-loaded ranks from the other 94; for a
//! balanced run it produces a single cluster.
//!
//! The merge engine (`Agglomeration`) keeps a nearest-neighbour cache
//! per cluster, so `p` processes of `w` segments cluster in about
//! O(p²·w) time and O(p·w) memory, with the merge order of the plain
//! closest-pair rescan.

use crate::sos::SosMatrix;
use perfvar_trace::ProcessId;
use serde::{Deserialize, Serialize};

/// Clustering parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Stop merging when the closest pair of clusters is farther apart
    /// than `distance_threshold × (global RMS of SOS values)`.
    /// Relative, so workloads of any absolute magnitude cluster alike.
    pub distance_threshold: f64,
    /// If set, ignore the threshold and merge down to exactly this many
    /// clusters (or fewer if there are fewer processes).
    pub num_clusters: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            distance_threshold: 0.25,
            num_clusters: None,
        }
    }
}

/// One cluster of behaviourally similar processes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Member processes, ascending.
    pub members: Vec<ProcessId>,
    /// The medoid: the member closest to the cluster mean profile —
    /// a natural *representative* for summarised visualisation.
    pub representative: ProcessId,
    /// Mean per-segment SOS profile of the cluster.
    pub centroid: Vec<f64>,
}

/// The clustering result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProcessClustering {
    /// Clusters, largest first.
    pub clusters: Vec<Cluster>,
}

impl ProcessClustering {
    /// Clusters the processes of `matrix`.
    pub fn compute(matrix: &SosMatrix, config: ClusterConfig) -> ProcessClustering {
        ProcessClustering::compute_capped(matrix, config, usize::MAX)
    }

    /// [`compute`](Self::compute), then, while more than `cap` clusters
    /// remain, merging on regardless of the threshold. The merges up to
    /// the threshold stop are the ones a run with `num_clusters:
    /// Some(cap)` makes too, so this equals that run without repeating
    /// them.
    pub(crate) fn compute_capped(
        matrix: &SosMatrix,
        config: ClusterConfig,
        cap: usize,
    ) -> ProcessClustering {
        let p = matrix.num_processes();
        if p == 0 {
            return ProcessClustering {
                clusters: Vec::new(),
            };
        }
        // Pad ragged rows with zeros to a rectangular, row-major profile
        // matrix.
        let width = (0..p)
            .map(|i| matrix.process_sos(ProcessId::from_index(i)).len())
            .max()
            .unwrap_or(0);
        let mut profiles = vec![0.0f64; p * width];
        for (i, profile) in profiles.chunks_exact_mut(width.max(1)).enumerate() {
            let row = matrix.process_sos(ProcessId::from_index(i));
            for (v, d) in profile.iter_mut().zip(row) {
                *v = d.0 as f64;
            }
        }
        let profile = |i: usize| &profiles[i * width..(i + 1) * width];

        // Scale threshold by the RMS of all values.
        let rms = if profiles.is_empty() {
            0.0
        } else {
            (profiles.iter().fold(0.0f64, |s, v| s + v * v) / profiles.len() as f64).sqrt()
        };
        // An all-idle run (every SOS value zero) has rms == 0; the stop
        // distance is then exactly 0 so identical (all-zero) profiles
        // still merge — only a pair farther than the stop distance ends
        // the threshold run.
        let stop_distance = if rms == 0.0 {
            0.0
        } else {
            config.distance_threshold * rms
        };

        let mut merging = Agglomeration::new(profiles.clone(), width, vec![1; p]);
        match config.num_clusters {
            Some(k) => merging.merge_while(|live, _| live > k.max(1)),
            None => merging.merge_while(|_, d| d <= stop_distance),
        }
        merging.merge_while(|live, _| live > cap);

        let mut members: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (process, root) in merging.roots().into_iter().enumerate() {
            members[root].push(process);
        }
        let mut clusters: Vec<Cluster> = members
            .into_iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(|(slot, members)| {
                let centroid = merging.centroid(slot);
                // Medoid: member closest to the centroid, lowest rank on
                // ties.
                let representative = *members
                    .iter()
                    .min_by(|&&a, &&b| {
                        euclidean(profile(a), centroid).total_cmp(&euclidean(profile(b), centroid))
                    })
                    .expect("a live cluster has members");
                Cluster {
                    members: members.iter().map(|&m| ProcessId::from_index(m)).collect(),
                    representative: ProcessId::from_index(representative),
                    centroid: centroid.to_vec(),
                }
            })
            .collect();
        clusters.sort_by_key(|c| (std::cmp::Reverse(c.members.len()), c.members[0].0));
        ProcessClustering { clusters }
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters (empty trace).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster containing `process`, if any.
    pub fn cluster_of(&self, process: ProcessId) -> Option<&Cluster> {
        self.clusters.iter().find(|c| c.members.contains(&process))
    }

    /// Clusters other than the largest — the "unusual" processes a
    /// summarised view must not hide.
    pub fn minority_clusters(&self) -> &[Cluster] {
        if self.clusters.is_empty() {
            &[]
        } else {
            &self.clusters[1..]
        }
    }
}

/// Exact agglomerative merging of weighted centroids (centroid linkage),
/// shared by [`ProcessClustering`] and the diagnosis summariser's final
/// pass over its sketches.
///
/// Each step merges the closest pair of live slots, ties broken by the
/// lowest `(i, j)`: a merge always folds the higher slot into the lower
/// one, so a slot's index is the lowest rank it holds and this is the
/// deterministic lowest-member-rank rule. The merged centroid is the
/// member-weighted mean of the two.
///
/// Instead of rescanning every pair after each merge (O(p³·w) for `p`
/// slots of width `w`), each live slot `i` caches its nearest live
/// `j > i`; the pick is the smallest cached `(d, i, j)`, which is the
/// pair the full scan finds. A merge of `j` into `i` only changes the
/// distances to `i` and removes `j`, so it recomputes row `i` and the
/// rows whose cached neighbour was `i` or `j`, and offers the new
/// distance to `i` to every other row below `i` — about O(p²·w) in
/// total. Merges can be resumed under a new stop rule.
pub(crate) struct Agglomeration {
    width: usize,
    /// Slot-major centroids, `width` values per slot.
    centroids: Vec<f64>,
    /// Members folded into each live slot.
    weights: Vec<usize>,
    /// The slot each slot was merged into; a live slot holds itself.
    merged_into: Vec<usize>,
    /// Per live slot `i`, the nearest live slot `j > i` as `(d, j)`,
    /// lowest `j` on ties; `None` for dead slots and the last live one.
    nearest: Vec<Option<(f64, usize)>>,
    live: usize,
}

/// Whether `(d, slot)` orders before `than`: distance under
/// `total_cmp`, then slot.
fn closer((d, slot): (f64, usize), than: (f64, usize)) -> bool {
    d.total_cmp(&than.0).then(slot.cmp(&than.1)).is_lt()
}

impl Agglomeration {
    /// One slot per `weights` entry, each with its `width` values of
    /// `centroids`.
    pub(crate) fn new(centroids: Vec<f64>, width: usize, weights: Vec<usize>) -> Agglomeration {
        let n = weights.len();
        assert_eq!(centroids.len(), n * width, "one centroid per slot");
        let mut merging = Agglomeration {
            width,
            centroids,
            weights,
            merged_into: (0..n).collect(),
            nearest: vec![None; n],
            live: n,
        };
        for i in 0..n {
            merging.nearest[i] = merging.nearest_after(i);
        }
        merging
    }

    /// Merges the closest pair while `keep(live slots, its distance)`
    /// holds and more than one slot is live.
    pub(crate) fn merge_while(&mut self, mut keep: impl FnMut(usize, f64) -> bool) {
        while self.live > 1 {
            let (d, i, j) = self.closest_pair();
            if !keep(self.live, d) {
                break;
            }
            self.merge(i, j);
        }
    }

    /// The centroid of `slot`.
    pub(crate) fn centroid(&self, slot: usize) -> &[f64] {
        &self.centroids[slot * self.width..(slot + 1) * self.width]
    }

    /// The live slot each slot ended up in.
    pub(crate) fn roots(&self) -> Vec<usize> {
        let mut roots = self.merged_into.clone();
        // A slot only ever merges into a lower one, whose root is
        // already final by the time the scan reaches it.
        for slot in 0..roots.len() {
            roots[slot] = roots[roots[slot]];
        }
        roots
    }

    fn is_live(&self, slot: usize) -> bool {
        self.merged_into[slot] == slot
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        euclidean(self.centroid(i), self.centroid(j))
    }

    fn nearest_after(&self, i: usize) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for j in (i + 1..self.merged_into.len()).filter(|&j| self.is_live(j)) {
            let d = self.distance(i, j);
            if best.is_none_or(|b| closer((d, j), b)) {
                best = Some((d, j));
            }
        }
        best
    }

    /// The smallest cached `(d, i, j)`; needs two live slots.
    fn closest_pair(&self) -> (f64, usize, usize) {
        let mut best: Option<(f64, usize, usize)> = None;
        for (i, nearest) in self.nearest.iter().enumerate() {
            if let Some((d, j)) = *nearest {
                // Ascending `i`: only a strictly smaller distance wins.
                if best.is_none_or(|(bd, _, _)| d.total_cmp(&bd).is_lt()) {
                    best = Some((d, i, j));
                }
            }
        }
        best.expect("two live slots have a closest pair")
    }

    /// Folds slot `j` into slot `i < j`.
    fn merge(&mut self, i: usize, j: usize) {
        let width = self.width;
        let (ni, nj) = (self.weights[i] as f64, self.weights[j] as f64);
        let (head, tail) = self.centroids.split_at_mut(j * width);
        for (a, b) in head[i * width..(i + 1) * width]
            .iter_mut()
            .zip(&tail[..width])
        {
            *a = (*a * ni + b * nj) / (ni + nj);
        }
        self.weights[i] += self.weights[j];
        self.merged_into[j] = i;
        self.nearest[j] = None;
        self.live -= 1;
        // Dead slots cache nothing, and rows above `j` never cached `i`
        // or `j` (both lie below them).
        for k in (0..j).filter(|&k| k != i) {
            match self.nearest[k] {
                Some((_, m)) if m == i || m == j => self.nearest[k] = self.nearest_after(k),
                Some(cached) if k < i => {
                    let d = self.distance(k, i);
                    if closer((d, i), cached) {
                        self.nearest[k] = Some((d, i));
                    }
                }
                _ => {}
            }
        }
        self.nearest[i] = self.nearest_after(i);
    }
}

pub(crate) fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The full-rescan clustering [`ProcessClustering::compute`] replaced,
/// kept as the oracle of its merge engine (after every merge it scans
/// every centroid pair for the closest one, O(p³·w)), with the inputs
/// and the bit-level view the oracle tests share.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Up to 40 ragged SOS rows. Half the time every process copies
    /// one of a few pooled rows (some all-zero, some empty), so
    /// duplicate rows, zero distances and equal distances abound;
    /// otherwise rows are free.
    pub(crate) fn arb_sos_rows() -> impl Strategy<Value = Vec<Vec<u64>>> {
        let value = || prop_oneof![Just(0u64), 0u64..4, 0u64..1_000_000];
        let pooled =
            (vec(vec(value(), 0..6), 1..7), vec(0usize..6, 0..41)).prop_map(|(pool, picks)| {
                picks
                    .iter()
                    .map(|&pick| pool[pick % pool.len()].clone())
                    .collect()
            });
        prop_oneof![pooled, vec(vec(value(), 0..6), 0..41)]
    }

    /// The threshold rule (`None`) half the time, else a fixed count of
    /// 1–41 clusters: up to one more than the largest process count.
    pub(crate) fn arb_num_clusters() -> impl Strategy<Value = Option<usize>> {
        (0usize..82).prop_map(|k| (k < 41).then_some(k + 1))
    }

    /// Members, representative and the bits of every centroid value,
    /// per cluster in order.
    pub(crate) fn bits(c: &ProcessClustering) -> Vec<(Vec<ProcessId>, ProcessId, Vec<u64>)> {
        c.clusters
            .iter()
            .map(|cl| {
                let centroid = cl.centroid.iter().map(|v| v.to_bits()).collect();
                (cl.members.clone(), cl.representative, centroid)
            })
            .collect()
    }

    /// Clusters the processes of `matrix` by full rescans.
    pub(crate) fn compute(matrix: &SosMatrix, config: ClusterConfig) -> ProcessClustering {
        let p = matrix.num_processes();
        if p == 0 {
            return ProcessClustering {
                clusters: Vec::new(),
            };
        }
        // Pad ragged rows with zeros to a rectangular profile matrix.
        let width = (0..p)
            .map(|i| matrix.process_sos(ProcessId::from_index(i)).len())
            .max()
            .unwrap_or(0);
        let profiles: Vec<Vec<f64>> = (0..p)
            .map(|i| {
                let row = matrix.process_sos(ProcessId::from_index(i));
                let mut v: Vec<f64> = row.iter().map(|d| d.0 as f64).collect();
                v.resize(width, 0.0);
                v
            })
            .collect();

        // Scale threshold by the RMS of all values.
        let rms = {
            let (sum, n) = profiles
                .iter()
                .flatten()
                .fold((0.0f64, 0usize), |(s, n), v| (s + v * v, n + 1));
            if n == 0 {
                0.0
            } else {
                (sum / n as f64).sqrt()
            }
        };
        // An all-idle run (every SOS value zero) has rms == 0; the stop
        // distance is then exactly 0 so identical (all-zero) profiles
        // still merge — the break below only fires on `d > stop_distance`.
        let stop_distance = if rms == 0.0 {
            0.0
        } else {
            config.distance_threshold * rms
        };

        // Agglomerative, average linkage via centroid bookkeeping.
        struct Node {
            members: Vec<usize>,
            centroid: Vec<f64>,
        }
        let mut nodes: Vec<Option<Node>> = profiles
            .iter()
            .enumerate()
            .map(|(i, prof)| {
                Some(Node {
                    members: vec![i],
                    centroid: prof.clone(),
                })
            })
            .collect();
        let mut active = p;
        let target = config.num_clusters.map(|k| k.max(1));
        loop {
            if active <= 1 {
                break;
            }
            if let Some(k) = target {
                if active <= k {
                    break;
                }
            }
            // Find closest pair of centroids. Ties are broken by the
            // lowest member rank of the pair: because a merge always
            // folds the higher slot into the lower one, a node's slot
            // index *is* its lowest member rank, so ordering equidistant
            // pairs by `(i, j)` is exactly the deterministic
            // lowest-member-rank rule (mirroring the dominant-function
            // tie fix).
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..nodes.len() {
                let Some(a) = &nodes[i] else { continue };
                for (j, node) in nodes.iter().enumerate().skip(i + 1) {
                    let Some(b) = node else { continue };
                    let d = euclidean(&a.centroid, &b.centroid);
                    let better = match best {
                        None => true,
                        Some((bi, bj, bd)) => match d.total_cmp(&bd) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => (i, j) < (bi, bj),
                            std::cmp::Ordering::Greater => false,
                        },
                    };
                    if better {
                        best = Some((i, j, d));
                    }
                }
            }
            let Some((i, j, d)) = best else { break };
            if target.is_none() && d > stop_distance {
                break;
            }
            // Merge j into i.
            let b = nodes[j].take().unwrap();
            let a = nodes[i].as_mut().unwrap();
            let na = a.members.len() as f64;
            let nb = b.members.len() as f64;
            for (ca, cb) in a.centroid.iter_mut().zip(&b.centroid) {
                *ca = (*ca * na + cb * nb) / (na + nb);
            }
            a.members.extend(b.members);
            active -= 1;
        }

        let mut clusters: Vec<Cluster> = nodes
            .into_iter()
            .flatten()
            .map(|node| {
                let mut members = node.members;
                members.sort_unstable();
                // Medoid: member closest to the centroid.
                let representative = *members
                    .iter()
                    .min_by(|&&a, &&b| {
                        euclidean(&profiles[a], &node.centroid)
                            .total_cmp(&euclidean(&profiles[b], &node.centroid))
                    })
                    .unwrap();
                Cluster {
                    members: members.iter().map(|&m| ProcessId::from_index(m)).collect(),
                    representative: ProcessId::from_index(representative),
                    centroid: node.centroid,
                }
            })
            .collect();
        clusters.sort_by_key(|c| (std::cmp::Reverse(c.members.len()), c.members[0].0));
        ProcessClustering { clusters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invocation::replay_all;
    use crate::segment::Segmentation;
    use perfvar_trace::{Clock, FunctionRole, Timestamp, Trace, TraceBuilder};

    /// `groups` gives, per process, the per-iteration loads.
    fn trace_with_loads(groups: &[Vec<u64>]) -> Segmentation {
        let mut b = TraceBuilder::new(Clock::microseconds());
        let f = b.define_function("iter", FunctionRole::Compute);
        for loads in groups {
            let p = b.define_process("p");
            let w = b.process_mut(p);
            let mut t = 0u64;
            for &load in loads {
                w.enter(Timestamp(t), f).unwrap();
                t += load;
                w.leave(Timestamp(t), f).unwrap();
            }
        }
        let trace: Trace = b.finish().unwrap();
        Segmentation::new(&trace, &replay_all(&trace), f)
    }

    #[test]
    fn identical_processes_form_one_cluster() {
        let m = trace_with_loads(&vec![vec![100, 100, 100]; 6]);
        let c =
            ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters[0].members.len(), 6);
        assert!(c.minority_clusters().is_empty());
    }

    #[test]
    fn two_behaviour_groups_separate() {
        let mut groups = vec![vec![100u64, 100, 100]; 5];
        groups.extend(vec![vec![300u64, 320, 310]; 3]);
        let m = trace_with_loads(&groups);
        let c =
            ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
        assert_eq!(c.len(), 2, "{c:?}");
        assert_eq!(c.clusters[0].members.len(), 5); // largest first
        assert_eq!(c.clusters[1].members.len(), 3);
        let slow: Vec<u32> = c.clusters[1].members.iter().map(|p| p.0).collect();
        assert_eq!(slow, vec![5, 6, 7]);
    }

    #[test]
    fn fixed_cluster_count_override() {
        let mut groups = vec![vec![100u64; 4]; 4];
        groups.push(vec![600u64; 4]);
        groups.push(vec![900u64; 4]);
        let m = trace_with_loads(&groups);
        let c = ProcessClustering::compute(
            &SosMatrix::from_segmentation(&m),
            ClusterConfig {
                num_clusters: Some(2),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(c.len(), 2);
        // 600 and 900 merge together before joining the 100s.
        assert_eq!(c.clusters[1].members.len(), 2);
    }

    #[test]
    fn representative_is_a_member_near_centroid() {
        let groups = vec![
            vec![100u64, 100],
            vec![110, 110],
            vec![90, 90],
            vec![500, 500],
        ];
        let m = trace_with_loads(&groups);
        let c =
            ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
        let big = &c.clusters[0];
        assert!(big.members.contains(&big.representative));
        // Centroid of {100,110,90} is 100 → representative is process 0.
        assert_eq!(big.representative, ProcessId(0));
    }

    #[test]
    fn cluster_of_lookup() {
        let groups = vec![vec![100u64; 3]; 3];
        let m = trace_with_loads(&groups);
        let c =
            ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
        assert!(c.cluster_of(ProcessId(2)).is_some());
        assert!(c.cluster_of(ProcessId(9)).is_none());
    }

    #[test]
    fn empty_matrix_clusters_to_nothing() {
        let m = trace_with_loads(&[]);
        let c =
            ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
        assert!(c.is_empty());
    }

    #[test]
    fn ragged_rows_are_padded() {
        let groups = vec![vec![100u64, 100, 100], vec![100, 100]];
        let m = trace_with_loads(&groups);
        let c =
            ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
        // The missing third segment (padded 0) makes process 1 distinct
        // at the default threshold of 0.25·RMS.
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn all_idle_run_with_zero_rms_forms_one_cluster() {
        // Every SOS value is zero → the global RMS is zero. The stop
        // distance must collapse to exactly 0 so the identical all-zero
        // profiles still merge into a single cluster instead of staying
        // one-cluster-per-process (regression: the threshold used to be
        // scaled by `rms.max(EPSILON)`, leaving the intent implicit).
        let m = trace_with_loads(&vec![vec![0u64, 0, 0]; 5]);
        let c =
            ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
        assert_eq!(c.len(), 1, "{c:?}");
        assert_eq!(c.clusters[0].members.len(), 5);
        assert!(c.clusters[0].centroid.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_process_is_its_own_cluster() {
        let m = trace_with_loads(&[vec![100u64, 200, 300]]);
        let c =
            ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters[0].members, vec![ProcessId(0)]);
        assert_eq!(c.clusters[0].representative, ProcessId(0));
    }

    #[test]
    fn equidistant_merge_breaks_tie_by_lowest_member_rank() {
        // Profiles at 0, 100, 200: the pairs (0,1) and (1,2) are both
        // 100 apart. Forcing two clusters must deterministically merge
        // the pair with the lowest member rank, i.e. {0,1} | {2}.
        let m = trace_with_loads(&[vec![0u64; 2], vec![100u64; 2], vec![200u64; 2]]);
        let c = ProcessClustering::compute(
            &SosMatrix::from_segmentation(&m),
            ClusterConfig {
                num_clusters: Some(2),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(c.len(), 2);
        assert_eq!(c.clusters[0].members, vec![ProcessId(0), ProcessId(1)]);
        assert_eq!(c.clusters[1].members, vec![ProcessId(2)]);
    }

    #[test]
    fn equidistant_disjoint_pairs_merge_lowest_first() {
        // Two far-apart pairs with identical intra-pair distance; with
        // room for exactly one merge, the lower-ranked pair merges.
        let groups = vec![
            vec![0u64; 2],
            vec![100; 2],
            vec![10_000; 2],
            vec![10_100; 2],
        ];
        let m = trace_with_loads(&groups);
        let c = ProcessClustering::compute(
            &SosMatrix::from_segmentation(&m),
            ClusterConfig {
                num_clusters: Some(3),
                ..ClusterConfig::default()
            },
        );
        assert_eq!(c.len(), 3);
        assert_eq!(c.clusters[0].members, vec![ProcessId(0), ProcessId(1)]);
    }

    #[test]
    fn cosmo_like_hotspot_isolated() {
        // 14 balanced ranks + 2 hot ranks with growing load.
        let mut groups = vec![vec![100u64; 8]; 14];
        groups.push((0..8).map(|i| 100 + 40 * i).collect());
        groups.push((0..8).map(|i| 100 + 50 * i).collect());
        let m = trace_with_loads(&groups);
        let c =
            ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
        assert!(c.len() >= 2);
        let minority: Vec<u32> = c
            .minority_clusters()
            .iter()
            .flat_map(|cl| cl.members.iter().map(|p| p.0))
            .collect();
        assert!(
            minority.contains(&14) && minority.contains(&15),
            "{minority:?}"
        );
    }

    #[test]
    fn merge_offers_the_moved_centroid_to_lower_rows() {
        // Slots 0–3 in the plane: 1 and 2 are the closest pair (200
        // apart), slot 0 sits 206 from each and 203 from slot 3. Merging
        // 2 into 1 moves that centroid to (100, 0), 180 from slot 0 —
        // closer than slot 0's cached neighbour 3 — so {0, 1, 2} must
        // merge next, as the full rescan finds.
        let m = Segmentation::from_sos_rows(&[
            vec![100, 180],
            vec![0, 0],
            vec![200, 0],
            vec![100, 383],
        ]);
        let config = ClusterConfig {
            num_clusters: Some(2),
            ..ClusterConfig::default()
        };
        let c = ProcessClustering::compute(&SosMatrix::from_segmentation(&m), config);
        assert_eq!(
            c.clusters[0].members,
            vec![ProcessId(0), ProcessId(1), ProcessId(2)]
        );
        assert_eq!(c.clusters[1].members, vec![ProcessId(3)]);
        assert_eq!(
            oracle::bits(&c),
            oracle::bits(&oracle::compute(&SosMatrix::from_segmentation(&m), config))
        );
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// Per-process load rows: 1–8 processes × 1–5 iterations, loads
        /// drawn from a wide range so exact cross-pair distance ties are
        /// vanishingly improbable (ties are covered by the deterministic
        /// tests above).
        fn arb_groups() -> impl Strategy<Value = Vec<Vec<u64>>> {
            vec(vec(1u64..1_000_000, 1..6), 1..9)
        }

        /// A deterministic Fisher–Yates permutation of `0..n` from `seed`:
        /// `perm[new_rank] = original index`.
        fn permutation(n: usize, seed: u64) -> Vec<usize> {
            let mut perm: Vec<usize> = (0..n).collect();
            let mut state = seed | 1;
            for i in (1..n).rev() {
                // xorshift64* — plenty for shuffling test inputs.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let j = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
            perm
        }

        /// A clustering as a multiset of member sets, with each member
        /// mapped back through `index_of` (identity for unpermuted runs).
        fn member_sets(
            c: &ProcessClustering,
            index_of: impl Fn(usize) -> usize,
        ) -> BTreeSet<BTreeSet<usize>> {
            c.clusters
                .iter()
                .map(|cl| {
                    cl.members
                        .iter()
                        .map(|p| index_of(p.index()))
                        .collect::<BTreeSet<usize>>()
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn merge_engine_matches_the_full_rescan_oracle(
                rows in oracle::arb_sos_rows(),
                num_clusters in oracle::arb_num_clusters(),
                threshold in prop_oneof![Just(0.0f64), 0.0f64..1.0],
            ) {
                let m = Segmentation::from_sos_rows(&rows);
                let config = ClusterConfig {
                    distance_threshold: threshold,
                    num_clusters,
                };
                prop_assert_eq!(
                    oracle::bits(&ProcessClustering::compute(&SosMatrix::from_segmentation(&m), config)),
                    oracle::bits(&oracle::compute(&SosMatrix::from_segmentation(&m), config))
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn deterministic_across_repeated_runs(groups in arb_groups()) {
                let m = trace_with_loads(&groups);
                let a = ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
                let b = ProcessClustering::compute(&SosMatrix::from_segmentation(&m), ClusterConfig::default());
                prop_assert_eq!(a, b);
            }

            #[test]
            fn num_clusters_upper_bound_honoured(
                groups in arb_groups(),
                k in 1usize..9,
            ) {
                let m = trace_with_loads(&groups);
                let c = ProcessClustering::compute(
                    &SosMatrix::from_segmentation(&m),
                    ClusterConfig { num_clusters: Some(k), ..ClusterConfig::default() },
                );
                prop_assert!(c.len() <= k, "{} clusters > bound {}", c.len(), k);
                prop_assert!(!c.is_empty());
                // Every process appears in exactly one cluster.
                let total: usize = c.clusters.iter().map(|cl| cl.members.len()).sum();
                prop_assert_eq!(total, groups.len());
            }

            #[test]
            fn rank_permutation_invariance(
                groups in arb_groups(),
                seed in 0u64..u64::MAX,
            ) {
                let perm = permutation(groups.len(), seed);
                let permuted: Vec<Vec<u64>> =
                    perm.iter().map(|&orig| groups[orig].clone()).collect();
                let c_orig = ProcessClustering::compute(
                    &SosMatrix::from_segmentation(&trace_with_loads(&groups)), ClusterConfig::default());
                let c_perm = ProcessClustering::compute(
                    &SosMatrix::from_segmentation(&trace_with_loads(&permuted)), ClusterConfig::default());
                let orig_sets = member_sets(&c_orig, |i| i);
                let perm_sets = member_sets(&c_perm, |i| perm[i]);
                prop_assert_eq!(orig_sets, perm_sets);
            }

            #[test]
            fn degenerate_inputs_never_panic(
                n in 1usize..7,
                width in 1usize..5,
                load_pick in 0usize..3,
                k in 0usize..10,
            ) {
                // All-equal vectors (including all-zero → zero global RMS
                // in the relative threshold) across any process count and
                // any num_clusters override, including the degenerate
                // Some(0); k == 9 doubles as the None arm.
                let load = [0u64, 1, 77][load_pick];
                let num_clusters = (k < 9).then_some(k);
                let m = trace_with_loads(&vec![vec![load; width]; n]);
                let c = ProcessClustering::compute(
                    &SosMatrix::from_segmentation(&m),
                    ClusterConfig { num_clusters, ..ClusterConfig::default() },
                );
                // Identical profiles always collapse to one cluster
                // unless a larger fixed count forbids merging that far.
                let expected = num_clusters.map_or(1, |k| k.clamp(1, n));
                prop_assert_eq!(c.len(), expected);
            }
        }
    }
}
