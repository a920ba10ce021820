//! Inputs drawn from the benchmark's `--seed`: which cache entries the
//! `store` partial run misses, how its journal is ordered and where it
//! is torn, and the `serve` job list. Pure functions of the seed; the
//! programs under test see only the files and requests made from them.
//!
//! The seed picks *which* cells and keys, never *how much* work: every
//! seed drops one cell per protection setting, tears the journal so one
//! cell per protection setting is lost, and gives every serve epoch the
//! same class counts and the same models of its missing keys. So runs
//! with different seeds stay comparable.

/// Machine variants in `tp_bench::canonical_matrix` (cells are
/// machine-major).
pub const MACHINES: usize = 3;
/// Protection settings per machine: full plus six ablations.
pub const PROTECTIONS: usize = 7;
/// Cells in the matrix.
pub const CELLS: usize = MACHINES * PROTECTIONS;
/// Time models in the default family (`models=1..=5` in a job).
pub const MODELS: usize = 5;

/// SplitMix64: a small, well-mixed, seedable generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

const STREAM_STORE: u64 = 1;
const STREAM_HOLES: u64 = 2;
const STREAM_EPOCH: u64 = 3;

/// The `store` workload's seeded inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorePlan {
    /// Cells whose entries the partial cache lacks (one per protection
    /// setting, ascending).
    pub dropped: Vec<usize>,
    /// Every cell once, in journal order; the last [`PROTECTIONS`] are
    /// the cells the tear loses (one per protection setting).
    pub journal_order: Vec<usize>,
    /// Draw that places the tear inside the first lost record.
    tear: u64,
}

impl StorePlan {
    /// The plan for `seed`.
    pub fn new(seed: u64) -> StorePlan {
        let mut rng = Rng::new(seed, STREAM_STORE);
        let one_per_protection = |rng: &mut Rng| -> Vec<usize> {
            (0..PROTECTIONS)
                .map(|p| rng.below(MACHINES) * PROTECTIONS + p)
                .collect()
        };
        let dropped = one_per_protection(&mut rng);
        let mut lost = one_per_protection(&mut rng);
        let mut kept: Vec<usize> = (0..CELLS).filter(|c| !lost.contains(c)).collect();
        rng.shuffle(&mut kept);
        rng.shuffle(&mut lost);
        kept.extend(lost);
        StorePlan {
            dropped,
            journal_order: kept,
            tear: rng.next_u64(),
        }
    }

    /// The cells the torn journal loses, in journal order.
    pub fn lost(&self) -> &[usize] {
        &self.journal_order[CELLS - PROTECTIONS..]
    }

    /// Byte offset of the tear inside a first lost record of
    /// `record_len` bytes: strictly inside it, so the record is torn,
    /// never dropped or kept whole.
    pub fn tear_offset(&self, record_len: usize) -> usize {
        assert!(record_len >= 2, "a journal record is longer than one byte");
        1 + (self.tear % (record_len as u64 - 1)) as usize
    }
}

/// The three kinds of `serve` job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Cached job whose every cell is in the pre-filled cache.
    Warm,
    /// Cached job for one key missing from the pre-filled cache: it is
    /// proved while the daemon holds the cache lock, then persisted.
    Miss,
    /// `nocache` job for one cell: always proved, cache untouched.
    NoCache,
}

/// One `SUBMIT`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Job kind.
    pub class: JobClass,
    /// `models=` (1..=5).
    pub models: usize,
    /// Cell indices, ascending.
    pub cells: Vec<usize>,
}

impl Job {
    /// The request line.
    pub fn request(&self) -> String {
        let mut line = format!(
            "SUBMIT models={} cells={}",
            self.models,
            cell_spec(&self.cells)
        );
        if self.class == JobClass::NoCache {
            line.push_str(" nocache");
        }
        line
    }

    /// `(hits, missed)` the job's `DONE` line must report.
    pub fn predicted_cache(&self) -> (usize, usize) {
        match self.class {
            JobClass::Warm => (self.cells.len(), 0),
            JobClass::Miss => (0, self.cells.len()),
            JobClass::NoCache => (0, 0),
        }
    }
}

/// Warm, missing-key and `nocache` jobs per epoch. An epoch runs
/// against a daemon started on the pristine pre-filled cache, so each
/// missing key misses exactly once per epoch and the hit share of every
/// epoch is the same.
pub const WARM_PER_EPOCH: usize = 36;
/// See [`WARM_PER_EPOCH`].
pub const MISS_PER_EPOCH: usize = 6;
/// See [`WARM_PER_EPOCH`].
pub const NOCACHE_PER_EPOCH: usize = 6;
/// The `models=` value of each missing key: fixed, so the seed moves
/// which cells miss but not how much proving the misses cost.
pub const HOLE_MODELS: [usize; MISS_PER_EPOCH] = [1, 2, 3, 4, 5, 5];
/// Longest cell range of a warm job.
pub const WARM_MAX_RANGE: usize = 6;

/// The `(models, cell)` keys left out of the pre-filled cache.
pub fn serve_holes(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, STREAM_HOLES);
    let mut holes: Vec<(usize, usize)> = Vec::with_capacity(MISS_PER_EPOCH);
    for &m in &HOLE_MODELS {
        loop {
            let key = (m, rng.below(CELLS));
            if !holes.contains(&key) {
                holes.push(key);
                break;
            }
        }
    }
    holes
}

/// The jobs of epoch `epoch`, in submission order.
pub fn serve_epoch(seed: u64, epoch: u64, holes: &[(usize, usize)]) -> Vec<Job> {
    let mut rng = Rng::new(
        seed ^ epoch.wrapping_mul(0x2545_f491_4f6c_dd1d),
        STREAM_EPOCH,
    );
    let mut jobs = Vec::with_capacity(WARM_PER_EPOCH + MISS_PER_EPOCH + NOCACHE_PER_EPOCH);
    while jobs.len() < WARM_PER_EPOCH {
        let models = 1 + rng.below(MODELS);
        let start = rng.below(CELLS);
        let len = 1 + rng.below(WARM_MAX_RANGE);
        let cells: Vec<usize> = (start..(start + len).min(CELLS))
            .filter(|&c| !holes.contains(&(models, c)))
            .collect();
        if !cells.is_empty() {
            jobs.push(Job {
                class: JobClass::Warm,
                models,
                cells,
            });
        }
    }
    jobs.extend(holes.iter().map(|&(models, cell)| Job {
        class: JobClass::Miss,
        models,
        cells: vec![cell],
    }));
    for _ in 0..NOCACHE_PER_EPOCH {
        jobs.push(Job {
            class: JobClass::NoCache,
            models: 1 + rng.below(MODELS),
            cells: vec![rng.below(CELLS)],
        });
    }
    rng.shuffle(&mut jobs);
    jobs
}

/// A `--cells` spec for ascending `cells`, runs folded into `a..b`.
pub fn cell_spec(cells: &[usize]) -> String {
    let mut parts = Vec::new();
    let mut i = 0;
    while i < cells.len() {
        let mut j = i;
        while j + 1 < cells.len() && cells[j + 1] == cells[j] + 1 {
            j += 1;
        }
        parts.push(if j > i {
            format!("{}..{}", cells[i], cells[j] + 1)
        } else {
            cells[i].to_string()
        });
        i = j + 1;
    }
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_different_ones() {
        assert_eq!(StorePlan::new(7), StorePlan::new(7));
        assert_eq!(serve_holes(7), serve_holes(7));
        let h = serve_holes(7);
        assert_eq!(serve_epoch(7, 0, &h), serve_epoch(7, 0, &h));
        assert_ne!(StorePlan::new(7), StorePlan::new(8));
        assert_ne!(serve_holes(7), serve_holes(8));
        assert_ne!(serve_epoch(7, 0, &h), serve_epoch(8, 0, &h));
        assert_ne!(
            serve_epoch(7, 0, &h),
            serve_epoch(7, 1, &h),
            "epochs differ too"
        );
        let (a, b) = (StorePlan::new(7), StorePlan::new(8));
        assert!(a.dropped != b.dropped || a.lost() != b.lost() || a.tear != b.tear);
    }

    #[test]
    fn store_plans_fix_the_amount_of_work() {
        for seed in 0..50 {
            let p = StorePlan::new(seed);
            let mut order = p.journal_order.clone();
            order.sort_unstable();
            assert_eq!(order, (0..CELLS).collect::<Vec<_>>(), "a permutation");
            for set in [&p.dropped[..], p.lost()] {
                let mut prot: Vec<usize> = set.iter().map(|c| c % PROTECTIONS).collect();
                prot.sort_unstable();
                assert_eq!(prot, (0..PROTECTIONS).collect::<Vec<_>>());
            }
            for len in [2, 3, 1000] {
                let off = p.tear_offset(len);
                assert!(off >= 1 && off < len);
            }
        }
    }

    #[test]
    fn serve_epochs_have_a_fixed_mix_and_miss_each_hole_once() {
        for seed in 0..20 {
            let holes = serve_holes(seed);
            let mut models: Vec<usize> = holes.iter().map(|h| h.0).collect();
            models.sort_unstable();
            assert_eq!(models, HOLE_MODELS);
            for epoch in 0..5 {
                let jobs = serve_epoch(seed, epoch, &holes);
                let count = |k| jobs.iter().filter(|j| j.class == k).count();
                assert_eq!(count(JobClass::Warm), WARM_PER_EPOCH);
                assert_eq!(count(JobClass::Miss), MISS_PER_EPOCH);
                assert_eq!(count(JobClass::NoCache), NOCACHE_PER_EPOCH);
                let mut missed: Vec<(usize, usize)> = jobs
                    .iter()
                    .filter(|j| j.class == JobClass::Miss)
                    .map(|j| (j.models, j.cells[0]))
                    .collect();
                missed.sort_unstable();
                let mut want = holes.clone();
                want.sort_unstable();
                assert_eq!(missed, want);
                for j in jobs.iter().filter(|j| j.class == JobClass::Warm) {
                    assert!(j
                        .cells
                        .iter()
                        .all(|&c| c < CELLS && !holes.contains(&(j.models, c))));
                    assert!((1..=MODELS).contains(&j.models));
                }
            }
        }
    }

    #[test]
    fn cell_specs_fold_runs() {
        assert_eq!(cell_spec(&[3]), "3");
        assert_eq!(cell_spec(&[0, 1, 2, 5, 7, 8]), "0..3,5,7..9");
        let parsed = tp_bench::cli::parse_cell_spec(&cell_spec(&[0, 1, 2, 5, 7, 8])).unwrap();
        assert_eq!(parsed, [0, 1, 2, 5, 7, 8]);
        assert_eq!(
            Job {
                class: JobClass::NoCache,
                models: 2,
                cells: vec![4]
            }
            .request(),
            "SUBMIT models=2 cells=4 nocache"
        );
    }
}
